//! The cell-record format: the `.sweepck` checkpoint file, an
//! append-only record log that survives a `SIGKILL` mid-write, and the
//! replies of the `sweep-worker` pipe, which carry the same records.
//!
//! ## Format
//!
//! ```text
//! magic  := b"SWEEPCK\n"                                  (8 bytes)
//! record := [len: u32 LE] [payload: len bytes] [fnv1a(payload): u64 LE]
//! ```
//!
//! The first record's payload is the **header** (tag `0x01`): format
//! version, grid/preset names, base seed, cell count, and rows per cell
//! — everything needed to refuse a resume against the wrong sweep.
//! Every later record is a **cell record** (tag `0x02`): the cell
//! index, its deterministic seed, a done/worker-failed status, and the
//! cell's outcomes with the rate stored as raw `f64::to_bits` — the
//! checkpoint round-trips outcomes *bit*-exactly, no decimal formatting
//! in the loop.
//!
//! ## The worker pipe
//!
//! A `sweep-worker` answers each request (one line: the decimal cell
//! index) with one line of lowercase hex that encodes one framed
//! record, the bytes [`CheckpointWriter::append`] writes: the cell
//! record of a finished cell, or, for a cell error, a **failure
//! record** (tag `0x03`, used only on the pipe) that holds the cell
//! index and the worker's message. [`load`] rejects a failure record in
//! a file, as it rejects any unknown tag. A reply is exactly one line,
//! so a torn or stray write costs one rejected line, and the checksum
//! rejects any changed digit; see [`encode_reply`] and
//! [`decode_reply`].
//!
//! ## Crash tolerance
//!
//! Records are appended (and flushed) one at a time, so the only damage
//! a `SIGKILL` can do is a **truncated final record**. [`load`]
//! therefore accepts a partial trailing record and reports the byte
//! offset where the valid prefix ends ([`LoadedCheckpoint::valid_len`]);
//! [`CheckpointWriter::append_to`] truncates the file back to that
//! offset before appending, so a resumed run never writes after garbage.
//! A record that is *complete* but fails its checksum is a different
//! story — that is corruption, not interruption — and is rejected with a
//! clean [`SweepError::Checkpoint`].
//!
//! Duplicate cell records are legal and **last-wins**: a resumed run
//! re-executes `WorkerFailed` cells and simply appends the fresh record.

use std::fs::{File, OpenOptions};
use std::io::{Read as _, Seek as _, SeekFrom, Write as _};
use std::path::Path;

use consensus_sweep::{CellOutcome, SweepError};

/// The 8-byte file magic.
pub const MAGIC: &[u8; 8] = b"SWEEPCK\n";

/// The checkpoint format version written into the header record.
pub const FORMAT_VERSION: u32 = 1;

/// A record payload may not exceed this (anything larger in the length
/// prefix is corruption, not a real record).
const MAX_PAYLOAD: u32 = 16 << 20;

const TAG_HEADER: u8 = 0x01;
const TAG_CELL: u8 = 0x02;
const TAG_FAILURE: u8 = 0x03;

/// The bytes a frame adds around its payload: length prefix and
/// checksum.
const FRAME_OVERHEAD: usize = 12;

/// The digits of a reply line.
const HEX: &[u8; 16] = b"0123456789abcdef";

/// FNV-1a over a byte slice — the per-record checksum.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// The sweep identity a checkpoint belongs to. A resume refuses to
/// proceed unless every field matches the sweep being resumed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointHeader {
    /// Registered grid name (`ensemble` | `multidim` | `dynamic_rates`).
    pub grid: String,
    /// Preset name within the grid (`golden`, `quick`, `full`, …).
    pub preset: String,
    /// The sweep's base seed (all cell seeds derive from it).
    pub base_seed: u64,
    /// Total number of grid cells.
    pub n_cells: u64,
    /// Outcome rows per cell (1 for most grids, 2 for `multidim`'s
    /// coordinatewise/simplex pair).
    pub rows_per_cell: u32,
}

/// Whether a cell's record holds real outcomes or a worker failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellStatus {
    /// The cell executed and its outcomes are genuine measurements.
    Done,
    /// The cell failed: its executor returned an error or panicked, or
    /// its worker died on two processes in a row. The outcomes are
    /// `rows_per_cell` placeholder failures. A resume re-executes the
    /// cell.
    WorkerFailed,
}

/// One checkpointed cell: index, deterministic seed, status, outcomes.
#[derive(Debug, Clone, PartialEq)]
pub struct CellRecord {
    /// The cell's grid index.
    pub cell: u64,
    /// The seed the cell ran with (`cell_seed(base_seed, cell)`).
    pub seed: u64,
    /// Done, or worker-failed (placeholder outcomes).
    pub status: CellStatus,
    /// The cell's outcome rows (`rows_per_cell` of them).
    pub outcomes: Vec<CellOutcome>,
}

impl CellRecord {
    /// Whether two records hold bit-identical outcomes (plain `==` on
    /// [`CellOutcome`] treats `NaN ≠ NaN`; checkpoint equality must
    /// not).
    #[must_use]
    pub fn bit_eq(&self, other: &CellRecord) -> bool {
        self.cell == other.cell
            && self.seed == other.seed
            && self.status == other.status
            && self.outcomes.len() == other.outcomes.len()
            && self.outcomes.iter().zip(&other.outcomes).all(|(a, b)| {
                a.rate.to_bits() == b.rate.to_bits()
                    && a.decision_round == b.decision_round
                    && a.rounds == b.rounds
                    && a.converged == b.converged
                    && a.fingerprint == b.fingerprint
            })
    }
}

/// The result of [`load`]: the header, every intact cell record in file
/// order, and how much of the file was valid.
#[derive(Debug, Clone)]
pub struct LoadedCheckpoint {
    /// The sweep identity the file was created for.
    pub header: CheckpointHeader,
    /// Every intact cell record, in append order (duplicates possible;
    /// see [`LoadedCheckpoint::latest_by_cell`]).
    pub records: Vec<CellRecord>,
    /// Byte length of the valid prefix (everything after it, if
    /// anything, was a truncated trailing record).
    pub valid_len: u64,
    /// Whether a truncated trailing record was dropped.
    pub dropped_tail: bool,
}

impl LoadedCheckpoint {
    /// The newest record per cell (last-wins), as one slot per grid
    /// cell.
    ///
    /// # Errors
    ///
    /// Rejects records whose cell index is out of the header's range.
    pub fn latest_by_cell(&self) -> Result<Vec<Option<CellRecord>>, SweepError> {
        let n = usize::try_from(self.header.n_cells)
            .map_err(|_| SweepError::checkpoint("cell count exceeds the address space"))?;
        let mut slots: Vec<Option<CellRecord>> = vec![None; n];
        for r in &self.records {
            let i = usize::try_from(r.cell)
                .ok()
                .filter(|&i| i < n)
                .ok_or_else(|| SweepError::Checkpoint {
                    cell: Some(r.cell),
                    message: format!("cell index out of range (grid has {n} cells)"),
                })?;
            slots[i] = Some(r.clone());
        }
        Ok(slots)
    }
}

// ---- little-endian encode/decode helpers -------------------------------

fn put_u32(buf: &mut Vec<u8>, x: u32) {
    buf.extend_from_slice(&x.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, x: u64) {
    buf.extend_from_slice(&x.to_le_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

/// A cursor over a payload being decoded; all reads are bounds-checked
/// so corrupt payloads fail cleanly instead of panicking.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SweepError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| SweepError::checkpoint("record payload shorter than its fields"))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, SweepError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, SweepError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64, SweepError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn string(&mut self) -> Result<String, SweepError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| SweepError::checkpoint("record string is not UTF-8"))
    }

    fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

// ---- payload encoding --------------------------------------------------

fn encode_header(h: &CheckpointHeader) -> Vec<u8> {
    let mut p = Vec::new();
    p.push(TAG_HEADER);
    put_u32(&mut p, FORMAT_VERSION);
    put_u64(&mut p, h.base_seed);
    put_u64(&mut p, h.n_cells);
    put_u32(&mut p, h.rows_per_cell);
    put_str(&mut p, &h.grid);
    put_str(&mut p, &h.preset);
    p
}

fn decode_header(payload: &[u8]) -> Result<CheckpointHeader, SweepError> {
    let mut c = Cursor::new(payload);
    let tag = c.u8()?;
    if tag != TAG_HEADER {
        return Err(SweepError::checkpoint(format!(
            "first record has tag {tag:#04x}, expected a header"
        )));
    }
    let version = c.u32()?;
    if version != FORMAT_VERSION {
        return Err(SweepError::checkpoint(format!(
            "unsupported checkpoint format version {version} (this build reads {FORMAT_VERSION})"
        )));
    }
    let base_seed = c.u64()?;
    let n_cells = c.u64()?;
    let rows_per_cell = c.u32()?;
    let grid = c.string()?;
    let preset = c.string()?;
    if !c.done() {
        return Err(SweepError::checkpoint("header record has trailing bytes"));
    }
    Ok(CheckpointHeader {
        grid,
        preset,
        base_seed,
        n_cells,
        rows_per_cell,
    })
}

fn encode_cell(r: &CellRecord) -> Vec<u8> {
    let mut p = Vec::new();
    p.push(TAG_CELL);
    put_u64(&mut p, r.cell);
    put_u64(&mut p, r.seed);
    p.push(match r.status {
        CellStatus::Done => 0,
        CellStatus::WorkerFailed => 1,
    });
    put_u32(&mut p, r.outcomes.len() as u32);
    for o in &r.outcomes {
        put_u64(&mut p, o.rate.to_bits());
        match o.decision_round {
            Some(d) => {
                p.push(1);
                put_u64(&mut p, d);
            }
            None => {
                p.push(0);
                put_u64(&mut p, 0);
            }
        }
        put_u64(&mut p, o.rounds);
        p.push(u8::from(o.converged));
        put_u64(&mut p, o.fingerprint);
    }
    p
}

fn decode_cell(payload: &[u8]) -> Result<CellRecord, SweepError> {
    let mut c = Cursor::new(payload);
    let tag = c.u8()?;
    if tag != TAG_CELL {
        return Err(SweepError::checkpoint(format!(
            "unknown record tag {tag:#04x}"
        )));
    }
    let cell = c.u64()?;
    let seed = c.u64()?;
    let status = match c.u8()? {
        0 => CellStatus::Done,
        1 => CellStatus::WorkerFailed,
        s => {
            return Err(SweepError::Checkpoint {
                cell: Some(cell),
                message: format!("unknown cell status byte {s:#04x}"),
            })
        }
    };
    let n = c.u32()? as usize;
    let mut outcomes = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        let rate = f64::from_bits(c.u64()?);
        let has_decision = c.u8()? != 0;
        let decision = c.u64()?;
        let rounds = c.u64()?;
        let converged = c.u8()? != 0;
        let fingerprint = c.u64()?;
        outcomes.push(CellOutcome {
            rate,
            decision_round: has_decision.then_some(decision),
            rounds,
            converged,
            fingerprint,
        });
    }
    if !c.done() {
        return Err(SweepError::Checkpoint {
            cell: Some(cell),
            message: "cell record has trailing bytes".to_owned(),
        });
    }
    Ok(CellRecord {
        cell,
        seed,
        status,
        outcomes,
    })
}

// ---- framing -----------------------------------------------------------

/// One whole record: length prefix, payload, checksum.
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(payload.len() + FRAME_OVERHEAD);
    put_u32(&mut buf, payload.len() as u32);
    buf.extend_from_slice(payload);
    put_u64(&mut buf, fnv1a(payload));
    buf
}

/// The payload of the record framed at the start of `bytes`, or `None`
/// when `bytes` ends inside the frame. Errs, with a message that
/// follows the record's position, on an impossible length prefix or a
/// checksum mismatch.
fn unframe(bytes: &[u8]) -> Result<Option<&[u8]>, String> {
    let Some(prefix) = bytes.get(..4) else {
        return Ok(None);
    };
    let len = u32::from_le_bytes(prefix.try_into().expect("4 bytes"));
    if len == 0 || len > MAX_PAYLOAD {
        return Err(format!("declares an impossible payload length {len}"));
    }
    let Some(rest) = bytes.get(4..len as usize + FRAME_OVERHEAD) else {
        return Ok(None);
    };
    let (payload, sum) = rest.split_at(len as usize);
    let stored = u64::from_le_bytes(sum.try_into().expect("8 bytes"));
    let computed = fnv1a(payload);
    if computed != stored {
        return Err(format!(
            "fails its checksum (stored {stored:#018x}, computed {computed:#018x})"
        ));
    }
    Ok(Some(payload))
}

// ---- the worker pipe ---------------------------------------------------

/// Encodes a worker's reply to the request for `cell` as one line of
/// lowercase hex, without the newline. Rows become the framed
/// [`CellStatus::Done`] cell record with seed `seed`, byte for byte
/// what [`CheckpointWriter::append`] writes for it; a cell error becomes
/// the framed failure record holding its message.
#[must_use]
pub fn encode_reply(cell: u64, seed: u64, result: Result<Vec<CellOutcome>, String>) -> String {
    let payload = match result {
        Ok(outcomes) => encode_cell(&CellRecord {
            cell,
            seed,
            status: CellStatus::Done,
            outcomes,
        }),
        Err(message) => {
            let mut p = vec![TAG_FAILURE];
            put_u64(&mut p, cell);
            put_str(&mut p, &message);
            p
        }
    };
    let framed = frame(&payload);
    let mut line = String::with_capacity(2 * framed.len());
    for b in framed {
        line.push(char::from(HEX[usize::from(b >> 4)]));
        line.push(char::from(HEX[usize::from(b & 0x0f)]));
    }
    line
}

/// Decodes a worker's reply line (without its newline) to the request
/// for `cell`: `Ok(Ok(rows))` for a finished cell, `Ok(Err(message))`
/// for a cell error the worker reported.
///
/// # Errors
///
/// A transport failure: the line is not lowercase hex of exactly one
/// framed record, fails its checksum, holds neither a cell record nor a
/// failure record, or names another cell.
pub fn decode_reply(line: &str, cell: u64) -> Result<Result<Vec<CellOutcome>, String>, SweepError> {
    let digit = |d: &u8| HEX.iter().position(|h| h == d).map(|v| v as u8);
    let bytes = line
        .as_bytes()
        .chunks(2)
        .map(|pair| match pair {
            [hi, lo] => Some(digit(hi)? << 4 | digit(lo)?),
            _ => None,
        })
        .collect::<Option<Vec<u8>>>()
        .ok_or_else(|| SweepError::checkpoint("reply is not lowercase hex"))?;
    let payload = unframe(&bytes)
        .map_err(|e| SweepError::checkpoint(format!("reply record {e}")))?
        .filter(|p| p.len() + FRAME_OVERHEAD == bytes.len())
        .ok_or_else(|| SweepError::checkpoint("reply is not exactly one framed record"))?;
    let (named, result) = if payload[0] == TAG_FAILURE {
        let mut c = Cursor::new(&payload[1..]);
        let named = c.u64()?;
        let message = c.string()?;
        if !c.done() {
            return Err(SweepError::checkpoint("failure record has trailing bytes"));
        }
        (named, Err(message))
    } else {
        let record = decode_cell(payload)?;
        (record.cell, Ok(record.outcomes))
    };
    if named != cell {
        return Err(SweepError::checkpoint(format!(
            "reply names cell {named}, not the requested cell {cell}"
        )));
    }
    Ok(result)
}

// ---- load --------------------------------------------------------------

fn io_err(context: &str, e: &std::io::Error) -> SweepError {
    SweepError::checkpoint(format!("{context}: {e}"))
}

/// Loads a checkpoint file, tolerating a truncated trailing record (the
/// normal aftermath of a `SIGKILL` mid-append).
///
/// # Errors
///
/// Rejects unreadable files, a bad magic, an unsupported version, and
/// any *complete* record whose checksum or payload does not decode —
/// corruption is never silently skipped, only the partial tail is.
pub fn load(path: &Path) -> Result<LoadedCheckpoint, SweepError> {
    let mut bytes = Vec::new();
    File::open(path)
        .and_then(|mut f| f.read_to_end(&mut bytes))
        .map_err(|e| io_err(&format!("cannot read checkpoint {}", path.display()), &e))?;
    if bytes.len() < MAGIC.len() || &bytes[..MAGIC.len()] != MAGIC {
        return Err(SweepError::checkpoint(format!(
            "{} is not a sweep checkpoint (bad magic)",
            path.display()
        )));
    }

    let mut pos = MAGIC.len();
    let mut payloads: Vec<&[u8]> = Vec::new();
    let mut dropped_tail = false;
    while pos < bytes.len() {
        let Some(payload) = unframe(&bytes[pos..])
            .map_err(|e| SweepError::checkpoint(format!("record at byte {pos} {e}")))?
        else {
            // A record that runs past EOF is a truncated tail.
            dropped_tail = true;
            break;
        };
        payloads.push(payload);
        pos += payload.len() + FRAME_OVERHEAD;
    }

    let Some((head, tail)) = payloads.split_first() else {
        return Err(SweepError::checkpoint(format!(
            "{} holds no complete header record",
            path.display()
        )));
    };
    let header = decode_header(head)?;
    let mut records = Vec::with_capacity(tail.len());
    for p in tail {
        records.push(decode_cell(p)?);
    }
    Ok(LoadedCheckpoint {
        header,
        records,
        valid_len: pos as u64,
        dropped_tail,
    })
}

// ---- write -------------------------------------------------------------

/// An open checkpoint being appended to. Every [`CheckpointWriter::append`]
/// writes one whole record and flushes it, so the file on disk always
/// ends with (at most) one partial record.
#[derive(Debug)]
pub struct CheckpointWriter {
    file: File,
}

impl CheckpointWriter {
    /// Creates (or truncates) `path` and writes the magic plus the
    /// header record.
    ///
    /// # Errors
    ///
    /// Surfaces I/O failures as [`SweepError::Checkpoint`].
    pub fn create(path: &Path, header: &CheckpointHeader) -> Result<Self, SweepError> {
        let mut file = File::create(path)
            .map_err(|e| io_err(&format!("cannot create checkpoint {}", path.display()), &e))?;
        file.write_all(MAGIC)
            .map_err(|e| io_err("cannot write checkpoint magic", &e))?;
        let mut w = CheckpointWriter { file };
        w.write_record(&encode_header(header))?;
        Ok(w)
    }

    /// Reopens an existing checkpoint for appending, first truncating
    /// it to `valid_len` (from [`load`]) so a partial trailing record
    /// from a kill never sits in front of new appends.
    ///
    /// # Errors
    ///
    /// Surfaces I/O failures as [`SweepError::Checkpoint`].
    pub fn append_to(path: &Path, valid_len: u64) -> Result<Self, SweepError> {
        let file = OpenOptions::new()
            .write(true)
            .open(path)
            .map_err(|e| io_err(&format!("cannot reopen checkpoint {}", path.display()), &e))?;
        file.set_len(valid_len)
            .map_err(|e| io_err("cannot drop the truncated checkpoint tail", &e))?;
        let mut file = file;
        file.seek(SeekFrom::End(0))
            .map_err(|e| io_err("cannot seek to the checkpoint tail", &e))?;
        Ok(CheckpointWriter { file })
    }

    /// Appends one cell record and flushes it to the OS.
    ///
    /// # Errors
    ///
    /// Surfaces I/O failures as [`SweepError::Checkpoint`] carrying the
    /// cell index.
    pub fn append(&mut self, record: &CellRecord) -> Result<(), SweepError> {
        self.write_record(&encode_cell(record)).map_err(
            |SweepError::Checkpoint { message, .. }| SweepError::Checkpoint {
                cell: Some(record.cell),
                message,
            },
        )
    }

    fn write_record(&mut self, payload: &[u8]) -> Result<(), SweepError> {
        self.file
            .write_all(&frame(payload))
            .and_then(|()| self.file.flush())
            .map_err(|e| io_err("cannot append checkpoint record", &e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("sweepck-unit");
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir.join(format!("{name}-{}.sweepck", std::process::id()))
    }

    fn header() -> CheckpointHeader {
        CheckpointHeader {
            grid: "ensemble".into(),
            preset: "golden".into(),
            base_seed: 42,
            n_cells: 4,
            rows_per_cell: 1,
        }
    }

    fn record(cell: u64) -> CellRecord {
        CellRecord {
            cell,
            seed: cell * 7 + 1,
            status: CellStatus::Done,
            outcomes: vec![CellOutcome {
                rate: 0.25 + cell as f64,
                decision_round: cell.is_multiple_of(2).then_some(cell + 3),
                rounds: cell + 10,
                converged: true,
                fingerprint: 0xABCD + cell,
            }],
        }
    }

    #[test]
    fn round_trips_header_and_records() {
        let path = tmp("roundtrip");
        let mut w = CheckpointWriter::create(&path, &header()).expect("create");
        for c in 0..4 {
            w.append(&record(c)).expect("append");
        }
        let loaded = load(&path).expect("load");
        assert_eq!(loaded.header, header());
        assert_eq!(loaded.records.len(), 4);
        assert!(!loaded.dropped_tail);
        for (c, r) in loaded.records.iter().enumerate() {
            assert!(r.bit_eq(&record(c as u64)), "cell {c} round-trips");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn nan_rates_round_trip_bit_exactly() {
        let path = tmp("nan");
        let mut w = CheckpointWriter::create(&path, &header()).expect("create");
        let mut r = record(0);
        r.outcomes[0].rate = f64::NAN;
        w.append(&r).expect("append");
        let loaded = load(&path).expect("load");
        assert_eq!(
            loaded.records[0].outcomes[0].rate.to_bits(),
            f64::NAN.to_bits()
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_tail_is_dropped_and_append_resumes_cleanly() {
        let path = tmp("tail");
        let mut w = CheckpointWriter::create(&path, &header()).expect("create");
        w.append(&record(0)).expect("append");
        w.append(&record(1)).expect("append");
        drop(w);
        let whole = std::fs::metadata(&path).expect("meta").len();
        // Chop into the middle of record 1 — a simulated mid-append kill.
        let f = OpenOptions::new().write(true).open(&path).expect("open");
        f.set_len(whole - 5).expect("truncate");
        drop(f);

        let loaded = load(&path).expect("tolerates the partial tail");
        assert!(loaded.dropped_tail);
        assert_eq!(loaded.records.len(), 1, "only the intact record survives");
        assert!(loaded.records[0].bit_eq(&record(0)));

        // Appending after truncation must not leave garbage in between.
        let mut w = CheckpointWriter::append_to(&path, loaded.valid_len).expect("reopen");
        w.append(&record(1)).expect("append");
        w.append(&record(2)).expect("append");
        drop(w);
        let loaded = load(&path).expect("load");
        assert!(!loaded.dropped_tail);
        assert_eq!(loaded.records.len(), 3);
        assert!(loaded.records[2].bit_eq(&record(2)));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupted_checksum_is_rejected_not_skipped() {
        let path = tmp("corrupt");
        let mut w = CheckpointWriter::create(&path, &header()).expect("create");
        w.append(&record(0)).expect("append");
        drop(w);
        // Flip one payload byte of the last record, leaving length and
        // checksum in place.
        let mut bytes = std::fs::read(&path).expect("read");
        let n = bytes.len();
        bytes[n - 20] ^= 0xFF;
        std::fs::write(&path, &bytes).expect("write");
        let err = load(&path).expect_err("corruption must not load");
        assert!(
            err.to_string().contains("checksum"),
            "clean checkpoint error, got: {err}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn non_checkpoint_files_are_rejected() {
        let path = tmp("magic");
        std::fs::write(&path, b"definitely not a checkpoint").expect("write");
        let err = load(&path).expect_err("bad magic");
        assert!(err.to_string().contains("bad magic"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn last_record_wins_per_cell() {
        let path = tmp("lastwins");
        let mut w = CheckpointWriter::create(&path, &header()).expect("create");
        let mut failed = record(2);
        failed.status = CellStatus::WorkerFailed;
        w.append(&failed).expect("append");
        w.append(&record(2)).expect("append");
        drop(w);
        let loaded = load(&path).expect("load");
        let slots = loaded.latest_by_cell().expect("in range");
        assert_eq!(slots.len(), 4);
        let latest = slots[2].as_ref().expect("cell 2 present");
        assert_eq!(
            latest.status,
            CellStatus::Done,
            "retry overrode the failure"
        );
        assert!(slots[0].is_none() && slots[1].is_none() && slots[3].is_none());
        std::fs::remove_file(&path).ok();
    }

    /// One row per awkward field value: NaN and `-0.0` rates, no
    /// decision.
    fn awkward_rows(n: usize) -> Vec<CellOutcome> {
        let rates = [1.0 / 3.0, f64::NAN, -0.0];
        (0..n)
            .map(|i| CellOutcome {
                rate: rates[i % rates.len()],
                decision_round: (i % 2 == 0).then_some(12 + i as u64),
                rounds: 12 + i as u64,
                converged: i % 2 == 0,
                fingerprint: 0xDEAD_BEEF + i as u64,
            })
            .collect()
    }

    #[test]
    fn done_reply_round_trips_bit_exactly_as_the_appended_record() {
        for n in [1, 2, 3] {
            let rows = awkward_rows(n);
            let line = encode_reply(9, 77, Ok(rows.clone()));
            assert!(
                line.bytes().all(|b| HEX.contains(&b)),
                "one lowercase hex line: {line}"
            );
            let got = decode_reply(&line, 9).expect("well formed").expect("done");
            let want = CellRecord {
                cell: 9,
                seed: 77,
                status: CellStatus::Done,
                outcomes: rows,
            };
            let back = CellRecord {
                outcomes: got,
                ..want.clone()
            };
            assert!(back.bit_eq(&want), "{n} rows cross bit-exactly");

            // The reply is the hex of the bytes `append` writes.
            let path = tmp(&format!("reply-{n}"));
            let mut w = CheckpointWriter::create(&path, &header()).expect("create");
            let start = std::fs::metadata(&path).expect("meta").len() as usize;
            w.append(&want).expect("append");
            drop(w);
            let bytes = std::fs::read(&path).expect("read");
            let hex: String = bytes[start..].iter().map(|b| format!("{b:02x}")).collect();
            assert_eq!(line, hex);
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn no_decision_reply_decodes_as_none_not_round_zero() {
        let row = |decision_round| CellOutcome {
            rate: 0.5,
            decision_round,
            rounds: 12,
            converged: false,
            fingerprint: 0xDEAD_BEEF,
        };
        let rows = vec![row(None), row(Some(0))];
        let line = encode_reply(0, 1, Ok(rows));
        let got = decode_reply(&line, 0).expect("well formed").expect("done");
        assert_eq!(got[0].decision_round, None);
        assert_eq!(got[1].decision_round, Some(0));
    }

    #[test]
    fn failure_reply_round_trips_its_message() {
        for message in ["", "panic: \"quoted\"\nsecond line\r\n\t\\ — ✓"] {
            let line = encode_reply(3, 0, Err(message.to_owned()));
            assert!(!line.contains('\n'), "one line");
            assert_eq!(
                decode_reply(&line, 3).expect("well formed"),
                Err(message.to_owned())
            );
        }
    }

    #[test]
    fn a_reply_naming_another_cell_is_rejected() {
        for reply in [Ok(awkward_rows(1)), Err("boom".to_owned())] {
            let line = encode_reply(4, 0, reply);
            let err = decode_reply(&line, 5).expect_err("asked for cell 5");
            assert!(err.to_string().contains("names cell 4"), "{err}");
        }
    }

    #[test]
    fn malformed_replies_are_rejected() {
        let line = encode_reply(1, 2, Ok(awkward_rows(1)));
        let bad = [
            String::new(),
            line[..line.len() - 1].to_owned(),
            line[..line.len() - 2].to_owned(),
            line.to_uppercase(),
            format!("{line}{line}"),
            format!("{line}00"),
            format!(" {line}"),
            "{\"cell\": 1, \"status\": \"done\"}".to_owned(),
        ];
        for b in &bad {
            assert!(decode_reply(b, 1).is_err(), "rejected: {b:?}");
        }
        // A well-framed record of another kind is no reply either.
        let header_line: String = frame(&encode_header(&header()))
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        assert!(decode_reply(&header_line, 1).is_err());
    }

    #[test]
    fn failure_records_are_rejected_in_a_file() {
        let path = tmp("failtag");
        let mut w = CheckpointWriter::create(&path, &header()).expect("create");
        w.append(&record(0)).expect("append");
        let mut failure = vec![TAG_FAILURE];
        put_u64(&mut failure, 1);
        put_str(&mut failure, "boom");
        w.write_record(&failure).expect("write");
        drop(w);
        let err = load(&path).expect_err("a pipe-only record in a file");
        assert!(err.to_string().contains("unknown record tag 0x03"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn out_of_range_cells_are_rejected() {
        let path = tmp("range");
        let mut w = CheckpointWriter::create(&path, &header()).expect("create");
        w.append(&record(99)).expect("append");
        drop(w);
        let loaded = load(&path).expect("load");
        let err = loaded.latest_by_cell().expect_err("cell 99 of 4");
        assert!(err.to_string().contains("out of range"), "{err}");
        std::fs::remove_file(&path).ok();
    }
}
