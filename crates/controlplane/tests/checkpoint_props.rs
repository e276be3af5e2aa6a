//! Property tests for checkpoint robustness: round-trip bit-equality,
//! truncated-tail recovery at every byte offset, rejection of any
//! corrupted record or worker reply line, and resume-after-kill
//! bit-identity at randomized kill points.

use std::fs::OpenOptions;
use std::path::PathBuf;

use consensus_controlplane::checkpoint::{
    self, CellRecord, CellStatus, CheckpointHeader, CheckpointWriter,
};
use consensus_controlplane::coordinator::{self, RunConfig, SweepPlan};
use consensus_controlplane::metrics::Metrics;
use consensus_sweep::{cell_seed, CellOutcome};
use proptest::prelude::*;

fn tmp(name: &str, case: u64) -> PathBuf {
    let dir = std::env::temp_dir().join("sweepck-props");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(format!("{name}-{}-{case}.sweepck", std::process::id()))
}

fn header(n_cells: u64, rows: u32) -> CheckpointHeader {
    CheckpointHeader {
        grid: "ensemble".into(),
        preset: "prop".into(),
        base_seed: 0x00C0_FFEE,
        n_cells,
        rows_per_cell: rows,
    }
}

/// A deterministic, bit-diverse record for `(cell, rows)`: rates span
/// normals, subnormals, and NaN so bit-equality is actually exercised.
fn record(cell: u64, rows: u32) -> CellRecord {
    let outcomes = (0..rows)
        .map(|r| {
            let k = cell * 31 + u64::from(r);
            CellOutcome {
                rate: match k % 4 {
                    0 => f64::NAN,
                    1 => f64::from_bits(k.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                    2 => -0.0,
                    _ => 0.1 + k as f64 / 7.0,
                },
                decision_round: k.is_multiple_of(3).then_some(k + 5),
                rounds: k + 1,
                converged: !k.is_multiple_of(5),
                fingerprint: k.wrapping_mul(0xBF58_476D_1CE4_E5B9),
            }
        })
        .collect();
    CellRecord {
        cell,
        seed: cell_seed(0x00C0_FFEE, cell),
        status: if cell % 7 == 3 {
            CellStatus::WorkerFailed
        } else {
            CellStatus::Done
        },
        outcomes,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Write N records, reload, compare bit-for-bit.
    #[test]
    fn round_trip_is_bit_exact(n in 0u64..40, rows in 1u32..4, case in 0u64..u64::MAX) {
        let path = tmp("roundtrip", case);
        let mut w = CheckpointWriter::create(&path, &header(n.max(1), rows)).expect("create");
        for c in 0..n {
            w.append(&record(c, rows)).expect("append");
        }
        drop(w);
        let loaded = checkpoint::load(&path).expect("load");
        std::fs::remove_file(&path).ok();
        prop_assert_eq!(loaded.records.len() as u64, n);
        prop_assert!(!loaded.dropped_tail);
        for (c, r) in loaded.records.iter().enumerate() {
            prop_assert!(r.bit_eq(&record(c as u64, rows)), "cell {} differs", c);
        }
    }

    /// Truncate the file at *every possible* byte length: loading either
    /// fails cleanly (tail cut the header) or yields an intact prefix of
    /// the records, and appending after recovery heals the file.
    #[test]
    fn any_truncation_keeps_an_intact_prefix(cut_back in 1usize..200, case in 0u64..u64::MAX) {
        let n = 6u64;
        let path = tmp("trunc", case);
        let mut w = CheckpointWriter::create(&path, &header(n, 1)).expect("create");
        for c in 0..n {
            w.append(&record(c, 1)).expect("append");
        }
        drop(w);
        let whole = std::fs::metadata(&path).expect("meta").len() as usize;
        let cut = whole.saturating_sub(cut_back % whole);
        let f = OpenOptions::new().write(true).open(&path).expect("open");
        f.set_len(cut as u64).expect("truncate");
        drop(f);

        match checkpoint::load(&path) {
            Err(_) => {
                // The cut reached into the magic/header — nothing to
                // resume, and the error is clean (no panic).
            }
            Ok(loaded) => {
                // Whatever survived is an intact, in-order prefix.
                prop_assert!(loaded.valid_len <= cut as u64);
                for (c, r) in loaded.records.iter().enumerate() {
                    prop_assert!(r.bit_eq(&record(c as u64, 1)), "prefix record {} intact", c);
                }
                // Recovery: truncate to valid_len, re-append the rest.
                let k = loaded.records.len() as u64;
                let mut w = CheckpointWriter::append_to(&path, loaded.valid_len).expect("reopen");
                for c in k..n {
                    w.append(&record(c, 1)).expect("append");
                }
                drop(w);
                let healed = checkpoint::load(&path).expect("healed file loads");
                prop_assert!(!healed.dropped_tail);
                prop_assert_eq!(healed.records.len() as u64, n);
            }
        }
        std::fs::remove_file(&path).ok();
    }

    /// Flip any single payload byte of a complete record: load must
    /// reject with a checkpoint error (never a panic, never silence).
    #[test]
    fn any_payload_corruption_is_rejected(victim in 0usize..1000, case in 0u64..u64::MAX) {
        let path = tmp("flip", case);
        let mut w = CheckpointWriter::create(&path, &header(4, 1)).expect("create");
        for c in 0..4 {
            w.append(&record(c, 1)).expect("append");
        }
        drop(w);
        let mut bytes = std::fs::read(&path).expect("read");
        // Only corrupt past the magic; flipping the magic is the
        // (also rejected) bad-magic case.
        let lo = checkpoint::MAGIC.len();
        let idx = lo + victim % (bytes.len() - lo);
        bytes[idx] ^= 0x01;
        std::fs::write(&path, &bytes).expect("write");
        let result = checkpoint::load(&path);
        std::fs::remove_file(&path).ok();
        // A flip in a length prefix can mimic truncation (record "runs
        // past EOF"), which legitimately loads a shorter prefix; any
        // flip inside a payload or checksum must be *rejected*.
        if let Ok(loaded) = result {
            prop_assert!(
                loaded.dropped_tail,
                "a corrupt load may only succeed by treating the damage as a truncated tail"
            );
            for (c, r) in loaded.records.iter().enumerate() {
                prop_assert!(r.bit_eq(&record(c as u64, 1)), "surviving record {} intact", c);
            }
        }
    }

    /// Change any one hex digit of a worker's reply line to another:
    /// the line is rejected, never decoded to other outcomes.
    #[test]
    fn any_changed_hex_digit_rejects_the_reply(
        cell in 0u64..40,
        rows in 0u32..3,
        victim in 0usize..100_000,
        bump in 1u8..16,
    ) {
        // Zero rows stands for a cell error: the failure record.
        let result = if rows == 0 {
            Err(format!("cell {cell} panicked: \"boom\"\nat line {victim}"))
        } else {
            Ok(record(cell, rows).outcomes)
        };
        let line = checkpoint::encode_reply(cell, cell_seed(0x00C0_FFEE, cell), result);
        prop_assert!(checkpoint::decode_reply(&line, cell).is_ok());
        let mut bytes = line.into_bytes();
        let idx = victim % bytes.len();
        let hex = b"0123456789abcdef";
        let digit = hex.iter().position(|&h| h == bytes[idx]).expect("a hex digit");
        bytes[idx] = hex[(digit + usize::from(bump)) % 16];
        let changed = String::from_utf8(bytes).expect("still ASCII");
        prop_assert!(
            checkpoint::decode_reply(&changed, cell).is_err(),
            "digit {} changed, line still decoded",
            idx
        );
    }

    /// Kill the coordinator at a random point (deterministically, via
    /// stop_after), resume, and compare against an uninterrupted run:
    /// the merged outcome rows must be bit-identical.
    #[test]
    fn resume_after_kill_is_bit_identical(
        kill_at in 1u64..15,
        threads in 1usize..5,
        resume_threads in 1usize..5,
        case in 0u64..u64::MAX,
    ) {
        let n = 15usize;
        let plan = SweepPlan {
            grid: "ensemble".into(),
            preset: "prop".into(),
            base_seed: 0x00C0_FFEE,
            n_cells: n,
            rows_per_cell: 2,
        };
        let exec = |cell: usize| -> Result<Vec<CellOutcome>, String> {
            Ok(record(cell as u64, 2).outcomes)
        };
        let path = tmp("killpoint", case);
        std::fs::remove_file(&path).ok();

        let partial = coordinator::run(
            &plan,
            &RunConfig {
                threads,
                checkpoint: Some(path.clone()),
                stop_after: Some(kill_at),
                ..RunConfig::default()
            },
            &exec,
            &Metrics::new(),
        ).expect("partial");
        prop_assert!(partial.executed as u64 >= kill_at.min(n as u64));

        // Simulate the SIGKILL landing mid-append: chop a few bytes off
        // the tail before resuming.
        let len = std::fs::metadata(&path).expect("meta").len();
        if case.is_multiple_of(2) && len > 20 {
            let f = OpenOptions::new().write(true).open(&path).expect("open");
            f.set_len(len - 1 - case % 16).expect("truncate");
            drop(f);
        }

        let resumed = coordinator::run(
            &plan,
            &RunConfig {
                threads: resume_threads,
                checkpoint: Some(path.clone()),
                resume: true,
                ..RunConfig::default()
            },
            &exec,
            &Metrics::new(),
        ).expect("resume");
        std::fs::remove_file(&path).ok();
        prop_assert!(resumed.completed);

        let fresh = coordinator::run(&plan, &RunConfig::default(), &exec, &Metrics::new())
            .expect("fresh");
        let a = resumed.outcome_rows().expect("complete");
        let b = fresh.outcome_rows().expect("complete");
        prop_assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(&b).enumerate() {
            prop_assert_eq!(x.rate.to_bits(), y.rate.to_bits(), "row {} rate", i);
            prop_assert_eq!(x.decision_round, y.decision_round, "row {} decision", i);
            prop_assert_eq!(x.rounds, y.rounds, "row {} rounds", i);
            prop_assert_eq!(x.converged, y.converged, "row {} converged", i);
            prop_assert_eq!(x.fingerprint, y.fingerprint, "row {} fingerprint", i);
        }
    }
}
