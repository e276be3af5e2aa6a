//! End-to-end tests of the `sweep` binary's CLI: clean usage errors
//! (one stderr line, exit code 2, never a backtrace) and the
//! control-plane paths — checkpoint/resume, spawned worker processes,
//! injected worker failures, and the metrics snapshot — each pinned
//! byte-identical to the classic in-process golden JSON and table.

use std::path::PathBuf;
use std::process::Command;

fn sweep() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_sweep"));
    // Point the coordinator at the test build of the worker explicitly;
    // the sibling-of-current-exe default also holds under cargo test,
    // but the env override keeps the tests independent of bin layout.
    cmd.env("SWEEP_WORKER", env!("CARGO_BIN_EXE_sweep-worker"));
    cmd
}

fn run(args: &[&str]) -> std::process::Output {
    sweep().args(args).output().expect("spawn the sweep bin")
}

fn tmpfile(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("sweep-cli-tests");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(format!("{}-{name}", std::process::id()))
}

#[test]
fn unknown_preset_is_a_clean_usage_error() {
    let out = run(&["--preset", "warp"]);
    assert_eq!(out.status.code(), Some(2), "usage errors exit 2");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("unknown ensemble preset `warp`"),
        "names the rejected value: {err}"
    );
    assert!(
        err.contains("golden|quick|full"),
        "lists the valid set: {err}"
    );
    assert!(
        !err.contains("panicked") && !err.contains("RUST_BACKTRACE"),
        "no panic, no backtrace: {err}"
    );
    assert!(out.stdout.is_empty(), "nothing on stdout");
}

#[test]
fn unknown_preset_error_names_the_selected_grid() {
    for grid in ["multidim", "dynamic_rates", "adversary_search"] {
        let out = run(&["--grid", grid, "--preset", "bogus"]);
        assert_eq!(out.status.code(), Some(2), "{grid}");
        assert_eq!(
            String::from_utf8_lossy(&out.stderr),
            format!("unknown {grid} preset `bogus` (use quick|golden|full)\n")
        );
    }
}

/// The value of `"key": …` in one `cells_detail` row of a report.
fn field<'r>(row: &'r str, key: &str) -> &'r str {
    let start = row.find(&format!("\"{key}\": ")).expect(key) + key.len() + 4;
    let rest = &row[start..];
    let rest = rest.strip_prefix('"').unwrap_or(rest);
    &rest[..rest.find(['"', ',']).expect("field end")]
}

#[test]
fn replay_prints_the_rows_of_the_json_report() {
    for (grid, rows_per_cell) in [
        ("ensemble", 1),
        ("multidim", 2),
        ("dynamic_rates", 1),
        ("adversary_search", 1),
    ] {
        let out = run(&["--grid", grid, "--golden", "--json"]);
        assert!(out.status.success(), "{grid}");
        let json = String::from_utf8_lossy(&out.stdout);
        let rows: Vec<&str> = json.lines().filter(|l| l.contains("\"index\": ")).collect();
        let n_cells = rows.len() / rows_per_cell;
        for cell in [0, 3, n_cells - 1] {
            let out = run(&["--grid", grid, "--golden", "--replay", &cell.to_string()]);
            assert!(out.status.success(), "{grid} cell {cell}");
            let stdout = String::from_utf8_lossy(&out.stdout);
            let lines: Vec<&str> = stdout.lines().collect();
            assert_eq!(lines.len(), rows_per_cell, "{grid} cell {cell}: {stdout}");
            for (line, row) in lines.iter().zip(&rows[cell * rows_per_cell..]) {
                let head = format!(
                    "cell {cell} [{}] seed {}: ",
                    field(row, "label"),
                    field(row, "seed")
                );
                assert!(line.starts_with(&head), "{grid}: {line} vs {row}");
                let tail = format!("fingerprint {}", field(row, "fingerprint"));
                assert!(line.ends_with(&tail), "{grid}: {line} vs {row}");
            }
        }
        // One past the last cell is a usage error naming the cell count.
        let out = run(&["--grid", grid, "--golden", "--replay", &n_cells.to_string()]);
        assert_eq!(out.status.code(), Some(2), "{grid}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(&format!("has {n_cells} cells")),
            "{grid}: {err}"
        );
        assert!(!err.contains("panicked"), "{grid}: {err}");
        assert!(out.stdout.is_empty(), "{grid}");
    }
}

#[test]
fn replay_with_json_prints_the_one_cell_report() {
    let ci = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../ci");
    for (grid, golden, rows_per_cell) in [
        ("ensemble", "golden_sweep.json", 1),
        ("multidim", "golden_multidim.json", 2),
        ("dynamic_rates", "golden_dynamic.json", 1),
        ("adversary_search", "golden_adversary.json", 1),
    ] {
        let golden = std::fs::read_to_string(ci.join(golden)).expect("golden file");
        let want: Vec<&str> = golden
            .lines()
            .filter(|l| l.contains("\"index\": "))
            .skip(3 * rows_per_cell)
            .take(rows_per_cell)
            .map(|l| l.strip_suffix(',').unwrap_or(l))
            .collect();
        let out = run(&["--grid", grid, "--golden", "--json", "--replay", "3"]);
        assert!(out.status.success(), "{grid}");
        let json = String::from_utf8(out.stdout).expect("utf8");
        // One document: one top-level object, no text rows around it.
        assert!(
            json.starts_with("{\n") && json.ends_with("\n}\n"),
            "{grid}: {json}"
        );
        assert_eq!(json.matches("\n}").count(), 1, "{grid}: {json}");
        assert!(
            json.contains(&format!("\"cells\": {rows_per_cell},")),
            "{grid}: {json}"
        );
        let got: Vec<&str> = json
            .lines()
            .filter(|l| l.contains("\"index\": "))
            .map(|l| l.strip_suffix(',').unwrap_or(l))
            .collect();
        assert_eq!(got, want, "{grid}: the replayed rows are the golden rows");
    }
}

#[test]
fn an_unspawnable_worker_fails_the_run_before_any_cell() {
    let missing = std::env::temp_dir().join(format!("sweep-no-worker-{}", std::process::id()));
    let ck = tmpfile("no-worker.sweepck");
    std::fs::remove_file(&ck).ok();
    let ck_s = ck.to_str().expect("utf8 temp path");
    for extra in [&[][..], &["--checkpoint", ck_s]] {
        let out = Command::new(env!("CARGO_BIN_EXE_sweep"))
            .env("SWEEP_WORKER", &missing)
            .args(["--golden", "--json", "--workers", "2"])
            .args(extra)
            .output()
            .expect("spawn the sweep bin");
        assert_eq!(out.status.code(), Some(1), "{extra:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(err.lines().count(), 1, "one line: {err}");
        assert!(
            err.contains(&missing.display().to_string()) && err.contains("os error"),
            "names the program and the OS error: {err}"
        );
        assert!(!err.contains("panicked"), "{err}");
        assert!(out.stdout.is_empty(), "no report: {extra:?}");
        assert!(!ck.exists(), "no checkpoint written");
    }
}

/// Asserts `out` is a usage error that names `flag`.
fn assert_usage_error(out: &std::process::Output, args: &[&str], flag: &str) {
    assert_eq!(out.status.code(), Some(2), "{args:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains(flag), "{args:?}: {err}");
    assert!(!err.contains("panicked"), "{args:?}: {err}");
    assert!(out.stdout.is_empty(), "{args:?}");
}

#[test]
fn resume_without_a_checkpoint_is_a_usage_error() {
    let args = ["--golden", "--json", "--resume"];
    let out = run(&args);
    assert_usage_error(&out, &args, "--resume");
    assert_usage_error(&out, &args, "--checkpoint");
}

#[test]
fn worker_fail_cells_without_workers_is_a_usage_error() {
    let args = ["--golden", "--json", "--worker-fail-cells", "3"];
    let out = run(&args);
    assert_usage_error(&out, &args, "--worker-fail-cells");
    assert_usage_error(&out, &args, "--workers");
}

#[test]
fn trace_out_with_workers_is_a_usage_error_and_writes_no_trace() {
    let trace = tmpfile("workers.jsonl");
    std::fs::remove_file(&trace).ok();
    let trace_s = trace.to_str().expect("utf8");
    let args = [
        "--golden",
        "--json",
        "--workers",
        "2",
        "--trace-out",
        trace_s,
    ];
    let out = run(&args);
    assert_usage_error(&out, &args, "--trace-out");
    assert_usage_error(&out, &args, "--workers");
    assert!(!trace.exists(), "no trace written");
}

#[test]
fn replay_with_an_output_flag_is_a_usage_error_and_writes_nothing() {
    for flag in ["--out", "--trace-out"] {
        let path = tmpfile(&format!("replay{flag}"));
        std::fs::remove_file(&path).ok();
        let args = [
            "--golden",
            "--replay",
            "3",
            flag,
            path.to_str().expect("utf8"),
        ];
        let out = run(&args);
        assert_usage_error(&out, &args, "--replay");
        assert_usage_error(&out, &args, flag);
        assert!(!path.exists(), "{flag}: no file written");
    }
}

#[test]
fn stop_after_without_a_checkpoint_is_a_usage_error_and_writes_nothing() {
    let json = tmpfile("stop-after.json");
    let metrics = tmpfile("stop-after-metrics.json");
    std::fs::remove_file(&json).ok();
    std::fs::remove_file(&metrics).ok();
    let args = [
        "--golden",
        "--stop-after",
        "3",
        "--out",
        json.to_str().expect("utf8"),
        "--metrics-out",
        metrics.to_str().expect("utf8"),
    ];
    let out = run(&args);
    assert_usage_error(&out, &args, "--stop-after");
    assert_usage_error(&out, &args, "--checkpoint");
    assert!(!json.exists() && !metrics.exists(), "no file written");
}

#[test]
fn trace_level_is_an_unknown_flag() {
    let trace = tmpfile("level.jsonl");
    let trace_s = trace.to_str().expect("utf8");
    let args = [
        "--golden",
        "--json",
        "--trace-out",
        trace_s,
        "--trace-level",
        "round",
    ];
    let out = run(&args);
    assert_usage_error(&out, &args, "unknown flag `--trace-level`");
    assert!(!trace.exists(), "no trace written");
}

#[test]
fn unwritable_output_paths_exit_one_naming_the_flag_and_the_path() {
    let missing = std::env::temp_dir().join(format!("sweep-cli-missing-{}", std::process::id()));
    let missing = missing.join("out.json");
    let path = missing.to_str().expect("utf8");
    for flag in ["--out", "--metrics-out", "--trace-out"] {
        let args = ["--golden", "--json", flag, path];
        let out = run(&args);
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(err.lines().count(), 1, "one line: {err}");
        assert!(
            err.contains(&format!("{flag} {path}: ")) && err.contains("os error"),
            "names the flag, the path and the OS error: {err}"
        );
        assert!(!err.contains("panicked"), "{args:?}: {err}");
    }
}

#[test]
fn malformed_flag_values_are_usage_errors_naming_the_flag() {
    for (args, flag) in [
        (&["--threads", "x"][..], "--threads"),
        (&["--seed", "-"], "--seed"),
        (&["--golden", "--replay", "abc"], "--replay"),
        (&["--workers", "0"], "--workers"),
        (&["--workers", "two"], "--workers"),
        (&["--stop-after", "q"], "--stop-after"),
        (&["--cell-delay-ms", "z"], "--cell-delay-ms"),
        (&["--worker-fail-cells", "a,b"], "--worker-fail-cells"),
        (&["--grid"], "--grid"),
        (&["--metrics-addr", "127.0.0.1:0"], "--metrics-addr"),
    ] {
        assert_usage_error(&run(args), args, flag);
    }
    for (args, flag) in [
        (&["--seed", "x"][..], "--seed"),
        (&["--cell-delay-ms", "z"], "--cell-delay-ms"),
        (&["--fail-cells", "1,b"], "--fail-cells"),
        (&["--preset"], "--preset"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_sweep-worker"))
            .args(args)
            .output()
            .expect("spawn the sweep-worker bin");
        assert_usage_error(&out, args, flag);
    }
}

#[test]
fn table_mode_stdout_is_the_same_on_both_paths() {
    let json = tmpfile("table.json");
    let ck = tmpfile("table.sweepck");
    std::fs::remove_file(&ck).ok();
    let (json_s, ck_s) = (json.to_str().expect("utf8"), ck.to_str().expect("utf8"));
    let classic = run(&["--golden", "--out", json_s]);
    assert!(classic.status.success(), "classic table run");
    let coordinated = run(&["--golden", "--checkpoint", ck_s, "--out", json_s]);
    assert!(coordinated.status.success(), "coordinated table run");
    let stdout = String::from_utf8_lossy(&classic.stdout);
    assert!(
        stdout.contains("of another grid: multidim, dynamic_rates, adversary_search)"),
        "the note names every other registered grid: {stdout}"
    );
    assert_eq!(stdout, String::from_utf8_lossy(&coordinated.stdout));
    std::fs::remove_file(&json).ok();
    std::fs::remove_file(&ck).ok();
}

#[test]
fn unknown_grid_still_exits_two_with_the_registry_hint() {
    let out = run(&["--grid", "bogus"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown grid `bogus`"), "{err}");
    assert!(!err.contains("panicked"), "{err}");
}

#[test]
fn named_preset_flag_runs_the_golden_grid() {
    let out = run(&["--preset", "golden", "--json"]);
    assert!(out.status.success(), "golden run must succeed");
    let json = String::from_utf8_lossy(&out.stdout);
    assert!(
        json.contains("\"name\": \"golden\""),
        "--preset golden selects the golden ensemble: {json}"
    );
}

/// The classic golden JSON, computed once per test that needs it.
fn classic_golden_json() -> Vec<u8> {
    let out = run(&["--golden", "--json"]);
    assert!(out.status.success(), "classic golden run");
    out.stdout
}

#[test]
fn interrupted_checkpoint_run_resumes_to_the_identical_golden_json() {
    let classic = classic_golden_json();
    let ck = tmpfile("resume.sweepck");
    std::fs::remove_file(&ck).ok();
    let ck_s = ck.to_str().expect("utf8 temp path");

    // Phase 1: stop mid-grid (the deterministic stand-in for SIGKILL —
    // the CI resume-integrity job does the real kill).
    let out = run(&[
        "--golden",
        "--json",
        "--checkpoint",
        ck_s,
        "--stop-after",
        "6",
    ]);
    assert!(out.status.success(), "interrupted run exits 0");
    assert!(out.stdout.is_empty(), "no JSON for an incomplete grid");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("rerun with --resume"),
        "points at resume: {err}"
    );
    assert!(ck.exists(), "checkpoint file persisted");

    // Phase 2: resume at a different thread count — byte-identical.
    let out = run(&[
        "--golden",
        "--json",
        "--checkpoint",
        ck_s,
        "--resume",
        "--threads",
        "3",
    ]);
    assert!(
        out.status.success(),
        "resume run: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(out.stdout, classic, "resumed JSON is byte-identical");

    // Phase 3: resuming a complete checkpoint is a no-op re-aggregation.
    let out = run(&["--golden", "--json", "--checkpoint", ck_s, "--resume"]);
    assert!(out.status.success(), "second resume");
    assert_eq!(out.stdout, classic, "no-op resume is byte-identical too");
    std::fs::remove_file(&ck).ok();
}

#[test]
fn worker_processes_produce_the_identical_golden_json() {
    let classic = classic_golden_json();
    let out = run(&["--golden", "--json", "--workers", "3"]);
    assert!(
        out.status.success(),
        "worker run: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        out.stdout, classic,
        "worker-computed JSON is byte-identical"
    );
}

#[test]
fn worker_processes_honour_the_cell_delay() {
    let classic = classic_golden_json();
    // 16 cells of at least 50 ms each, split over 2 workers.
    let start = std::time::Instant::now();
    let out = run(&[
        "--golden",
        "--json",
        "--workers",
        "2",
        "--cell-delay-ms",
        "50",
    ]);
    let elapsed = start.elapsed();
    assert!(out.status.success());
    assert_eq!(out.stdout, classic, "the delay never touches the rows");
    assert!(
        elapsed >= std::time::Duration::from_millis(16 * 50 / 2),
        "every worker cell slept its delay: the run took {elapsed:?}"
    );
}

#[test]
fn resuming_against_a_different_grid_is_a_clean_error() {
    let ck = tmpfile("mismatch.sweepck");
    std::fs::remove_file(&ck).ok();
    let ck_s = ck.to_str().expect("utf8 temp path");
    let out = run(&[
        "--golden",
        "--json",
        "--checkpoint",
        ck_s,
        "--stop-after",
        "2",
    ]);
    assert!(out.status.success());
    let out = run(&[
        "--grid",
        "dynamic_rates",
        "--quick",
        "--json",
        "--checkpoint",
        ck_s,
        "--resume",
    ]);
    assert_eq!(out.status.code(), Some(1), "mismatched resume exits 1");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("different sweep"), "names the mismatch: {err}");
    assert!(!err.contains("panicked"), "no backtrace: {err}");
    std::fs::remove_file(&ck).ok();
}

#[test]
fn injected_worker_failures_surface_as_failed_cells_not_a_crash() {
    let out = run(&[
        "--golden",
        "--json",
        "--workers",
        "2",
        "--worker-fail-cells",
        "3,7",
    ]);
    assert_eq!(out.status.code(), Some(1), "failed cells exit 1");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("cell 3 failed after retry") && err.contains("cell 7 failed after retry"),
        "both failed cells reported: {err}"
    );
    assert!(
        err.contains("injected failure"),
        "carries the worker error: {err}"
    );
    // The report still aggregates — the two poisoned cells count as
    // failures, the other 14 are bit-identical to the golden run.
    let json = String::from_utf8_lossy(&out.stdout);
    assert!(
        json.contains("\"failures\": 2"),
        "summary counts them: {json}"
    );
}

#[test]
fn metrics_snapshot_is_written_and_accounts_for_every_cell() {
    let metrics = tmpfile("metrics.json");
    std::fs::remove_file(&metrics).ok();
    let out = run(&[
        "--golden",
        "--json",
        "--metrics-out",
        metrics.to_str().expect("utf8 temp path"),
    ]);
    assert!(out.status.success());
    let snap = std::fs::read_to_string(&metrics).expect("metrics file written");
    assert!(snap.contains("\"cells_total\": 16"), "{snap}");
    assert!(snap.contains("\"cells_done\": 16"), "{snap}");
    assert!(snap.contains("\"cells_failed\": 0"), "{snap}");
    std::fs::remove_file(&metrics).ok();
}
