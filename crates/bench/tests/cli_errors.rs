//! CLI error-path contract for the hand-rolled argument parsers.
//!
//! Bad input — a flag missing its value, a non-numeric number, an unknown
//! flag or benchmark — must produce a *named* one-line error on stderr plus
//! the usage text and a nonzero exit, in the `repro` orchestrator, the
//! shared-harness binaries (exercised through `histreport`, which parses
//! argv before doing any work), `trace`, `opsweep` and `validate`. A raw
//! `expect` backtrace, or a silently accepted typo, fails this suite.

use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("cannot spawn {bin}: {e}"))
}

/// The error contract: nonzero exit, a named `error:` line mentioning the
/// offending flag, a usage line, and no panic backtrace.
fn assert_cli_error(bin: &str, args: &[&str], names: &str) {
    let out = run(bin, args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !out.status.success(),
        "{bin} {args:?}: must exit nonzero, got {:?}\nstderr: {stderr}",
        out.status
    );
    assert_eq!(
        out.status.code(),
        Some(2),
        "{bin} {args:?}: must exit via the usage path (code 2), not a panic \
         (101)\nstderr: {stderr}"
    );
    let first = stderr.lines().next().unwrap_or("");
    assert!(
        first.starts_with("error: ") && first.contains(names),
        "{bin} {args:?}: first stderr line must be a named error mentioning \
         '{names}', got: {first}"
    );
    assert!(
        stderr.contains("usage:"),
        "{bin} {args:?}: stderr must include the usage line\nstderr: {stderr}"
    );
    assert!(
        !stderr.contains("panicked at"),
        "{bin} {args:?}: raw panic leaked to the user\nstderr: {stderr}"
    );
}

#[test]
fn repro_rejects_bad_arguments_with_named_errors() {
    let bin = env!("CARGO_BIN_EXE_repro");
    // Value-less flag at the end of argv (the classic `--out` crash).
    assert_cli_error(bin, &["tiny", "--out"], "--out");
    assert_cli_error(bin, &["--seed"], "--seed");
    // Non-numeric values.
    assert_cli_error(bin, &["--seed", "eleven"], "--seed");
    assert_cli_error(bin, &["--jobs", "all"], "--jobs");
    assert_cli_error(bin, &["--jobs", "0"], "--jobs");
    assert_cli_error(bin, &["--threads", "fast"], "--threads");
    // Unknown flags must not be silently accepted.
    assert_cli_error(bin, &["--colde"], "--colde");
    // Contradictory flags route through the same path.
    assert_cli_error(bin, &["--cold", "--resume"], "--cold");
    // An --only list naming no figure would run nothing and "succeed".
    assert_cli_error(bin, &["--only", ""], "--only");
    assert_cli_error(bin, &["--only", ","], "--only");
}

#[test]
fn shared_harness_rejects_bad_arguments_with_named_errors() {
    let bin = env!("CARGO_BIN_EXE_histreport");
    assert_cli_error(bin, &["--seed"], "--seed");
    assert_cli_error(bin, &["--seed", "eleven"], "--seed");
    assert_cli_error(bin, &["--jobs", "-2"], "--jobs");
    assert_cli_error(bin, &["--threads", "0"], "--threads");
    assert_cli_error(bin, &["--threads"], "--threads");
    assert_cli_error(bin, &["smol"], "smol");
}

#[test]
fn trace_rejects_bad_arguments_with_named_errors() {
    let bin = env!("CARGO_BIN_EXE_trace");
    assert_cli_error(bin, &["--seed"], "--seed");
    assert_cli_error(bin, &["--seed", "eleven"], "--seed");
    assert_cli_error(bin, &["--scheduler", "wgx"], "--scheduler");
    assert_cli_error(bin, &["--threads", "nope"], "--threads");
    assert_cli_error(bin, &["--colde"], "--colde");
    assert_cli_error(bin, &["nonsense", "tiny"], "nonsense");
}

#[test]
fn opsweep_rejects_bad_arguments_with_named_errors() {
    let bin = env!("CARGO_BIN_EXE_opsweep");
    assert_cli_error(bin, &["nonsense"], "nonsense");
    assert_cli_error(bin, &["--colde"], "--colde");
}

#[test]
fn validate_rejects_bad_arguments_with_named_errors() {
    let bin = env!("CARGO_BIN_EXE_validate");
    assert_cli_error(bin, &["bogus"], "bogus");
    assert_cli_error(bin, &["tiny", "--out"], "--out");
    assert_cli_error(bin, &["Tiny"], "Tiny");
}

/// Run `bin` from a fresh temp directory: `trace` writes results/ relative
/// to the cwd, and these runs must keep the repo clean.
fn run_in_temp_cwd(bin: &str, args: &[&str]) -> Output {
    let dir = std::env::temp_dir().join(format!(
        "ldsim-cli-{}-{}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ));
    std::fs::create_dir_all(&dir).expect("create temp cwd");
    let out = Command::new(bin)
        .args(args)
        .current_dir(&dir)
        .output()
        .unwrap_or_else(|e| panic!("cannot spawn {bin}: {e}"));
    std::fs::remove_dir_all(&dir).ok();
    out
}

/// `trace` takes the scheduler names `ldsim-cli` does: one name table.
#[test]
fn trace_accepts_the_cli_scheduler_names() {
    let bin = env!("CARGO_BIN_EXE_trace");
    for name in ["zero-div", "fr-fcfs", "par-bs", "atlas", "wg-s", "sbwas-25"] {
        let out = run_in_temp_cwd(bin, &["bfs", "tiny", "--scheduler", name]);
        assert!(
            out.status.success(),
            "trace must accept {name}\nstderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

/// Asking for more partition threads than the machine has memory
/// partitions is not an error — the run proceeds at the capped width — but
/// it must say so, once, in the same voice as the invalid
/// `LDSIM_SIM_THREADS` warning. Silently dropping 93 of 99 requested
/// threads would read as a performance bug.
#[test]
fn oversubscribed_threads_warn_once_and_still_run() {
    let bin = env!("CARGO_BIN_EXE_trace");
    let out = run_in_temp_cwd(bin, &["bfs", "tiny", "--threads", "99"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "oversubscription is a warning, not an error\nstderr: {stderr}"
    );
    assert!(
        stderr.contains("99 simulation threads requested") && stderr.contains("capping at"),
        "stderr must carry the capping warning\nstderr: {stderr}"
    );
    assert_eq!(
        stderr.matches("capping at").count(),
        1,
        "the warning must fire once per process, not per run\nstderr: {stderr}"
    );
}
