//! CLI error-path contract for the farm binaries, matching the workspace
//! convention pinned in `crates/bench/tests/cli_errors.rs`: usage mistakes
//! exit 2 with a named one-line `error:` on stderr followed by the usage
//! text, and never a panic backtrace.

use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("cannot spawn {bin}: {e}"))
}

fn assert_cli_error(bin: &str, args: &[&str], names: &str) {
    let out = run(bin, args);
    let stderr = String::from_utf8_lossy(&out.stderr);
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
fn server_rejects_bad_arguments_with_named_errors() {
    let bin = env!("CARGO_BIN_EXE_ldsim-server");
    // Unknown flags must not be silently accepted.
    assert_cli_error(bin, &["--prot", "8080"], "--prot");
    // Flags missing their value at the end of argv.
    assert_cli_error(bin, &["--port"], "--port");
    assert_cli_error(bin, &["--cache"], "--cache");
    // Non-numeric / out-of-range values.
    assert_cli_error(bin, &["--port", "banana"], "--port");
    assert_cli_error(bin, &["--port", "99999"], "--port");
    assert_cli_error(bin, &["--shards", "0"], "--shards");
    assert_cli_error(bin, &["--shards", "8193"], "--shards");
    assert_cli_error(bin, &["--jobs", "0"], "--jobs");
    assert_cli_error(bin, &["--threads", "fast"], "--threads");
    assert_cli_error(bin, &["--max-inflight", "-3"], "--max-inflight");
    assert_cli_error(bin, &["--queue", "many"], "--queue");
}

#[test]
fn client_rejects_bad_arguments_with_named_errors() {
    let bin = env!("CARGO_BIN_EXE_ldsim-client");
    // Subcommand grammar.
    assert_cli_error(bin, &[], "subcommand");
    assert_cli_error(bin, &["pong"], "pong");
    assert_cli_error(bin, &["status"], "--job");
    assert_cli_error(bin, &["stream"], "--job");
    assert_cli_error(bin, &["status", "--job", "soon"], "--job");
    // Flag values.
    assert_cli_error(bin, &["ping", "--port"], "--port");
    assert_cli_error(bin, &["ping", "--port", "banana"], "--port");
    assert_cli_error(bin, &["ping", "--port", "0"], "--port");
    assert_cli_error(bin, &["submit", "--scale", "smol"], "--scale");
    assert_cli_error(bin, &["submit", "--seed", "eleven"], "--seed");
    assert_cli_error(bin, &["run", "--timeout", "later"], "--timeout");
    assert_cli_error(bin, &["compact", "--shards", "0"], "--shards");
    assert_cli_error(bin, &["compact", "--shards", "8193"], "--shards");
    // Unknown flags.
    assert_cli_error(bin, &["ping", "--hots", "box"], "--hots");
}

/// Runtime failures (as opposed to usage mistakes) exit 1 with a named
/// `error:` line and no usage dump — a dead server is not the caller
/// holding the tool wrong.
#[test]
fn client_runtime_failures_exit_one_without_usage() {
    let bin = env!("CARGO_BIN_EXE_ldsim-client");
    // Port 1 on loopback: connection refused, immediately.
    let out = run(bin, &["ping", "--port", "1"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.starts_with("error: "), "stderr: {stderr}");
    assert!(!stderr.contains("usage:"), "stderr: {stderr}");
    assert!(!stderr.contains("panicked at"), "stderr: {stderr}");
}

/// Offline compaction of a regular file (an old single-file
/// `cellcache.jsonl`, say) is a named runtime failure, and the file
/// survives byte for byte — a cell cache is always a shard directory.
#[test]
fn client_compact_refuses_a_regular_file_and_leaves_it_intact() {
    let bin = env!("CARGO_BIN_EXE_ldsim-client");
    let dir = std::env::temp_dir().join(format!("ldsim-compact-file-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("cellcache.jsonl");
    let bytes = b"{\"cellkey\":\"0000000000000001\",\"engine\":\"old\"}\n{\"cellkey\":\"00";
    std::fs::write(&file, bytes).unwrap();
    let out = run(bin, &["compact", "--cache", file.to_str().unwrap()]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    let after = std::fs::read(&file).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(
        stderr.starts_with("error: ") && stderr.contains("not a shard directory"),
        "stderr: {stderr}"
    );
    assert!(!stderr.contains("panicked at"), "stderr: {stderr}");
    assert_eq!(after, bytes, "the refused file must be left byte-identical");
}
