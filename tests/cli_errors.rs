//! CLI error-path contract for `ldsim-cli`: bad input — an unknown
//! benchmark, scheduler or scale, a flag missing its value — exits 2 with a
//! named one-line `error:` and the usage line, never a panic backtrace.

use std::process::Command;

fn assert_cli_error(args: &[&str], names: &str) {
    let bin = env!("CARGO_BIN_EXE_ldsim-cli");
    let out = Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("cannot spawn {bin}: {e}"));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "ldsim-cli {args:?}: must exit via the usage path (code 2)\nstderr: {stderr}"
    );
    let first = stderr.lines().next().unwrap_or("");
    assert!(
        first.starts_with("error: ") && first.contains(names),
        "ldsim-cli {args:?}: first stderr line must name '{names}', got: {first}"
    );
    assert!(
        stderr.contains("usage:"),
        "{args:?}: no usage line\n{stderr}"
    );
    assert!(
        !stderr.contains("panicked at"),
        "{args:?}: raw panic leaked\n{stderr}"
    );
}

#[test]
fn ldsim_cli_rejects_bad_arguments_with_named_errors() {
    assert_cli_error(&["--bench", "nonsense", "--scale", "tiny"], "nonsense");
    assert_cli_error(&["--bench", "bfs", "--scheduler", "wgx"], "wgx");
    assert_cli_error(&["--bench", "bfs", "--scale", "Tiny"], "Tiny");
    assert_cli_error(&["--bench"], "--bench");
    assert_cli_error(&["--scale", "tiny"], "--bench");
}
