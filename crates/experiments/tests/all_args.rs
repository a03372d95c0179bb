//! The `all` binary's command line: an unknown argument or a `--json`
//! without a value is a usage error (exit 2) that runs nothing and writes
//! no report.

use std::path::PathBuf;
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_all");

/// Runs `all` with `args` in an empty directory and asserts a usage
/// error naming `needle` that left the directory empty.
fn assert_usage_error(tag: &str, args: &[&str], needle: &str) {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("swapram-all-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let out = Command::new(BIN).args(args).current_dir(&dir).output().expect("all runs");
    let err = String::from_utf8_lossy(&out.stderr).into_owned();
    let written: Vec<_> = std::fs::read_dir(&dir)
        .expect("read scratch dir")
        .flatten()
        .map(|e| e.file_name())
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(out.status.code(), Some(2), "{args:?} is a usage error:\n{err}");
    assert!(err.contains(needle), "{args:?}: expected {needle:?} in:\n{err}");
    assert!(err.contains("usage: all"), "{args:?} prints the usage line:\n{err}");
    assert!(out.stdout.is_empty(), "{args:?} runs no experiment");
    assert!(written.is_empty(), "{args:?} writes nothing, found {written:?}");
}

#[test]
fn unknown_argument_is_a_usage_error() {
    assert_usage_error("unknown", &["--fats"], "unknown argument \"--fats\"");
    assert_usage_error(
        "positional",
        &["--fast", "report.json"],
        "unknown argument \"report.json\"",
    );
}

#[test]
fn json_without_a_value_is_a_usage_error() {
    assert_usage_error("json-last", &["--json"], "--json needs a value");
    assert_usage_error("json-flag", &["--json", "--fast"], "--json needs a value");
}
