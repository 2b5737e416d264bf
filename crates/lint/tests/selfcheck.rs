//! Self-check: the real workspace must be lint-clean, and the `sf-lint`
//! binary must exit 0 on it (and nonzero, with rule ids and `file:line`
//! locations, on the bad fixture workspace). Running under `cargo test`
//! makes lint-cleanliness part of the tier-1 gate.

use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/lint is two levels below the root")
        .to_path_buf()
}

#[test]
fn real_workspace_is_lint_clean() {
    let findings = sf_lint::lint_workspace(&repo_root()).expect("workspace loads");
    assert_eq!(
        findings,
        Vec::new(),
        "the workspace must stay lint-clean; run `cargo run --release -p sf-lint` \
         and fix (or justify with an allow) every finding: {findings:#?}"
    );
}

#[test]
fn binary_exits_zero_on_the_real_workspace() {
    let output = Command::new(env!("CARGO_BIN_EXE_sf-lint"))
        .args(["--root".as_ref(), repo_root().as_os_str()])
        .output()
        .expect("binary runs");
    assert!(
        output.status.success(),
        "stdout: {}\nstderr: {}",
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr)
    );
}

#[test]
fn binary_exits_nonzero_on_the_bad_fixture() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/ws_bad");
    let output = Command::new(env!("CARGO_BIN_EXE_sf-lint"))
        .args(["--root".as_ref(), root.as_os_str()])
        .output()
        .expect("binary runs");
    assert_eq!(output.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        stdout.contains("Cargo.toml:10: [manifest-default-features]"),
        "{stdout}"
    );
    assert!(
        stdout.contains("crates/beta/src/lib.rs:7: [lock-across-loop]"),
        "{stdout}"
    );
    assert!(stdout.contains("4 finding(s)"), "{stdout}");
}
