//! Fixture-workspace tests for the manifest-layer rules, run through the full
//! `lint_workspace` entry point. `ws_bad/` reproduces two real regressions:
//! the PR 6 feature-unification hazard (a `[workspace.dependencies]` entry
//! that leaves default features on) and the PR 3 lock-across-loop bug in a
//! member source file. `ws_good/` must pass every rule clean, including a
//! member that depends on sf-telemetry and defines no `[features]` table.

use std::path::{Path, PathBuf};

fn fixture_root(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

#[test]
fn bad_workspace_findings_are_exact() {
    let findings = sf_lint::lint_workspace(&fixture_root("ws_bad")).expect("loadable");
    let summary: Vec<(&Path, usize, &str)> = findings
        .iter()
        .map(|f| (f.file.as_path(), f.line, f.rule))
        .collect();
    assert_eq!(
        summary,
        vec![
            // The PR 6 repro: `sf-beta = { path = "crates/beta" }` with
            // defaults left on.
            (Path::new("Cargo.toml"), 10, "manifest-default-features"),
            (
                Path::new("crates/beta/Cargo.toml"),
                3,
                "manifest-workspace-lints"
            ),
            // The PR 3 repro: guard bound in the `while let` scrutinee. The
            // same line also carries the `.unwrap()`.
            (Path::new("crates/beta/src/lib.rs"), 7, "lock-across-loop"),
            (Path::new("crates/beta/src/lib.rs"), 7, "panic"),
        ],
        "{findings:#?}"
    );
}

#[test]
fn good_workspace_is_clean() {
    let findings = sf_lint::lint_workspace(&fixture_root("ws_good")).expect("loadable");
    assert_eq!(findings, Vec::new(), "{findings:#?}");
}
