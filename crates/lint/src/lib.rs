//! `sf-lint` — workspace-native static analysis for the SquiggleFilter repo.
//!
//! Mechanizes invariants that previously lived only in review comments and
//! prose docs: lock discipline in worker pools, hot-path purity in the DP
//! kernels, panic freedom in library code, cargo feature plumbing for the
//! telemetry chain, the metric naming catalog, and `#[must_use]` on builder
//! and verdict types. Zero external dependencies by construction — the
//! manifest layer uses a hand-rolled TOML subset reader and the source layer
//! a line/token scanner, not a full parser.
//!
//! Run it as `cargo run --release -p sf-lint`; the process exits nonzero on
//! any finding. The rule catalog, the `// sf-lint: allow(<rule>) -- <reason>`
//! escape hatch, and instructions for adding a rule live in
//! `docs/static-analysis.md`.

pub mod diag;
pub mod manifest;
pub mod rules_source;
pub mod scan;
pub mod telemetry_names;
pub mod toml_lite;

use std::path::{Path, PathBuf};

pub use diag::Finding;
use scan::SourceFile;

/// Recursively collects `.rs` files under `dir`, sorted for determinism.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Lints the workspace rooted at `root`; findings use root-relative paths.
///
/// # Errors
///
/// Returns a message when the root manifest or a member manifest cannot be
/// read — structural problems, as opposed to findings.
pub fn lint_workspace(root: &Path) -> Result<Vec<Finding>, String> {
    let ws = manifest::load_workspace(root)?;
    let mut findings = manifest::lint_manifests(&ws);

    let mut consts: Vec<telemetry_names::MetricConst> = Vec::new();
    for member in ws.crate_members() {
        let src_dir = root.join(&member.dir).join("src");
        let mut files = Vec::new();
        rust_files(&src_dir, &mut files);
        for path in files {
            let rel = path.strip_prefix(root).unwrap_or(&path).to_path_buf();
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            let source = SourceFile::parse(&rel, &text);
            let is_binary = rel.components().any(|c| c.as_os_str() == "bin")
                || rel.file_name().is_some_and(|f| f == "main.rs");
            findings.extend(rules_source::lint_source(&source, is_binary));
            if rel.file_name().is_some_and(|f| f == "telemetry.rs") {
                consts.extend(telemetry_names::metric_consts(&source));
            }
        }
    }

    let doc_rel = PathBuf::from("docs/observability.md");
    match std::fs::read_to_string(root.join(&doc_rel)) {
        Ok(doc_text) => {
            findings.extend(telemetry_names::check(&consts, &doc_rel, &doc_text));
        }
        Err(_) if consts.is_empty() => {}
        Err(e) => {
            return Err(format!("{}: {e}", doc_rel.display()));
        }
    }

    diag::sort_findings(&mut findings);
    Ok(findings)
}
