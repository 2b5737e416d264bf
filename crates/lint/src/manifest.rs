//! Manifest-layer rules over the workspace's `Cargo.toml` files.
//!
//! Two invariants, both of which have bitten this repo before (see
//! `docs/static-analysis.md`):
//!
//! 1. **`manifest-default-features`** — every internal workspace dependency
//!    entry (a `[workspace.dependencies]` entry whose `path` points into
//!    `crates/`) carries `default-features = false`. Cargo unifies features
//!    across the graph: a single entry that leaves defaults on silently
//!    re-enables telemetry for every `--no-default-features` consumer.
//!    Member manifests must reference internal crates through
//!    `workspace = true`, never a raw `path`, for the same reason.
//! 2. **`manifest-workspace-lints`** — every workspace member inherits
//!    `[workspace.lints]` via `[lints] workspace = true`.

use std::path::{Path, PathBuf};

use crate::diag::Finding;
use crate::toml_lite::{self, Doc, Value};

/// Rule id: internal workspace dep entry without `default-features = false`.
pub const RULE_DEFAULT_FEATURES: &str = "manifest-default-features";
/// Rule id: member manifest without `[lints] workspace = true`.
pub const RULE_WORKSPACE_LINTS: &str = "manifest-workspace-lints";

/// One parsed workspace member.
#[derive(Debug)]
pub struct Member {
    /// Package name (`sf-sdtw`, not the directory name).
    pub name: String,
    /// Directory relative to the workspace root (`crates/core`).
    pub dir: PathBuf,
    /// Manifest path relative to the workspace root.
    pub manifest: PathBuf,
    /// The parsed manifest.
    pub doc: Doc,
}

/// The parsed workspace: root manifest plus all members.
#[derive(Debug)]
pub struct Workspace {
    /// Absolute workspace root.
    pub root: PathBuf,
    /// The parsed root manifest.
    pub root_doc: Doc,
    /// All members (including the root package, `dir` = `"."`).
    pub members: Vec<Member>,
}

fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))
}

/// Loads and parses the workspace rooted at `root`.
pub fn load_workspace(root: &Path) -> Result<Workspace, String> {
    let root_doc = toml_lite::parse(&read(&root.join("Cargo.toml"))?);
    let mut member_dirs: Vec<PathBuf> = Vec::new();
    let patterns = root_doc
        .get("workspace", "members")
        .and_then(|e| e.value.as_array())
        .map(<[String]>::to_vec)
        .unwrap_or_default();
    for pattern in &patterns {
        if let Some(prefix) = pattern.strip_suffix("/*") {
            let Ok(entries) = std::fs::read_dir(root.join(prefix)) else {
                continue;
            };
            let mut dirs: Vec<PathBuf> = entries
                .flatten()
                .map(|e| e.path())
                .filter(|p| p.join("Cargo.toml").is_file())
                .collect();
            dirs.sort();
            for dir in dirs {
                if let Ok(rel) = dir.strip_prefix(root) {
                    member_dirs.push(rel.to_path_buf());
                }
            }
        } else {
            member_dirs.push(PathBuf::from(pattern));
        }
    }
    // The root package itself is a member when the root manifest has one.
    let mut members = Vec::new();
    if root_doc.table("package").is_some() {
        members.push(Member {
            name: root_doc
                .get("package", "name")
                .and_then(|e| e.value.as_str())
                .unwrap_or("<root>")
                .to_string(),
            dir: PathBuf::from("."),
            manifest: PathBuf::from("Cargo.toml"),
            doc: root_doc.clone(),
        });
    }
    for dir in member_dirs {
        let manifest = dir.join("Cargo.toml");
        let doc = toml_lite::parse(&read(&root.join(&manifest))?);
        let name = doc
            .get("package", "name")
            .and_then(|e| e.value.as_str())
            .unwrap_or("<unnamed>")
            .to_string();
        members.push(Member {
            name,
            dir,
            manifest,
            doc,
        });
    }
    Ok(Workspace {
        root: root.to_path_buf(),
        root_doc,
        members,
    })
}

impl Workspace {
    /// Members that live under `crates/` (the repo's own code, as opposed to
    /// the vendored registry shims).
    pub fn crate_members(&self) -> impl Iterator<Item = &Member> {
        self.members.iter().filter(|m| m.dir.starts_with("crates"))
    }
}

/// Runs all manifest rules on a loaded workspace.
pub fn lint_manifests(ws: &Workspace) -> Vec<Finding> {
    let mut findings = Vec::new();

    // Rule 1a: workspace.dependencies entries for internal crates.
    if let Some(table) = ws.root_doc.table("workspace.dependencies") {
        for entry in &table.entries {
            let internal = entry
                .value
                .get("path")
                .and_then(Value::as_str)
                .is_some_and(|p| p.starts_with("crates/"));
            if !internal {
                continue;
            }
            let off = entry.value.get("default-features").and_then(Value::as_bool) == Some(false);
            if !off {
                findings.push(Finding::new(
                    "Cargo.toml",
                    entry.line,
                    RULE_DEFAULT_FEATURES,
                    format!(
                        "workspace dependency `{}` does not set `default-features = false`",
                        entry.key
                    ),
                    "cargo feature unification re-enables the dep's default features \
                     (telemetry!) for every --no-default-features consumer; add \
                     `default-features = false` and let a top-level package set \
                     `sf-telemetry/enabled`",
                ));
            }
        }
    }

    for member in ws.crate_members() {
        // Rule 1b: member manifests must not bypass the workspace entry.
        if let Some(table) = member.doc.table("dependencies") {
            for entry in &table.entries {
                if entry.key.starts_with("sf-") && entry.value.get("path").is_some() {
                    findings.push(Finding::new(
                        &member.manifest,
                        entry.line,
                        RULE_DEFAULT_FEATURES,
                        format!(
                            "internal dependency `{}` uses a raw `path` instead of \
                             `workspace = true`",
                            entry.key
                        ),
                        "route internal deps through [workspace.dependencies] so the \
                         default-features policy applies in one place",
                    ));
                }
            }
        }
    }

    // Rule 2: every member (crates, vendor shims, and the root package)
    // inherits the workspace lint table.
    for member in &ws.members {
        let inherits = member
            .doc
            .get("lints", "workspace")
            .and_then(|e| e.value.as_bool())
            == Some(true);
        if !inherits {
            findings.push(Finding::new(
                &member.manifest,
                member.doc.table("package").map(|t| t.line).unwrap_or(1),
                RULE_WORKSPACE_LINTS,
                format!(
                    "member `{}` does not inherit [workspace.lints]",
                    member.name
                ),
                "add a `[lints]` table with `workspace = true` to the manifest",
            ));
        }
    }

    findings
}
