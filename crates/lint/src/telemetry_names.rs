//! Telemetry-name consistency: every metric name registered in code must
//! appear in the naming section of `docs/observability.md`, and every name
//! the doc lists must exist in code.
//!
//! Code side: metric names are `pub const NAME: &str = "subsystem.metric"`
//! declarations in each instrumented crate's `telemetry.rs` module (the
//! registry model documented in `docs/observability.md`). Doc side:
//! backtick-quoted names inside the `## Metric naming` section.

use std::path::{Path, PathBuf};

use crate::diag::Finding;
use crate::scan::SourceFile;

/// Rule id for both directions of the consistency check.
pub const RULE_TELEMETRY_NAME: &str = "telemetry-name";

/// A metric name constant found in code.
#[derive(Debug, Clone)]
pub struct MetricConst {
    /// The metric name string (`subsystem.metric`).
    pub name: String,
    /// File declaring it.
    pub file: PathBuf,
    /// 1-based declaration line.
    pub line: usize,
}

/// `subsystem.metric[_unit]`: two or more non-empty `[a-z0-9_]` segments
/// joined by dots.
fn is_metric_name(token: &str) -> bool {
    let segments: Vec<&str> = token.split('.').collect();
    segments.len() >= 2
        && segments.iter().all(|s| {
            !s.is_empty()
                && s.chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
        })
}

/// Extracts metric-name constants from a preprocessed `telemetry.rs` file.
pub fn metric_consts(file: &SourceFile) -> Vec<MetricConst> {
    let mut out = Vec::new();
    for (i, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        if !(line.code.contains("pub const ") && line.code.contains(": &str")) {
            continue;
        }
        // String contents are blanked in `code`; read the literal from raw.
        let raw = &file.raw[i];
        let Some(open) = raw.find('"') else { continue };
        let Some(len) = raw[open + 1..].find('"') else {
            continue;
        };
        let name = &raw[open + 1..open + 1 + len];
        if is_metric_name(name) {
            out.push(MetricConst {
                name: name.to_string(),
                file: file.path.clone(),
                line: i + 1,
            });
        }
    }
    out
}

/// Backtick-quoted metric names in the `## Metric naming` section of the
/// observability chapter, with their 1-based lines.
fn doc_metric_names(doc: &str) -> Vec<(String, usize)> {
    let mut out = Vec::new();
    let mut in_section = false;
    for (i, line) in doc.lines().enumerate() {
        if let Some(title) = line.strip_prefix("## ") {
            in_section = title.trim().eq_ignore_ascii_case("metric naming");
            continue;
        }
        if !in_section {
            continue;
        }
        for span in line.split('`').skip(1).step_by(2) {
            if is_metric_name(span) {
                out.push((span.to_string(), i + 1));
            }
        }
    }
    out
}

/// Cross-checks code constants against the doc's naming section.
pub fn check(consts: &[MetricConst], doc_path: &Path, doc_text: &str) -> Vec<Finding> {
    let mut findings = Vec::new();
    let doc_names = doc_metric_names(doc_text);
    for c in consts {
        if !doc_names.iter().any(|(n, _)| *n == c.name) {
            findings.push(Finding::new(
                &c.file,
                c.line,
                RULE_TELEMETRY_NAME,
                format!(
                    "metric `{}` is registered in code but missing from {}'s \
                     `## Metric naming` section",
                    c.name,
                    doc_path.display()
                ),
                "add the metric to the naming catalog (name, kind, meaning)",
            ));
        }
    }
    let mut reported: Vec<&str> = Vec::new();
    for (name, line) in &doc_names {
        if consts.iter().any(|c| c.name == *name) || reported.contains(&name.as_str()) {
            continue;
        }
        reported.push(name);
        findings.push(Finding::new(
            doc_path,
            *line,
            RULE_TELEMETRY_NAME,
            format!("metric `{name}` is documented but not registered by any crate"),
            "remove the stale row, or add the `pub const` to the owning crate's \
             `telemetry` module",
        ));
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grammar_accepts_metric_names_only() {
        assert!(is_metric_name("sdtw.dp_cells"));
        assert!(is_metric_name("sdtw.stage.dp_ns"));
        assert!(!is_metric_name("push_chunk"));
        assert!(!is_metric_name("BENCH_batch.json"));
        assert!(!is_metric_name("crates/core/src/telemetry.rs"));
        assert!(!is_metric_name("a..b"));
    }

    #[test]
    fn consts_and_doc_cross_check() {
        let code = SourceFile::parse(
            "crates/x/src/telemetry.rs",
            "/// Doc.\npub const A: &str = \"x.only_in_code\";\npub const B: &str = \"x.in_both\";\n",
        );
        let consts = metric_consts(&code);
        let doc = "## Metric naming\n\n| `x.in_both` | counter |\n| `x.only_in_doc` | gauge |\n\n## Next\n`x.ignored_outside_section`\n";
        let findings = check(&consts, Path::new("docs/observability.md"), doc);
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert!(findings[0].message.contains("x.only_in_code"));
        assert!(findings[1].message.contains("x.only_in_doc"));
    }
}
