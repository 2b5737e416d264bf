//! Fixture-corpus tests for the source-layer rules: for every rule there is
//! one bad snippet (which must be caught, at the right line, with the right
//! rule id) and one good snippet (which must pass clean). The fixtures live
//! under `tests/fixtures/` as standalone files — they are never compiled,
//! only read as text.

use sf_lint::rules_source::{
    self, RULE_ALLOW_SYNTAX, RULE_HOT_PATH, RULE_LOCK, RULE_MUST_USE, RULE_PANIC,
};
use sf_lint::scan::SourceFile;
use sf_lint::Finding;

fn lint_fixture(name: &str) -> Vec<Finding> {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).expect("fixture readable");
    rules_source::lint_source(&SourceFile::parse(name, &text), false)
}

fn locations(findings: &[Finding], rule: &str) -> Vec<usize> {
    findings
        .iter()
        .filter(|f| f.rule == rule)
        .map(|f| f.line)
        .collect()
}

#[test]
fn panic_bad_is_caught_per_site() {
    let findings = lint_fixture("panic_bad.rs");
    assert_eq!(locations(&findings, RULE_PANIC), vec![2, 3, 8, 12]);
    assert!(findings.iter().all(|f| f.rule == RULE_PANIC));
}

#[test]
fn panic_good_is_clean() {
    assert_eq!(lint_fixture("panic_good.rs"), Vec::new());
}

#[test]
fn lock_bad_catches_both_shapes() {
    let findings = lint_fixture("lock_bad.rs");
    // Line 8: the PR 3 regression — guard born in the `while let` scrutinee.
    // Line 18: a `for` loop entered while the named guard from 17 is live.
    assert_eq!(locations(&findings, RULE_LOCK), vec![8, 18]);
    let held = findings
        .iter()
        .find(|f| f.line == 18)
        .expect("held-across-loop finding");
    assert!(held.message.contains("`guard`"), "{}", held.message);
    assert!(held.message.contains("line 17"), "{}", held.message);
}

#[test]
fn lock_good_is_clean() {
    assert_eq!(lint_fixture("lock_good.rs"), Vec::new());
}

#[test]
fn hot_path_bad_catches_alloc_and_unclosed_region() {
    let findings = lint_fixture("hot_path_bad.rs");
    assert_eq!(locations(&findings, RULE_HOT_PATH), vec![7, 15]);
    assert!(
        findings[0].message.contains("format!"),
        "{}",
        findings[0].message
    );
    assert!(
        findings[1].message.contains("unclosed"),
        "{}",
        findings[1].message
    );
}

#[test]
fn hot_path_good_is_clean() {
    assert_eq!(lint_fixture("hot_path_good.rs"), Vec::new());
}

#[test]
fn vector_loop_bad_catches_per_row_mask_and_lane_allocation() {
    // The chunked vector-row shape: a per-row heap-allocated take mask and a
    // lane copy are exactly the allocations the fence must reject.
    let findings = lint_fixture("vector_loop_bad.rs");
    assert_eq!(locations(&findings, RULE_HOT_PATH), vec![8, 12]);
    assert!(
        findings[0].message.contains("vec!"),
        "{}",
        findings[0].message
    );
    assert!(
        findings[1].message.contains(".to_vec()"),
        "{}",
        findings[1].message
    );
}

#[test]
fn vector_loop_good_is_clean() {
    // Stack take mask + pre-sliced lane windows + counters flushed outside
    // the fence: a clean fenced chunked loop.
    assert_eq!(lint_fixture("vector_loop_good.rs"), Vec::new());
}

#[test]
fn must_use_bad_catches_builder_and_verdict_enum() {
    let findings = lint_fixture("must_use_bad.rs");
    assert_eq!(locations(&findings, RULE_MUST_USE), vec![6, 12]);
    assert!(
        findings[0].message.contains("with_*"),
        "{}",
        findings[0].message
    );
    assert!(
        findings[1].message.contains("enum"),
        "{}",
        findings[1].message
    );
}

#[test]
fn must_use_good_is_clean() {
    assert_eq!(lint_fixture("must_use_good.rs"), Vec::new());
}

#[test]
fn allow_without_reason_is_flagged_and_voided() {
    let findings = lint_fixture("allow_bad.rs");
    assert_eq!(locations(&findings, RULE_ALLOW_SYNTAX), vec![2]);
    // The reasonless allow is ignored, so the panic it covered still fires.
    assert_eq!(locations(&findings, RULE_PANIC), vec![3]);
}

#[test]
fn allow_with_reason_is_clean() {
    assert_eq!(lint_fixture("allow_good.rs"), Vec::new());
}
