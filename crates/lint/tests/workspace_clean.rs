//! Self-check: the shipped tree must satisfy its own static-analysis
//! gate. Every panic site in the token-resident crates is either
//! converted to a typed error or carries a reasoned waiver; the
//! determinism and layering contracts hold workspace-wide.
//!
//! This is the test-suite twin of the CI step `cargo run -p pds-lint` —
//! it keeps `cargo test` sufficient to catch a regression locally.

use std::path::Path;

#[test]
fn shipped_workspace_is_lint_clean() {
    let root = pds_lint::find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("lint crate lives inside the workspace");
    let report = pds_lint::run_workspace(&root).expect("workspace walk");
    assert!(
        report.is_clean(),
        "unwaived findings:\n{}",
        report
            .findings
            .iter()
            .map(pds_lint::Finding::render)
            .collect::<Vec<_>>()
            .join("\n")
    );
    // The walk really covered the tree (guards against a silent
    // wrong-root walk reporting vacuous cleanliness).
    assert!(
        report.files_scanned > 50,
        "only {} files scanned — wrong root?",
        report.files_scanned
    );
    // Waivers stay a scarce resource: every one is deliberate, and this
    // ceiling forces a conversation (and a bump here) before adding more.
    // The `waiver.unused` rule keeps the count honest (a waiver whose
    // rule stopped firing is itself a finding), so the budget sits at
    // the true count, not a slack estimate.
    assert!(
        report.waived.len() <= 13,
        "waiver count {} crept past the budget — convert sites to typed errors instead",
        report.waived.len()
    );
    // The call-graph passes really ran (a parse regression that drops
    // every function would otherwise pass vacuously).
    assert!(
        report.graph_functions > 500 && report.graph_edges > 500,
        "call graph collapsed: {} fns / {} edges",
        report.graph_functions,
        report.graph_edges
    );
}
