//! Fixture-corpus tests for the call-graph rules: every new rule has a
//! violating fixture and a sanitized/waived twin, asserted through the
//! library API and through the real `pds-lint` binary (exit code,
//! rendered chain, `--json`).

use std::path::{Path, PathBuf};
use std::process::Command;

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn run(name: &str) -> pds_lint::LintReport {
    pds_lint::run_workspace(&fixture(name)).expect("fixture walk")
}

#[test]
fn egress_bad_names_the_full_chain() {
    let report = run("ws_egress_bad");
    assert_eq!(report.findings.len(), 2, "{:?}", report.findings);
    let f = &report.findings[0];
    assert_eq!(f.rule, "flow.plaintext_egress");
    assert!(f.file.ends_with("crates/fleet/src/lib.rs"));
    assert!(f.message.contains("raw document bytes"), "{}", f.message);
    assert!(
        f.message.contains("store-and-forward bus payload"),
        "{}",
        f.message
    );
    let chain = f.chain.join(" → ");
    assert!(chain.contains("DocStore::get"), "{chain}");
    assert!(chain.contains("read_row"), "{chain}");
    assert!(chain.contains("MailboxBus::send"), "{chain}");

    // The cross-crate shape: the `global` helper crate reads the
    // contribution, the `fleet` driver mails the tuple's unsealed wire
    // form — the chain spans the crate seam.
    let f = &report.findings[1];
    assert_eq!(f.rule, "flow.plaintext_egress");
    assert!(f.file.ends_with("crates/fleet/src/lib.rs"));
    assert!(f.message.contains("per-group private contribution"));
    let chain = f.chain.join(" → ");
    assert!(
        chain.contains("Pds::group_contribution (crates/global/src/lib.rs"),
        "{chain}"
    );
    assert!(chain.contains("contributions_of"), "{chain}");
    assert!(chain.contains("MailboxBus::send"), "{chain}");
}

#[test]
fn egress_ok_twin_is_clean_with_one_waiver() {
    let report = run("ws_egress_ok");
    assert!(report.is_clean(), "{:?}", report.findings);
    // The sealed paths — `encrypt_det` in place, and `encrypt_prob`
    // behind `ProtocolTuple::seal` one crate away (a derived sanitizer)
    // — are silent; the released path is waived, not unseen.
    assert_eq!(report.waived.len(), 1, "{:?}", report.waived);
    assert_eq!(report.waived[0].rule, "flow.plaintext_egress");
}

#[test]
fn panic_bad_reaches_across_the_crate_boundary() {
    let report = run("ws_panic_bad");
    assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
    let f = &report.findings[0];
    assert_eq!(f.rule, "panic.transitive");
    assert!(f.file.ends_with("crates/crypto/src/lib.rs"));
    let chain = f.chain.join(" → ");
    assert!(chain.contains("checksum_first"), "{chain}");
    assert!(chain.contains("first_byte_or_panic"), "{chain}");
}

#[test]
fn panic_ok_twin_is_clean_with_one_waiver() {
    let report = run("ws_panic_ok");
    assert!(report.is_clean(), "{:?}", report.findings);
    assert_eq!(report.waived.len(), 1, "{:?}", report.waived);
    assert_eq!(report.waived[0].rule, "panic.transitive");
}

#[test]
fn stale_waiver_is_flagged() {
    let report = run("ws_stale");
    assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
    let f = &report.findings[0];
    assert_eq!(f.rule, "waiver.unused");
    assert!(f.message.contains("det.time"), "{}", f.message);
}

#[test]
fn a_test_only_file_is_test_code_past_a_long_module_doc() {
    // Its `#![cfg(test)]` at line 31, after the module doc; the helper's
    // asserts and unwraps are test code, not the panic-free crate's.
    let report = run("ws_test_only");
    assert!(report.is_clean(), "{:?}", report.findings);
    assert!(report.waived.is_empty(), "{:?}", report.waived);
}

// ---- the shipped binary -----------------------------------------------

fn run_bin(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_pds-lint"))
        .args(args)
        .output()
        .expect("spawn pds-lint")
}

#[test]
fn binary_exits_nonzero_on_seeded_violation_and_prints_the_chain() {
    let root = fixture("ws_egress_bad");
    let out = run_bin(&["--root", root.to_str().unwrap()]);
    assert!(!out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("flow.plaintext_egress"), "{stdout}");
    assert!(stdout.contains("DocStore::get"), "{stdout}");
    assert!(stdout.contains("read_row"), "{stdout}");
    assert!(stdout.contains("MailboxBus::send"), "{stdout}");
}

#[test]
fn binary_exits_zero_on_the_sanitized_twin() {
    let root = fixture("ws_egress_ok");
    let out = run_bin(&["--root", root.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn binary_json_report_is_well_formed() {
    let root = fixture("ws_egress_bad");
    let out = run_bin(&["--root", root.to_str().unwrap(), "--json"]);
    assert!(!out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.trim_start().starts_with('{'), "{stdout}");
    assert!(stdout.contains("\"clean\": false"), "{stdout}");
    assert!(
        stdout.contains("\"rule\":\"flow.plaintext_egress\""),
        "{stdout}"
    );
    assert!(stdout.contains("\"chain\":["), "{stdout}");
    // Minimal structural sanity: balanced braces and brackets.
    for (open, close) in [('{', '}'), ('[', ']')] {
        let o = stdout.matches(open).count();
        let c = stdout.matches(close).count();
        assert_eq!(o, c, "unbalanced {open}{close} in {stdout}");
    }
}
