//! # pds-lint — static enforcement of the paper invariants
//!
//! The tutorial's embedded engine is defined by rules the compiler
//! cannot see: token-resident code must never panic (an unattended,
//! tamper-resistant token has no operator to restart it), must allocate
//! through the `pds-mcu` RAM budget (the ≤128 KB bound *is* the design
//! constraint), the fleet/global protocols must stay bit-for-bit
//! deterministic, and the trusted/untrusted layering must hold
//! structurally. `pds-lint` walks the workspace with its own
//! zero-dependency Rust front end and enforces those rules per crate,
//! with an inline waiver comment as the only escape hatch:
//!
//! ```text
//! // pds-lint: allow(panic.unwrap) — index bounds checked on the previous line
//! ```
//!
//! Each file is read once: [`scan`] splits it into a code and a comment
//! channel, [`lexer`] turns the code channel into one token stream, and
//! that stream feeds both the per-file rules ([`rules`]) and the item
//! parse ([`syntax`]) the call graph is built from. Waivers come from
//! the comment channel.
//!
//! On top of the per-file token rules sit two call-graph analyses (the
//! paper's central security argument, made checkable):
//!
//! - **`flow.plaintext_egress`** — taint propagation from declared
//!   plaintext sources (store reads, `decrypt*`, search results) to
//!   egress sinks (bus sends, cloud serving, wire encodings) that skips
//!   every `pds-crypto` sanitizer. The source/sink/sanitizer model is
//!   checked in at `crates/lint/flow.model`.
//! - **`panic.transitive`** — panicking constructs in *non*-panic-family
//!   crates that are reachable from the public API of the embedded
//!   crates (flash/mcu/embedded-db/search/core).
//!
//! Run it with `cargo run -p pds-lint`; it exits nonzero on any
//! unwaived finding, which is how `scripts/ci.sh` gates on it
//! (`--json` emits the machine-readable findings artifact). The
//! `lint.*` counters are exported through the `pds-obs` registry and
//! frozen into `BENCH_BASELINE.json`, so the finding and waiver counts
//! are themselves regression-checked.

pub mod flow;
pub mod graph;
pub mod lexer;
pub mod rules;
pub mod scan;
pub mod syntax;

pub use flow::FlowModel;
pub use rules::{crate_config, lint_source, CrateConfig, Finding, CRATES, RULE_IDS};

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use graph::{Workspace, WsFile};
use rules::Waiver;

/// Outcome of linting a whole workspace.
#[derive(Debug, Default)]
pub struct LintReport {
    /// Unwaived findings — each one fails the gate.
    pub findings: Vec<Finding>,
    /// Findings suppressed by a reasoned waiver comment.
    pub waived: Vec<Finding>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Functions in the intra-workspace call graph.
    pub graph_functions: usize,
    /// Resolved call edges in the graph.
    pub graph_edges: usize,
}

impl LintReport {
    /// True when the tree passes (no unwaived findings).
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// One-line summary for gate logs.
    pub fn summary(&self) -> String {
        format!(
            "pds-lint: {} finding(s), {} waiver(s), {} file(s) scanned, \
             {} fn(s) / {} edge(s) in the call graph",
            self.findings.len(),
            self.waived.len(),
            self.files_scanned,
            self.graph_functions,
            self.graph_edges
        )
    }

    /// Record `lint.*` metrics in the process-wide `pds-obs` registry.
    /// Per-family counters are always published (zeros included) so the
    /// baseline key set stays stable.
    pub fn publish(&self) {
        pds_obs::counter("lint.findings").add(self.findings.len() as u64);
        pds_obs::counter("lint.waivers").add(self.waived.len() as u64);
        pds_obs::counter("lint.files_scanned").add(self.files_scanned as u64);
        pds_obs::counter("lint.graph.functions").add(self.graph_functions as u64);
        pds_obs::counter("lint.graph.edges").add(self.graph_edges as u64);
        for family in ["panic", "det", "ram", "layer", "flow", "waiver"] {
            let in_family = |f: &Finding| f.rule.split('.').next() == Some(family);
            let found = self.findings.iter().filter(|f| in_family(f)).count();
            let waived = self.waived.iter().filter(|f| in_family(f)).count();
            pds_obs::counter(&format!("lint.findings.{family}")).add(found as u64);
            pds_obs::counter(&format!("lint.waivers.{family}")).add(waived as u64);
        }
    }

    /// Machine-readable report (the CI findings artifact). Schema:
    ///
    /// ```json
    /// {
    ///   "clean": bool,
    ///   "files_scanned": n, "graph_functions": n, "graph_edges": n,
    ///   "findings": [ {"file", "line", "rule", "message", "waived",
    ///                  "chain": ["step", …]}, … ],
    ///   "waived":   [ …same shape… ]
    /// }
    /// ```
    pub fn to_json(&self) -> String {
        fn finding_json(f: &Finding) -> String {
            let chain: Vec<String> = f.chain.iter().map(|s| json_str(s)).collect();
            format!(
                "{{\"file\":{},\"line\":{},\"rule\":{},\"message\":{},\"waived\":{},\"chain\":[{}]}}",
                json_str(&f.file),
                f.line,
                json_str(f.rule),
                json_str(&f.message),
                f.waived,
                chain.join(",")
            )
        }
        let findings: Vec<String> = self.findings.iter().map(finding_json).collect();
        let waived: Vec<String> = self.waived.iter().map(finding_json).collect();
        format!(
            "{{\n  \"clean\": {},\n  \"files_scanned\": {},\n  \"graph_functions\": {},\n  \
             \"graph_edges\": {},\n  \"findings\": [{}],\n  \"waived\": [{}]\n}}\n",
            self.is_clean(),
            self.files_scanned,
            self.graph_functions,
            self.graph_edges,
            findings.join(","),
            waived.join(",")
        )
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Lint every `crates/*/src/**.rs` file under `root` (the workspace
/// directory) with the shipped flow model. Files of crates missing from
/// the layering matrix are an error: a new crate must declare its rule
/// row before it can land.
pub fn run_workspace(root: &Path) -> io::Result<LintReport> {
    run_workspace_with_model(root, &FlowModel::workspace())
}

/// [`run_workspace`] with an explicit flow model (fixtures and tests).
pub fn run_workspace_with_model(root: &Path, model: &FlowModel) -> io::Result<LintReport> {
    let mut report = LintReport::default();
    let mut all: Vec<Finding> = Vec::new();
    let mut ws_files: Vec<WsFile> = Vec::new();
    let mut waivers_by_file: BTreeMap<String, Vec<Waiver>> = BTreeMap::new();

    for (line, text) in &model.errors {
        all.push(Finding {
            file: "crates/lint/flow.model".to_string(),
            line: *line,
            rule: "flow.plaintext_egress",
            message: format!("malformed model line: `{}`", text.trim()),
            waived: false,
            chain: Vec::new(),
        });
    }

    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    for dir in crate_dirs {
        let name = dir
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default()
            .to_string();
        let Some(cfg) = crate_config(&name) else {
            all.push(Finding {
                file: format!("crates/{name}"),
                line: 1,
                rule: "layer.dependency",
                message: format!(
                    "crate `{name}` has no row in the layering matrix — add it to \
                     crates/lint/src/rules.rs with its allowed dependencies and rule families"
                ),
                waived: false,
                chain: Vec::new(),
            });
            continue;
        };
        let src = dir.join("src");
        if !src.is_dir() {
            continue;
        }
        let mut files = Vec::new();
        collect_rs_files(&src, &mut files)?;
        files.sort();
        for file in files {
            let source = fs::read_to_string(&file)?;
            let rel = file
                .strip_prefix(root)
                .unwrap_or(&file)
                .to_string_lossy()
                .replace('\\', "/");
            report.files_scanned += 1;
            let lines = scan::scan(&source);
            let toks = lexer::lex(&lines);
            let (findings, waivers) = rules::lint_tokens(cfg, &rel, &lines, &toks);
            all.extend(findings);
            waivers_by_file.insert(rel.clone(), waivers);
            ws_files.push(WsFile {
                crate_dir: cfg.dir.to_string(),
                path: rel,
                syntax: syntax::parse_file(toks),
            });
        }
    }

    // ---- call-graph passes --------------------------------------
    let ws = Workspace::build(ws_files);
    let waived_at = |file: &str, line: usize, rule: &str| {
        waivers_by_file.get(file).is_some_and(|ws| {
            ws.iter()
                .any(|w| w.line == line && w.has_reason && w.rules.iter().any(|r| r == rule))
        })
    };

    for hit in flow::plaintext_egress(&ws, model) {
        let file = ws.files[hit.file].path.clone();
        let waived = waived_at(&file, hit.line, "flow.plaintext_egress");
        all.push(Finding {
            file,
            line: hit.line,
            rule: "flow.plaintext_egress",
            message: hit.message,
            waived,
            chain: hit.chain,
        });
    }

    for tp in graph::panic_transitive(&ws, &model.panic_kinds) {
        let file = ws.files[tp.file].path.clone();
        let waived = waived_at(&file, tp.line, "panic.transitive");
        all.push(Finding {
            file,
            line: tp.line,
            rule: "panic.transitive",
            message: format!(
                "{} ({} panic) reachable from embedded public API — a panic bricks the \
                 unattended token; return a typed error or waive with the proof",
                tp.desc,
                tp.kind.name()
            ),
            waived,
            chain: tp.chain,
        });
    }

    report.graph_functions = ws.fn_ids().len();
    report.graph_edges = ws
        .fn_ids()
        .iter()
        .map(|&id| ws.edges(id, &ws.build_env(id)).len())
        .sum();

    // ---- stale waivers ------------------------------------------
    // A reasoned waiver whose rule produced no finding (waived or not)
    // at its target line is dead weight: it silently licenses future
    // regressions. `waiver.unused` is itself unwaivable by design.
    let mut stale: Vec<Finding> = Vec::new();
    for (file, waivers) in &waivers_by_file {
        for w in waivers {
            if !w.has_reason {
                continue;
            }
            for rule in &w.rules {
                if !RULE_IDS.contains(&rule.as_str()) || rule.starts_with("waiver.") {
                    continue;
                }
                let fires = all
                    .iter()
                    .any(|f| &f.file == file && f.line == w.line && f.rule == *rule);
                if !fires {
                    stale.push(Finding {
                        file: file.clone(),
                        line: w.comment_line,
                        rule: "waiver.unused",
                        message: format!(
                            "waiver for `{rule}` no longer fires on line {} — remove it so the \
                             budget reflects real debt",
                            w.line
                        ),
                        waived: false,
                        chain: Vec::new(),
                    });
                }
            }
        }
    }
    all.extend(stale);

    for finding in all {
        if finding.waived {
            report.waived.push(finding);
        } else {
            report.findings.push(finding);
        }
    }
    report
        .findings
        .sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    report
        .waived
        .sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    Ok(report)
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().and_then(|e| e.to_str()) == Some("rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Walk upward from `start` to the directory whose `Cargo.toml` declares
/// `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut cur = Some(start.to_path_buf());
    while let Some(dir) = cur {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        cur = dir.parent().map(Path::to_path_buf);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workspace_root_is_found_from_crate_dir() {
        let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR"))).unwrap();
        assert!(root.join("crates").is_dir());
    }

    #[test]
    fn every_crate_dir_has_a_matrix_row() {
        let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR"))).unwrap();
        for entry in fs::read_dir(root.join("crates")).unwrap() {
            let p = entry.unwrap().path();
            if p.is_dir() {
                let name = p.file_name().unwrap().to_str().unwrap();
                assert!(
                    crate_config(name).is_some(),
                    "crate `{name}` missing from the layering matrix"
                );
            }
        }
    }

    #[test]
    fn shipped_model_parses_cleanly() {
        let model = FlowModel::workspace();
        assert!(model.errors.is_empty(), "model errors: {:?}", model.errors);
        assert!(model.sources.len() >= 10);
        assert!(model.sinks.len() >= 5);
        assert!(model.sanitizers.len() >= 5);
        assert!(!model.panic_kinds.is_empty());
    }

    #[test]
    fn json_escaping_is_sound() {
        let s = json_str("a\"b\\c\nd\te\u{1}");
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
    }
}
