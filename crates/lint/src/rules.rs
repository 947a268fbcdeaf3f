//! The rule framework: rule ids, per-crate rule sets, waiver parsing,
//! and the per-file lint pass.
//!
//! The per-file pass reads the file's token stream ([`crate::lexer`]),
//! the same one the call-graph passes parse; waivers come from the
//! scan's comment channel. Each rule is a short token pattern —
//! `Instant` `::` `now`, `vec` `!`, `.` `to_vec` `(` `)`, a crate name
//! as an identifier — and the panic family reads
//! [`crate::syntax::panic_sites`], the one table of panicking
//! constructs, which `panic.transitive` reads too.
//!
//! Each rule family protects one claim of the tutorial paper:
//!
//! | family   | paper claim                                             |
//! |----------|---------------------------------------------------------|
//! | `panic.*`| the secure token is unattended and tamper-resistant — a |
//! |          | panic is a bricked token, so embedded crates return     |
//! |          | typed errors instead                                    |
//! | `det.*`  | the fleet/global protocols are bit-for-bit reproducible |
//! |          | at any worker count (PR 3's determinism contract)       |
//! | `ram.*`  | the engine runs in ≤128 KB of RAM — allocation goes     |
//! |          | through the `pds-mcu` budget arena, never raw           |
//! | `layer.*`| trusted/untrusted zones stay structurally separated     |
//! |          | (NAND behind the log/alloc API, fleet above the token)  |
//!
//! The only escape hatch is an inline waiver comment:
//!
//! ```text
//! // pds-lint: allow(panic.unwrap) — length checked two lines above
//! ```
//!
//! placed on the offending line or alone on the line above it. The
//! reason is mandatory; a waiver without one is itself a finding.

use std::collections::BTreeMap;

use crate::lexer::{lex, Tok, TokKind};
use crate::scan::{scan, Line};
use crate::syntax::{panic_sites, PanicKind};

/// One rule violation (or a waived would-be violation).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule id, e.g. `panic.unwrap`.
    pub rule: &'static str,
    /// One-line rationale for this site.
    pub message: String,
    /// True when an inline waiver suppressed the finding.
    pub waived: bool,
    /// For call-graph rules (`flow.plaintext_egress`,
    /// `panic.transitive`): the full source→sink / entry→panic chain.
    pub chain: Vec<String>,
}

impl Finding {
    /// `file:line rule message` — the one-line gate-log form, with the
    /// call chain on continuation lines when present.
    pub fn render(&self) -> String {
        let mark = if self.waived { " (waived)" } else { "" };
        let mut out = format!(
            "{}:{} {}{} — {}",
            self.file, self.line, self.rule, mark, self.message
        );
        for (i, step) in self.chain.iter().enumerate() {
            let arrow = if i == 0 { "chain:" } else { "    →" };
            out.push_str(&format!("\n        {arrow} {step}"));
        }
        out
    }
}

/// Every enforceable rule id, used to validate waiver comments.
pub const RULE_IDS: &[&str] = &[
    "panic.unwrap",
    "panic.expect",
    "panic.macro",
    "panic.assert",
    "det.time",
    "det.hash_collections",
    "det.metric_wallclock",
    "ram.raw_alloc",
    "layer.dependency",
    "layer.module",
    "flow.plaintext_egress",
    "panic.transitive",
    "waiver.missing_reason",
    "waiver.unknown_rule",
    "waiver.unused",
];

/// Rule families a crate can opt into (layering always applies).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// No `unwrap`/`expect`/`panic!`-class macros/asserts outside tests.
    Panic,
    /// No wall-clock reads or hash-ordered collections.
    Determinism,
    /// No raw heap growth outside the RAM-budget arena.
    RamBudget,
}

/// Static per-crate configuration.
pub struct CrateConfig {
    /// Directory name under `crates/`.
    pub dir: &'static str,
    /// The crate's library name (`pds_flash`, …).
    pub lib: &'static str,
    /// Rule families enforced in this crate.
    pub families: &'static [Family],
    /// Files (suffix-matched against the workspace-relative path) where
    /// the [`Family::Determinism`] rules apply even though the crate as
    /// a whole does not opt in — for modules that feed the fleet's
    /// deterministic rollup paths from an otherwise-unconstrained crate
    /// (e.g. `pds-obs`'s mergeable delta snapshots).
    pub det_files: &'static [&'static str],
    /// `pds_*` library names this crate may reference (its own name is
    /// implicitly allowed). Mirrors the Cargo dependency graph so a new
    /// cross-layer `use` shows up here even after someone edits
    /// Cargo.toml.
    pub allowed_deps: &'static [&'static str],
}

/// Libraries every crate may use (the observability substrate is
/// deliberately ubiquitous).
const ALL: &[&str] = &[
    "pds_obs",
    "pds_flash",
    "pds_mcu",
    "pds_crypto",
    "pds_search",
    "pds_db",
    "pds_core",
    "pds_global",
    "pds_sync",
    "pds_fleet",
    "pds_lint",
    "pds_bench",
    "pds",
];

/// The workspace layering matrix. Order follows the dependency stack:
/// flash at the bottom, the `pds` umbrella and the bench/lint harnesses
/// on top.
pub const CRATES: &[CrateConfig] = &[
    CrateConfig {
        dir: "obs",
        lib: "pds_obs",
        families: &[],
        // The mergeable-delta module is a fleet rollup path: its merge
        // and encode orders must be BTreeMap-deterministic, wall-clock
        // free, even though the rest of pds-obs is unconstrained. The
        // wire cursor sits under every decoder of the deterministic
        // crates, and its sweep must replay from its seeds.
        det_files: &["obs/src/delta.rs", "obs/src/flight.rs", "obs/src/wire.rs"],
        allowed_deps: &[],
    },
    CrateConfig {
        dir: "flash",
        lib: "pds_flash",
        families: &[Family::Panic],
        // The change log is the fleet's causal history: its stamp
        // ordering and recovery cuts feed baseline-checked counters and
        // must replay identically on every machine. The log layer
        // decides which block a recovery keeps, relocates or frees, and
        // the chip model's boot scan decides which blocks are free.
        det_files: &[
            "flash/src/changelog.rs",
            "flash/src/blackbox.rs",
            "flash/src/log.rs",
            "flash/src/nand.rs",
        ],
        allowed_deps: &["pds_obs"],
    },
    CrateConfig {
        dir: "mcu",
        lib: "pds_mcu",
        families: &[Family::Panic, Family::RamBudget],
        det_files: &[],
        allowed_deps: &["pds_obs", "pds_flash"],
    },
    CrateConfig {
        dir: "crypto",
        lib: "pds_crypto",
        families: &[],
        det_files: &[],
        allowed_deps: &["pds_obs"],
    },
    CrateConfig {
        dir: "search",
        lib: "pds_search",
        families: &[Family::Panic],
        // Index checkpoints and recovery decide which pages are kept,
        // replayed and programmed across a power cycle; the counts they
        // produce are baseline-checked (E13). A docid is the document's
        // position in the store's log, so the store is in too.
        det_files: &["search/src/engine/recovery.rs", "search/src/docs.rs"],
        allowed_deps: &["pds_obs", "pds_flash", "pds_mcu", "pds_crypto"],
    },
    CrateConfig {
        dir: "embedded-db",
        lib: "pds_db",
        families: &[Family::Panic],
        // HLC stamps and MVCC version marks are replayed byte-for-byte
        // from the durable change log at recovery: any wall-clock or
        // hash-order dependence would fork the fleet's causal history.
        // The summarised log, its two Bloom fronts and the catalog
        // decide which flash page is programmed next: hash-order
        // iteration there would vary page addresses per process. A
        // rowid is the row's position in the table's log.
        det_files: &[
            "embedded-db/src/table.rs",
            "embedded-db/src/hlc.rs",
            "embedded-db/src/mvcc.rs",
            "embedded-db/src/summary_log.rs",
            "embedded-db/src/pbfilter.rs",
            "embedded-db/src/kv.rs",
            "embedded-db/src/query.rs",
        ],
        allowed_deps: &["pds_obs", "pds_flash", "pds_mcu", "pds_crypto"],
    },
    CrateConfig {
        dir: "core",
        lib: "pds_core",
        families: &[Family::Panic],
        det_files: &[],
        allowed_deps: &[
            "pds_obs",
            "pds_flash",
            "pds_mcu",
            "pds_crypto",
            "pds_search",
            "pds_db",
        ],
    },
    CrateConfig {
        dir: "global",
        lib: "pds_global",
        families: &[Family::Determinism],
        det_files: &[],
        allowed_deps: &["pds_obs", "pds_core", "pds_crypto", "pds_db", "pds_mcu"],
    },
    CrateConfig {
        dir: "sync",
        lib: "pds_sync",
        families: &[Family::Determinism],
        det_files: &[],
        allowed_deps: &["pds_obs", "pds_core", "pds_crypto"],
    },
    CrateConfig {
        dir: "fleet",
        lib: "pds_fleet",
        families: &[Family::Determinism],
        // The whole crate is already in the determinism family; the
        // scheduler is listed explicitly too so the residency model
        // stays covered even if the crate-wide opt-in is ever narrowed
        // (its LRU/eviction decisions feed baseline-checked counters).
        det_files: &["fleet/src/sched.rs"],
        allowed_deps: &[
            "pds_obs",
            "pds_crypto",
            "pds_core",
            "pds_global",
            "pds_sync",
        ],
    },
    CrateConfig {
        dir: "pds",
        lib: "pds",
        families: &[],
        det_files: &[],
        allowed_deps: ALL,
    },
    CrateConfig {
        dir: "bench",
        lib: "pds_bench",
        families: &[],
        det_files: &[],
        allowed_deps: ALL,
    },
    CrateConfig {
        dir: "lint",
        lib: "pds_lint",
        families: &[],
        det_files: &[],
        allowed_deps: &["pds_obs"],
    },
];

/// Look up the configuration for a crate directory name.
pub fn crate_config(dir: &str) -> Option<&'static CrateConfig> {
    CRATES.iter().find(|c| c.dir == dir)
}

/// True when crate `cfg` may reference the crate whose library name is
/// `lib` — itself or a declared dependency. The call-graph resolver uses
/// this to reject name-only candidate edges that the layering matrix
/// makes impossible.
pub fn dep_allowed(cfg: &CrateConfig, lib: &str) -> bool {
    lib == cfg.lib || cfg.allowed_deps.contains(&lib)
}

/// Module paths that may only be referenced inside their owning crate:
/// `(token, owning dir, rationale)`.
const SEALED_MODULES: &[(&str, &str, &str)] = &[
    (
        "nand",
        "flash",
        "raw NAND is sealed inside pds-flash: upper layers must go through the log/alloc API \
         so the chip rules (sequential program, erase-before-write) stay enforced in one place",
    ),
    (
        "fault",
        "flash",
        "fault injection is a pds-flash test facility; upper layers observe faults only as \
         FlashError values",
    ),
];

/// Determinism-family patterns: `(tokens, rule, rationale)`.
const DET_PATTERNS: &[(&[&str], &str, &str)] = &[
    (
        &["Instant", "::", "now"],
        "det.time",
        "wall-clock reads break the bit-for-bit determinism contract — keep them only in \
         stats reporting, behind a waiver",
    ),
    (
        &["SystemTime"],
        "det.time",
        "wall-clock reads break the bit-for-bit determinism contract — keep them only in \
         stats reporting, behind a waiver",
    ),
    (
        &["HashMap"],
        "det.hash_collections",
        "HashMap iteration order is seeded per-process — use BTreeMap or an index-ordered Vec",
    ),
    (
        &["HashSet"],
        "det.hash_collections",
        "HashSet iteration order is seeded per-process — use BTreeSet or an index-ordered Vec",
    ),
];

/// Metric-write calls for the baseline-hygiene rule.
const METRIC_WRITES: &[&str] = &["counter", "gauge"];

/// Wall-clock reads that must never feed a counter or gauge: those two
/// instrument kinds are compared *exactly* by `report --check`, so a
/// machine-time value in the expression a metric write heads smuggles
/// nondeterminism into the committed baseline. Histograms are exempt —
/// baselines compare only their observation counts, so timing may flow
/// into them freely.
const WALLCLOCK_TOKENS: &[&str] = &[
    "elapsed",
    "Instant",
    "SystemTime",
    "as_nanos",
    "as_micros",
    "as_millis",
];

/// RAM-budget patterns (raw growth that bypasses the accounted arena).
const RAM_PATTERNS: &[&[&str]] = &[
    &["Vec", "::", "new"],
    &["Vec", "::", "with_capacity"],
    &["vec", "!"],
    &["Box", "::", "new"],
    &["String", "::", "new"],
    &["String", "::", "with_capacity"],
    &["String", "::", "from"],
    &["format", "!"],
    &[".", "to_vec", "(", ")"],
    &[".", "to_string", "(", ")"],
    &[".", "to_owned", "(", ")"],
];

const RAM_RATIONALE: &str = "raw heap growth bypasses the ≤128 KB RAM budget — allocate through \
     the pds-mcu accounted containers (BoundedVec / TopN / RamBudget reservations)";

/// The panic-family rule and rationale for a site of
/// [`panic_sites`]; `None` for the kinds only `panic.transitive` reports.
fn panic_rule(kind: PanicKind, site: &str) -> Option<(&'static str, String)> {
    let typed = "a panic bricks the unattended token — return a typed error";
    Some(match kind {
        PanicKind::Unwrap => ("panic.unwrap", typed.to_string()),
        PanicKind::Expect => ("panic.expect", typed.to_string()),
        PanicKind::Macro => (
            "panic.macro",
            match site {
                "panic!" => {
                    "explicit panic in embedded code — surface a typed error instead".into()
                }
                "unreachable!" => "unreachable! is a latent panic — make the impossible state \
                                   unrepresentable or return an error"
                    .into(),
                _ => format!("{site} must not ship to the token"),
            },
        ),
        PanicKind::Assert => (
            "panic.assert",
            "a failed assert is a panic on the token — validate and return an error, or waive a \
             provably-constant precondition"
                .into(),
        ),
        PanicKind::Index | PanicKind::Arith => return None,
    })
}

/// A parsed waiver comment.
#[derive(Debug, Clone)]
pub struct Waiver {
    /// Line the waiver applies to (the waivered code line).
    pub line: usize,
    /// Line the waiver comment itself sits on.
    pub comment_line: usize,
    pub rules: Vec<String>,
    pub has_reason: bool,
}

/// Parse a waiver out of a comment, if present. The marker must open
/// the comment (after `//`/`//!`/`/*` markers) so that prose merely
/// *mentioning* the syntax is never read as a waiver.
fn parse_waiver(comment: &str) -> Option<(Vec<String>, bool)> {
    let anchored = comment
        .trim_start()
        .trim_start_matches(['/', '!', '*'])
        .trim_start();
    let rest = anchored.strip_prefix("pds-lint:")?.trim_start();
    let rest = rest.strip_prefix("allow(")?;
    let close = rest.find(')')?;
    let rules: Vec<String> = rest[..close]
        .split(',')
        .map(|r| r.trim().to_string())
        .filter(|r| !r.is_empty())
        .collect();
    let mut reason = rest[close + 1..].trim_start();
    // Accept `—`, `–`, `-`, `:` separators before the reason text.
    reason = reason.trim_start_matches(['—', '–', '-', ':', ' ']);
    Some((rules, reason.len() >= 3))
}

/// Collect waivers from scanned lines. A waiver on a line with code
/// applies to that line; a waiver alone on a comment line applies to
/// the next line that carries code.
fn collect_waivers(lines: &[Line], file: &str, findings: &mut Vec<Finding>) -> Vec<Waiver> {
    let mut out = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        let Some(comment) = &line.comment else {
            continue;
        };
        let Some((rules, has_reason)) = parse_waiver(comment) else {
            continue;
        };
        for r in &rules {
            if !RULE_IDS.contains(&r.as_str()) {
                findings.push(Finding {
                    file: file.to_string(),
                    line: i + 1,
                    rule: "waiver.unknown_rule",
                    message: format!("waiver names unknown rule `{r}` — see --list-rules"),
                    waived: false,
                    chain: Vec::new(),
                });
            }
        }
        if !has_reason {
            findings.push(Finding {
                file: file.to_string(),
                line: i + 1,
                rule: "waiver.missing_reason",
                message: "waiver without a written reason — every escape hatch must say why"
                    .to_string(),
                waived: false,
                chain: Vec::new(),
            });
            continue;
        }
        let own_line_has_code = !line.code.trim().is_empty();
        let target = if own_line_has_code {
            i + 1
        } else {
            // Apply to the next line that has code.
            lines
                .iter()
                .enumerate()
                .skip(i + 1)
                .find(|(_, l)| !l.code.trim().is_empty())
                .map_or(i + 1, |(j, _)| j + 1)
        };
        out.push(Waiver {
            line: target,
            comment_line: i + 1,
            rules,
            has_reason,
        });
    }
    out
}

/// Lint one file's source under `cfg`'s rule sets. `file` is the
/// workspace-relative path used in findings.
pub fn lint_source(cfg: &CrateConfig, file: &str, source: &str) -> Vec<Finding> {
    lint_source_full(cfg, file, source).0
}

/// Like [`lint_source`], but also returns the parsed waivers so the
/// workspace driver can apply them to call-graph findings and detect
/// stale waivers.
pub fn lint_source_full(
    cfg: &CrateConfig,
    file: &str,
    source: &str,
) -> (Vec<Finding>, Vec<Waiver>) {
    let lines = scan(source);
    lint_tokens(cfg, file, &lines, &lex(&lines))
}

/// [`lint_source_full`] over a file already scanned into `lines` and
/// lexed into `toks`: the waivers come from the comment channel, every
/// rule reads the tokens. One finding per line and construct, so two
/// `.unwrap()`s on one line are one finding.
pub(crate) fn lint_tokens(
    cfg: &CrateConfig,
    file: &str,
    lines: &[Line],
    toks: &[Tok],
) -> (Vec<Finding>, Vec<Waiver>) {
    let mut findings = Vec::new();
    let waivers = collect_waivers(lines, file, &mut findings);
    // (line, rule, rank in its table, construct) → message.
    let mut hits: BTreeMap<(usize, &'static str, usize, String), String> = BTreeMap::new();
    let mut hit = |line: usize, rule: &'static str, rank: usize, construct: &str, message| {
        hits.entry((line, rule, rank, construct.to_string()))
            .or_insert(message);
    };
    let det = cfg.families.contains(&Family::Determinism)
        || cfg.det_files.iter().any(|f| file.ends_with(f));
    let ram = cfg.families.contains(&Family::RamBudget);

    for (i, t) in toks.iter().enumerate() {
        let after_colons = i > 0 && toks[i - 1].is_punct("::");
        let before_colons = toks.get(i + 1).is_some_and(|n| n.is_punct("::"));
        // Layering applies to test code too — tests must not reach
        // through sealed boundaries either.
        if let Some(rank) = ALL.iter().position(|lib| t.is_ident(lib)) {
            let lib = ALL[rank];
            // The umbrella crate's name collides with `pds` as an
            // ordinary variable name and as core's own `pds` module;
            // only a path-root use of the crate (`pds::…`) counts.
            if !dep_allowed(cfg, lib) && (lib != "pds" || (before_colons && !after_colons)) {
                let message = format!(
                    "crate `{}` must not reference `{lib}` — outside its row of the layering \
                     matrix (crates/lint/src/rules.rs)",
                    cfg.lib
                );
                hit(t.line, "layer.dependency", rank, lib, message);
            }
        }
        for (rank, (module, owner, why)) in SEALED_MODULES.iter().enumerate() {
            if cfg.dir != *owner && t.is_ident(module) && (after_colons || before_colons) {
                let message = format!("`{module}` is sealed: {why}");
                hit(t.line, "layer.module", rank, module, message);
            }
        }

        if t.is_test {
            continue;
        }

        // Baseline hygiene applies to every crate, like layering: any
        // crate can publish metrics, and `report --check` compares
        // counters and gauges exactly, so a wall-clock read feeding one
        // breaks the committed baseline on the next machine. Reported at
        // the call's line however rustfmt splits the statement.
        if METRIC_WRITES.iter().any(|m| t.is_ident(m))
            && toks.get(i + 1).is_some_and(|n| n.is_punct("("))
        {
            let expr = &toks[i..expression_end(toks, i)];
            if let Some(w) = WALLCLOCK_TOKENS
                .iter()
                .find(|w| expr.iter().any(|e| e.is_ident(w)))
            {
                let message = format!(
                    "`{w}` feeding a counter/gauge — those are baseline-checked exactly \
                     (`report --check`); record wall-clock in a histogram instead"
                );
                hit(t.line, "det.metric_wallclock", 0, "", message);
            }
        }
        for (rank, (pattern, rule, why)) in DET_PATTERNS.iter().enumerate() {
            if det && spells(toks, i, pattern) {
                let shown = pattern.concat();
                hit(t.line, rule, rank, &shown, format!("`{shown}`: {why}"));
            }
        }
        for (rank, pattern) in RAM_PATTERNS.iter().enumerate() {
            if ram && spells(toks, i, pattern) {
                let shown = pattern.concat();
                let message = format!("`{shown}`: {RAM_RATIONALE}");
                hit(t.line, "ram.raw_alloc", rank, &shown, message);
            }
        }
    }

    if cfg.families.contains(&Family::Panic) {
        for (kind, line, site) in panic_sites(toks, 0, toks.len()) {
            if lines[line - 1].is_test {
                continue;
            }
            if let Some((rule, why)) = panic_rule(kind, &site) {
                let message = format!("`{site}` in panic-free crate: {why}");
                hit(line, rule, 0, &site, message);
            }
        }
    }

    for ((line, rule, _, _), message) in hits {
        let waived = waivers
            .iter()
            .any(|w| w.line == line && w.has_reason && w.rules.iter().any(|r| r == rule));
        findings.push(Finding {
            file: file.to_string(),
            line,
            rule,
            message,
            waived,
            chain: Vec::new(),
        });
    }
    (findings, waivers)
}

/// True when the tokens from `at` on are `pattern`, one element each.
fn spells(toks: &[Tok], at: usize, pattern: &[&str]) -> bool {
    pattern.iter().enumerate().all(|(k, p)| {
        toks.get(at + k)
            .is_some_and(|t| t.is_ident(p) || t.is_punct(p))
    })
}

/// End (exclusive) of the expression the call at `start` heads: the
/// first `;`, `,` or brace outside its parentheses and brackets, or the
/// bracket closing around it.
fn expression_end(toks: &[Tok], start: usize) -> usize {
    let mut depth = 0usize;
    for (j, t) in toks.iter().enumerate().skip(start) {
        if t.kind != TokKind::Punct {
            continue;
        }
        match t.text.as_str() {
            "(" | "[" => depth += 1,
            ")" | "]" if depth > 0 => depth -= 1,
            ")" | "]" => return j,
            ";" | "," | "{" | "}" if depth == 0 => return j,
            _ => {}
        }
    }
    toks.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::scan::scan;
    use std::fs;
    use std::path::Path;

    fn cfg(dir: &str) -> &'static CrateConfig {
        crate_config(dir).unwrap()
    }

    fn unwaived(f: &[Finding]) -> Vec<&Finding> {
        f.iter().filter(|x| !x.waived).collect()
    }

    /// Lint `src` as a file of crate `dir`, after checking that the
    /// rules agree with the reference line matcher on it.
    fn lint(dir: &str, file: &str, src: &str) -> Vec<Finding> {
        assert_same_as_reference(cfg(dir), file, src);
        lint_source(cfg(dir), file, src)
    }

    /// The rules and [`reference_lint_source`] report the same
    /// `(file, line, rule, waived, message)` in the report's order —
    /// stable by `(file, line, rule)` — and parse the same waivers. The
    /// one message difference allowed: the reference quotes a half token
    /// for `expect`, `.expect(` / `.expect_err(`.
    fn assert_same_as_reference(cfg: &CrateConfig, file: &str, source: &str) {
        type Row = (String, usize, &'static str, bool, String);
        fn rows(findings: &[Finding]) -> Vec<Row> {
            let mut rows: Vec<Row> = findings
                .iter()
                .map(|f| {
                    let message = f
                        .message
                        .replace("`.expect(`", "`.expect()`")
                        .replace("`.expect_err(`", "`.expect_err()`");
                    (f.file.clone(), f.line, f.rule, f.waived, message)
                })
                .collect();
            rows.sort_by(|a, b| (&a.0, a.1, a.2).cmp(&(&b.0, b.1, b.2)));
            rows
        }
        let (new, new_waivers) = lint_source_full(cfg, file, source);
        let (old, old_waivers) = reference_lint_source(cfg, file, source);
        assert_eq!(rows(&new), rows(&old), "{file}");
        assert_eq!(
            format!("{new_waivers:?}"),
            format!("{old_waivers:?}"),
            "{file}"
        );
    }

    #[test]
    fn rules_match_the_reference_on_the_workspace_and_the_fixtures() {
        let lint_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
        let mut roots = vec![crate::find_workspace_root(lint_dir).unwrap()];
        for entry in fs::read_dir(lint_dir.join("tests/fixtures")).unwrap() {
            roots.push(entry.unwrap().path());
        }
        let mut checked = 0;
        for root in &roots {
            for entry in fs::read_dir(root.join("crates")).unwrap() {
                let dir = entry.unwrap().path();
                let name = dir.file_name().and_then(|n| n.to_str()).unwrap_or("");
                let (Some(cfg), true) = (crate_config(name), dir.join("src").is_dir()) else {
                    continue;
                };
                let mut files = Vec::new();
                crate::collect_rs_files(&dir.join("src"), &mut files).unwrap();
                for file in files {
                    let rel = file.strip_prefix(root).unwrap().to_string_lossy();
                    let source = fs::read_to_string(&file).unwrap();
                    assert_same_as_reference(cfg, &rel.replace('\\', "/"), &source);
                    checked += 1;
                }
            }
        }
        assert!(checked > 100, "only {checked} files checked");
    }

    // -- the line matcher the token rules replaced, kept verbatim as the
    //    reference: `reference_lint_source` is its `lint_source_full` --

    /// Panic-family tokens: `(token, rule, rationale)`.
    const PANIC_TOKENS: &[(&str, &str, &str)] = &[
        (
            ".unwrap()",
            "panic.unwrap",
            "a panic bricks the unattended token — return a typed error",
        ),
        (
            ".unwrap_err()",
            "panic.unwrap",
            "a panic bricks the unattended token — return a typed error",
        ),
        (
            ".expect(",
            "panic.expect",
            "a panic bricks the unattended token — return a typed error",
        ),
        (
            ".expect_err(",
            "panic.expect",
            "a panic bricks the unattended token — return a typed error",
        ),
        (
            "panic!",
            "panic.macro",
            "explicit panic in embedded code — surface a typed error instead",
        ),
        (
            "unreachable!",
            "panic.macro",
            "unreachable! is a latent panic — make the impossible state unrepresentable or return an error",
        ),
        (
            "todo!",
            "panic.macro",
            "todo! must not ship to the token",
        ),
        (
            "unimplemented!",
            "panic.macro",
            "unimplemented! must not ship to the token",
        ),
        (
            "assert!",
            "panic.assert",
            "a failed assert is a panic on the token — validate and return an error, or waive a \
             provably-constant precondition",
        ),
        (
            "assert_eq!",
            "panic.assert",
            "a failed assert is a panic on the token — validate and return an error, or waive a \
             provably-constant precondition",
        ),
        (
            "assert_ne!",
            "panic.assert",
            "a failed assert is a panic on the token — validate and return an error, or waive a \
             provably-constant precondition",
        ),
    ];

    /// Determinism-family tokens.
    const DET_TOKENS: &[(&str, &str, &str)] = &[
        (
            "Instant::now",
            "det.time",
            "wall-clock reads break the bit-for-bit determinism contract — keep them only in \
             stats reporting, behind a waiver",
        ),
        (
            "SystemTime",
            "det.time",
            "wall-clock reads break the bit-for-bit determinism contract — keep them only in \
             stats reporting, behind a waiver",
        ),
        (
            "HashMap",
            "det.hash_collections",
            "HashMap iteration order is seeded per-process — use BTreeMap or an index-ordered Vec",
        ),
        (
            "HashSet",
            "det.hash_collections",
            "HashSet iteration order is seeded per-process — use BTreeSet or an index-ordered Vec",
        ),
    ];

    /// Metric-write call tokens for the baseline-hygiene rule.
    const METRIC_WRITE_TOKENS: &[&str] = &["counter(", "gauge("];

    /// Wall-clock reads that must never feed a counter or gauge: those two
    /// instrument kinds are compared *exactly* by `report --check`, so a
    /// machine-time value on the same line smuggles nondeterminism into the
    /// committed baseline. Histograms are exempt — baselines compare only
    /// their observation counts, so timing may flow into them freely.
    const WALLCLOCK_TOKENS: &[&str] = &[
        "elapsed",
        "Instant",
        "SystemTime",
        "as_nanos",
        "as_micros",
        "as_millis",
    ];

    /// RAM-budget tokens (raw growth that bypasses the accounted arena).
    const RAM_TOKENS: &[(&str, &str, &str)] = &[
        ("Vec::new", "ram.raw_alloc", ""),
        ("Vec::with_capacity", "ram.raw_alloc", ""),
        ("vec!", "ram.raw_alloc", ""),
        ("Box::new", "ram.raw_alloc", ""),
        ("String::new", "ram.raw_alloc", ""),
        ("String::with_capacity", "ram.raw_alloc", ""),
        ("String::from", "ram.raw_alloc", ""),
        ("format!", "ram.raw_alloc", ""),
        (".to_vec()", "ram.raw_alloc", ""),
        (".to_string()", "ram.raw_alloc", ""),
        (".to_owned()", "ram.raw_alloc", ""),
    ];

    const RAM_RATIONALE: &str =
        "raw heap growth bypasses the ≤128 KB RAM budget — allocate through \
         the pds-mcu accounted containers (BoundedVec / TopN / RamBudget reservations)";

    /// Find `needle` in `haystack` requiring that the match is not embedded
    /// in a larger identifier: the char before must not be an identifier
    /// char (when the needle starts with one), likewise after. Returns the
    /// byte offset of the first such match.
    pub fn find_token(haystack: &str, needle: &str) -> Option<usize> {
        let mut from = 0;
        while let Some(pos) = haystack[from..].find(needle) {
            let at = from + pos;
            let before_ok = if needle.starts_with(is_ident_char) {
                !haystack[..at].ends_with(is_ident_char)
            } else {
                true
            };
            let after = at + needle.len();
            let after_ok = if needle.ends_with(is_ident_char) {
                !haystack[after..].starts_with(is_ident_char)
            } else {
                true
            };
            if before_ok && after_ok {
                return Some(at);
            }
            from = at + needle.len();
        }
        None
    }

    fn is_ident_char(c: char) -> bool {
        c.is_alphanumeric() || c == '_'
    }

    /// Find `name::` used as a *path root* — not embedded in an identifier
    /// and not the tail of a longer path (`crate::name::…`), so a crate can
    /// have a module sharing a crate's name without tripping the matcher.
    pub fn find_path_root(haystack: &str, name: &str) -> Option<usize> {
        let needle = format!("{name}::");
        let mut from = 0;
        while let Some(pos) = haystack[from..].find(&needle) {
            let at = from + pos;
            let before = haystack[..at].chars().next_back();
            let ok = match before {
                Some(c) => !is_ident_char(c) && c != ':',
                None => true,
            };
            if ok {
                return Some(at);
            }
            from = at + needle.len();
        }
        None
    }

    /// Like [`lint_source`], but also returns the parsed waivers so the
    /// workspace driver can apply them to call-graph findings and detect
    /// stale waivers.
    pub fn reference_lint_source(
        cfg: &CrateConfig,
        file: &str,
        source: &str,
    ) -> (Vec<Finding>, Vec<Waiver>) {
        let lines = scan(source);
        let mut findings = Vec::new();
        let waivers = collect_waivers(&lines, file, &mut findings);
        let waived_for = |line: usize, rule: &str| {
            waivers
                .iter()
                .any(|w| w.line == line && w.has_reason && w.rules.iter().any(|r| r == rule))
        };

        let mut push = |line: usize, rule: &'static str, message: String| {
            let waived = waived_for(line, rule);
            findings.push(Finding {
                file: file.to_string(),
                line,
                rule,
                message,
                waived,
                chain: Vec::new(),
            });
        };

        for (i, line) in lines.iter().enumerate() {
            let n = i + 1;
            let code = &line.code;
            if code.trim().is_empty() {
                continue;
            }
            // Layering applies to test code too — tests must not reach
            // through sealed boundaries either.
            for lib in ALL {
                if *lib == cfg.lib || cfg.allowed_deps.contains(lib) {
                    continue;
                }
                // The umbrella crate's name collides with `pds` as an
                // ordinary variable name and as core's own `pds` module;
                // only a path-root use of the crate (`pds::…`) counts.
                let hit = if *lib == "pds" {
                    find_path_root(code, "pds")
                } else {
                    find_token(code, lib)
                };
                if hit.is_some() {
                    push(
                        n,
                        "layer.dependency",
                        format!(
                            "crate `{}` must not reference `{}` — outside its row of the layering \
                             matrix (crates/lint/src/rules.rs)",
                            cfg.lib, lib
                        ),
                    );
                }
            }
            for (token, owner, why) in SEALED_MODULES {
                if cfg.dir != *owner {
                    let sealed_use = format!("{token}::");
                    let sealed_path = format!("::{token}");
                    if find_token(code, &sealed_use).is_some()
                        || find_token(code, &sealed_path).is_some()
                    {
                        push(n, "layer.module", format!("`{token}` is sealed: {why}"));
                    }
                }
            }

            if line.is_test {
                continue;
            }

            // Baseline hygiene applies to every crate, like layering: any
            // crate can publish metrics, and `report --check` compares
            // counters and gauges exactly, so a wall-clock read feeding one
            // breaks the committed baseline on the next machine.
            if METRIC_WRITE_TOKENS
                .iter()
                .any(|t| find_token(code, t).is_some())
            {
                if let Some(w) = WALLCLOCK_TOKENS
                    .iter()
                    .find(|t| find_token(code, t).is_some())
                {
                    push(
                        n,
                        "det.metric_wallclock",
                        format!(
                            "`{w}` feeding a counter/gauge — those are baseline-checked exactly \
                             (`report --check`); record wall-clock in a histogram instead"
                        ),
                    );
                }
            }

            if cfg.families.contains(&Family::Panic) {
                for (token, rule, why) in PANIC_TOKENS {
                    if find_token(code, token).is_some() {
                        push(n, rule, format!("`{token}` in panic-free crate: {why}"));
                    }
                }
            }
            if cfg.families.contains(&Family::Determinism)
                || cfg.det_files.iter().any(|f| file.ends_with(f))
            {
                for (token, rule, why) in DET_TOKENS {
                    if find_token(code, token).is_some() {
                        push(n, rule, format!("`{token}`: {why}"));
                    }
                }
            }
            if cfg.families.contains(&Family::RamBudget) {
                for (token, rule, _) in RAM_TOKENS {
                    if find_token(code, token).is_some() {
                        push(n, rule, format!("`{token}`: {RAM_RATIONALE}"));
                    }
                }
            }
        }
        (findings, waivers)
    }

    // -- panic family --

    #[test]
    fn panic_positive_each_token() {
        let src = "fn f(x: Option<u8>) {\n    x.unwrap();\n    x.expect(\"no\");\n    panic!(\"boom\");\n    unreachable!();\n    assert!(true);\n}\n";
        let f = lint("flash", "t.rs", src);
        let rules: Vec<&str> = f.iter().map(|x| x.rule).collect();
        assert!(rules.contains(&"panic.unwrap"));
        assert!(rules.contains(&"panic.expect"));
        assert!(rules.contains(&"panic.macro"));
        assert!(rules.contains(&"panic.assert"));
        assert_eq!(unwaived(&f).len(), f.len());
    }

    #[test]
    fn panic_negative_clean_code_and_debug_assert() {
        let src = "fn f(x: Option<u8>) -> Result<u8, ()> {\n    debug_assert!(x.is_some());\n    x.ok_or(())\n}\n";
        let f = lint("flash", "t.rs", src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn panic_macros_match_whole_names_only() {
        let src = "fn f(x: bool) {\n    assert!(x);\n    my_assert!(x);\n    debug_assert!(x);\n    debug_assert_eq!(x, true);\n}\n";
        let f = lint("flash", "t.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!((f[0].line, f[0].rule), (2, "panic.assert"));
    }

    #[test]
    fn panic_call_split_from_its_parens() {
        let src = "fn f(x: Option<u8>) {\n    x.unwrap ();\n}\n";
        let f = lint_source(cfg("flash"), "t.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!((f[0].line, f[0].rule), (2, "panic.unwrap"));
        assert!(f[0].message.starts_with("`.unwrap()` in panic-free crate"));
    }

    #[test]
    fn panic_in_test_mod_is_exempt() {
        let src = "fn ok() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { None::<u8>.unwrap(); }\n}\n";
        let f = lint("embedded-db", "t.rs", src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn panic_not_enforced_outside_family() {
        let src = "fn f(x: Option<u8>) { x.unwrap(); }\n";
        let f = lint("global", "t.rs", src);
        assert!(f.is_empty(), "{f:?}");
    }

    // -- determinism family --

    #[test]
    fn determinism_positive() {
        let src =
            "use std::collections::HashMap;\nfn f() { let _t = std::time::Instant::now(); }\n";
        let f = lint("fleet", "t.rs", src);
        let rules: Vec<&str> = f.iter().map(|x| x.rule).collect();
        assert!(rules.contains(&"det.hash_collections"));
        assert!(rules.contains(&"det.time"));
    }

    #[test]
    fn determinism_applies_to_listed_files_in_unconstrained_crates() {
        // pds-obs as a crate has no determinism family, but the delta
        // module is a fleet rollup path and is listed in det_files.
        let src =
            "use std::collections::HashMap;\nfn f() { let _t = std::time::Instant::now(); }\n";
        let f = lint("obs", "obs/src/delta.rs", src);
        let rules: Vec<&str> = f.iter().map(|x| x.rule).collect();
        assert!(rules.contains(&"det.hash_collections"), "{f:?}");
        assert!(rules.contains(&"det.time"), "{f:?}");
        // The same source elsewhere in the crate stays unconstrained.
        assert!(lint("obs", "obs/src/metrics.rs", src).is_empty());
    }

    #[test]
    fn determinism_negative_btree() {
        let src = "use std::collections::BTreeMap;\nfn f() { let _m: BTreeMap<u8, u8> = BTreeMap::new(); }\n";
        let f = lint("fleet", "t.rs", src);
        assert!(f.is_empty(), "{f:?}");
    }

    // -- baseline hygiene (all crates) --

    #[test]
    fn metric_wallclock_positive_counter_and_gauge() {
        let src = "fn f(t: std::time::Instant) {\n    \
             pds_obs::counter(\"x.ticks\").add(t.elapsed().as_millis() as u64);\n    \
             pds_obs::gauge(\"x.last\").set(t.elapsed().as_nanos() as u64);\n}\n";
        // Applies even in crates with no determinism family (bench).
        let f = lint("bench", "t.rs", src);
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().all(|x| x.rule == "det.metric_wallclock"));
    }

    #[test]
    fn metric_wallclock_negative_histogram_and_causal_counters() {
        // Histograms may absorb timing (baselines compare counts only),
        // and counters fed causal values are the intended pattern.
        let src = "fn f(t: std::time::Instant, ticks: u64) {\n    \
             pds_obs::histogram(\"x.op_ns\").observe(t.elapsed().as_nanos() as u64);\n    \
             pds_obs::counter(\"x.ticks\").add(ticks);\n}\n";
        let f = lint("bench", "t.rs", src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn metric_wallclock_waivable() {
        let src = "fn f(t: std::time::Instant) {\n    \
             // pds-lint: allow(det.metric_wallclock) — demo gauge, not baseline-checked\n    \
             pds_obs::gauge(\"x.demo\").set(t.elapsed().as_millis() as u64);\n}\n";
        let f = lint("bench", "t.rs", src);
        assert_eq!(f.len(), 1);
        assert!(f[0].waived);
    }

    #[test]
    fn metric_wallclock_spans_the_statement_rustfmt_splits() {
        // Reported at the call's line, so a waiver above the call holds.
        let src = "fn f(t: std::time::Instant) {\n    \
             pds_obs::counter(\"x.ticks\")\n        \
             .add(t.elapsed().as_millis() as u64);\n    \
             // pds-lint: allow(det.metric_wallclock) — demo gauge, not baseline-checked\n    \
             pds_obs::gauge(\"x.demo\")\n        \
             .set(t.elapsed().as_millis() as u64);\n}\n";
        let f = lint_source(cfg("bench"), "t.rs", src);
        let got: Vec<(usize, &str, bool)> = f.iter().map(|x| (x.line, x.rule, x.waived)).collect();
        assert_eq!(
            got,
            [
                (2, "det.metric_wallclock", false),
                (5, "det.metric_wallclock", true)
            ]
        );
        assert!(f[0].message.starts_with("`elapsed` feeding"), "{f:?}");
        // The statement ends at its `;`: a wall-clock read after it feeds
        // nothing.
        let src = "fn f(t: std::time::Instant) {\n    \
             pds_obs::counter(\"x.ticks\").add(1); let _ms = t.elapsed();\n}\n";
        assert!(lint_source(cfg("bench"), "t.rs", src).is_empty());
    }

    // -- ram family --

    #[test]
    fn ram_positive() {
        let src =
            "fn f() { let _v: Vec<u8> = Vec::with_capacity(4096); let _b = Box::new(7u8); }\n";
        let f = lint("mcu", "t.rs", src);
        assert!(f.iter().all(|x| x.rule == "ram.raw_alloc"));
        assert_eq!(f.len(), 2);
    }

    #[test]
    fn ram_path_split_by_spaces() {
        let src = "fn f() {\n    let _v: Vec<u8> = Vec :: new();\n}\n";
        let f = lint_source(cfg("mcu"), "t.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!((f[0].line, f[0].rule), (2, "ram.raw_alloc"));
        assert!(f[0].message.starts_with("`Vec::new`: "));
    }

    #[test]
    fn ram_negative_bounded() {
        let src = "fn f(b: &RamBudget) -> Result<(), RamError> {\n    let mut v: BoundedVec<u8> = BoundedVec::new(b)?;\n    v.push(1)\n}\n";
        let f = lint("mcu", "t.rs", src);
        assert!(f.is_empty(), "{f:?}");
    }

    // -- layering family --

    #[test]
    fn layering_dependency_positive() {
        let src = "use pds_fleet::TokenPool;\n";
        let f = lint("embedded-db", "t.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "layer.dependency");
    }

    #[test]
    fn layering_sealed_module_positive() {
        let src = "use pds_flash::nand::NandChip;\n";
        let f = lint("embedded-db", "t.rs", src);
        assert!(f.iter().any(|x| x.rule == "layer.module"));
    }

    #[test]
    fn layering_sealed_module_is_a_path_segment_not_a_prefix() {
        let src = "fn f() {\n    let c = nand_2k(64);\n    let d: nand::Chip = c;\n}\n";
        let f = lint("embedded-db", "t.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!((f[0].line, f[0].rule), (3, "layer.module"));
    }

    #[test]
    fn layering_negative_allowed_edge() {
        let src = "use pds_flash::{Flash, LogWriter};\nuse pds_mcu::RamBudget;\n";
        let f = lint("embedded-db", "t.rs", src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn layering_applies_even_in_tests() {
        let src = "#[cfg(test)]\nmod tests {\n    use pds_fleet::TokenPool;\n}\n";
        let f = lint("flash", "t.rs", src);
        assert!(f.iter().any(|x| x.rule == "layer.dependency"));
    }

    #[test]
    fn umbrella_crate_name_does_not_false_positive() {
        // `pds_obs` must not be read as a use of the `pds` umbrella.
        let src = "use pds_obs::metrics;\n";
        let f = lint("flash", "t.rs", src);
        assert!(f.is_empty(), "{f:?}");
    }

    // -- waivers --

    #[test]
    fn trailing_waiver_with_reason_suppresses() {
        let src = "fn f(x: Option<u8>) {\n    x.unwrap(); // pds-lint: allow(panic.unwrap) — x assigned Some two lines up\n}\n";
        let f = lint("flash", "t.rs", src);
        assert_eq!(f.len(), 1);
        assert!(f[0].waived);
    }

    #[test]
    fn standalone_waiver_applies_to_next_code_line() {
        let src = "fn f(x: Option<u8>) {\n    // pds-lint: allow(panic.unwrap) — checked by caller\n    x.unwrap();\n}\n";
        let f = lint("flash", "t.rs", src);
        assert_eq!(f.len(), 1);
        assert!(f[0].waived);
    }

    #[test]
    fn waiver_without_reason_is_rejected() {
        let src = "fn f(x: Option<u8>) {\n    x.unwrap(); // pds-lint: allow(panic.unwrap)\n}\n";
        let f = lint("flash", "t.rs", src);
        let rules: Vec<&str> = unwaived(&f).iter().map(|x| x.rule).collect();
        assert!(rules.contains(&"waiver.missing_reason"));
        assert!(
            rules.contains(&"panic.unwrap"),
            "a reasonless waiver must not suppress"
        );
    }

    #[test]
    fn waiver_unknown_rule_is_rejected() {
        let src = "fn f() {} // pds-lint: allow(panic.everything) — nope\n";
        let f = lint("flash", "t.rs", src);
        assert!(f.iter().any(|x| x.rule == "waiver.unknown_rule"));
    }

    #[test]
    fn waiver_covers_only_named_rule() {
        let src = "fn f(x: Option<u8>) {\n    x.unwrap(); assert!(true); // pds-lint: allow(panic.unwrap) — only the unwrap\n}\n";
        let f = lint("flash", "t.rs", src);
        let open: Vec<&Finding> = unwaived(&f);
        assert_eq!(open.len(), 1);
        assert_eq!(open[0].rule, "panic.assert");
    }

    #[test]
    fn waiver_multiple_rules_one_comment() {
        let src = "fn f(x: Option<u8>) {\n    assert!(x.unwrap() > 0); // pds-lint: allow(panic.unwrap, panic.assert) — startup self-check, constant input\n}\n";
        let f = lint("flash", "t.rs", src);
        assert!(f.iter().all(|x| x.waived), "{f:?}");
    }

    #[test]
    fn tokens_in_strings_and_comments_do_not_fire() {
        let src = "fn f() -> &'static str {\n    // .unwrap() would panic here\n    \"call .unwrap() and HashMap::new()\"\n}\n";
        assert!(lint("flash", "t.rs", src).is_empty());
        assert!(lint("fleet", "t.rs", src).is_empty());
    }
}
