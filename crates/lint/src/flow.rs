//! Source → sink taint propagation over the workspace call graph.
//!
//! The model file (`flow.model`, checked in next to the crate) declares
//! three pattern sets:
//!
//! - **sources** — calls whose result is personal plaintext (store
//!   reads, `decrypt*`, search results, subscription deltas);
//! - **sinks** — calls whose arguments leave the token boundary (bus
//!   sends, cloud serving, wire encodings);
//! - **sanitizers** — `pds-crypto` calls that make data safe to egress.
//!
//! The pass runs statement-level intraprocedural taint per function
//! (bindings, `for` patterns, `break`-with-value, tail expressions),
//! plus interprocedural summaries to a fixpoint: a function that
//! *returns* source taint taints its callers, and one that passes a
//! parameter into a sink pulls the violation up to the call site. A
//! sanitizer call anywhere in the evaluated expression clears taint —
//! the cleansed value is ciphertext — and so does a call to a *derived*
//! sanitizer: a straight-line function whose returned expression itself
//! passes through one (`ProtocolTuple::seal` wrapping `encrypt_prob`),
//! so a seal helper in one crate covers the sink in another. Every
//! finding carries the full source→sink call chain.

use std::collections::{BTreeMap, BTreeSet};

use crate::graph::{is_declassified_use, FnEnv, FnId, Workspace};
use crate::syntax::{match_close, Call, Callee, PanicKind, Recv};

/// One model pattern.
#[derive(Debug, Clone, PartialEq)]
enum Pat {
    /// `Type::method` — path call or typed-receiver method call.
    TypeMethod(String, String),
    /// `.method` — method call on any receiver (also UFCS paths).
    AnyMethod(String),
    /// `free_fn` — free function by name.
    Free(String),
}

/// One declared source/sink/sanitizer.
#[derive(Debug, Clone, PartialEq)]
pub struct Entry {
    pat: Pat,
    /// Pattern as written, for chains and messages.
    pub display: String,
    pub note: String,
}

/// Parsed source/sink/sanitizer model plus the panic kinds enabled for
/// `panic.transitive`.
#[derive(Debug, Clone, Default)]
pub struct FlowModel {
    pub sources: Vec<Entry>,
    pub sinks: Vec<Entry>,
    pub sanitizers: Vec<Entry>,
    pub panic_kinds: BTreeSet<PanicKind>,
    /// Malformed lines (line number, text); the checked-in model must
    /// keep this empty (unit-tested).
    pub errors: Vec<(usize, String)>,
}

impl FlowModel {
    /// Parse the model format: one `source|sink|sanitizer <pattern>
    /// <note...>` or `panic-kind <kind>` directive per line; `#` starts
    /// a comment.
    pub fn parse(text: &str) -> FlowModel {
        let mut model = FlowModel::default();
        for (i, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let mut parts = line.splitn(3, char::is_whitespace);
            let kw = parts.next().unwrap_or("");
            let pat = parts.next().unwrap_or("").trim();
            let note = parts.next().unwrap_or("").trim().to_string();
            match kw {
                "panic-kind" => match PanicKind::from_name(pat) {
                    Some(k) => {
                        model.panic_kinds.insert(k);
                    }
                    None => model.errors.push((i + 1, raw.to_string())),
                },
                "source" | "sink" | "sanitizer" => match parse_pat(pat) {
                    Some(p) => {
                        let entry = Entry {
                            pat: p,
                            display: pat.to_string(),
                            note,
                        };
                        match kw {
                            "source" => model.sources.push(entry),
                            "sink" => model.sinks.push(entry),
                            _ => model.sanitizers.push(entry),
                        }
                    }
                    None => model.errors.push((i + 1, raw.to_string())),
                },
                _ => model.errors.push((i + 1, raw.to_string())),
            }
        }
        model
    }

    /// The model shipped with the workspace.
    pub fn workspace() -> FlowModel {
        FlowModel::parse(include_str!("../flow.model"))
    }
}

fn parse_pat(pat: &str) -> Option<Pat> {
    if pat.is_empty() {
        return None;
    }
    if let Some(m) = pat.strip_prefix('.') {
        if m.is_empty() {
            return None;
        }
        return Some(Pat::AnyMethod(m.to_string()));
    }
    if let Some((ty, m)) = pat.split_once("::") {
        if ty.is_empty() || m.is_empty() || m.contains("::") {
            return None;
        }
        return Some(Pat::TypeMethod(ty.to_string(), m.to_string()));
    }
    Some(Pat::Free(pat.to_string()))
}

/// One `flow.plaintext_egress` result.
#[derive(Debug, Clone)]
pub struct FlowHit {
    pub file: usize,
    pub line: usize,
    pub message: String,
    pub chain: Vec<String>,
}

#[derive(Debug, Clone, PartialEq)]
enum Origin {
    Source { note: String },
    Param(usize),
}

#[derive(Debug, Clone, PartialEq)]
struct Taint {
    origin: Origin,
    chain: Vec<String>,
}

#[derive(Debug, Clone, Default, PartialEq)]
struct Summary {
    /// Set when the function returns source-tainted data.
    returns: Option<Taint>,
    /// Parameters that flow into a sink inside this function:
    /// index -> (chain suffix down to the sink, sink note).
    param_sinks: BTreeMap<usize, (Vec<String>, String)>,
    /// Derived sanitizer: the body is straight-line (no nested block a
    /// branch could use to return around the cipher) and the returned
    /// expression passes through a sanitizer.
    cleanses: bool,
}

/// Precomputed per-function analysis context (resolution and pattern
/// matching never change across fixpoint iterations).
struct FnCtx {
    id: FnId,
    chunks: Vec<(usize, usize)>,
    /// `tails[k]`: chunk `k` is a tail expression (only `}` chunks follow).
    tails: Vec<bool>,
    call_ids: Vec<usize>,
    targets: BTreeMap<usize, Vec<FnId>>,
    source_at: BTreeMap<usize, usize>,
    sink_at: BTreeMap<usize, usize>,
    sanitizer_at: BTreeSet<usize>,
}

/// Run the taint pass over the whole workspace.
pub fn plaintext_egress(ws: &Workspace, model: &FlowModel) -> Vec<FlowHit> {
    let ids = ws.fn_ids();
    let ctxs: Vec<FnCtx> = ids.iter().map(|&id| build_ctx(ws, model, id)).collect();
    let mut summaries: BTreeMap<FnId, Summary> =
        ids.iter().map(|&id| (id, Summary::default())).collect();
    for _ in 0..8 {
        let mut changed = false;
        for ctx in &ctxs {
            let (summary, _) = analyze(ws, model, ctx, &summaries, false);
            if summaries.get(&ctx.id) != Some(&summary) {
                summaries.insert(ctx.id, summary);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    let mut hits = Vec::new();
    for ctx in &ctxs {
        let (_, mut h) = analyze(ws, model, ctx, &summaries, true);
        hits.append(&mut h);
    }
    hits.sort_by(|a, b| (a.file, a.line, &a.message).cmp(&(b.file, b.line, &b.message)));
    hits.dedup_by(|a, b| a.file == b.file && a.line == b.line && a.message == b.message);
    hits
}

fn build_ctx(ws: &Workspace, model: &FlowModel, id: FnId) -> FnCtx {
    let env = ws.build_env(id);
    let call_ids = ws.calls_of(id);
    let syn = &ws.files[id.0].syntax;
    let mut targets = BTreeMap::new();
    let mut source_at = BTreeMap::new();
    let mut sink_at = BTreeMap::new();
    let mut sanitizer_at = BTreeSet::new();
    for &ci in &call_ids {
        targets.insert(ci, ws.resolve(id, &env, ci));
        let call = &syn.calls[ci];
        if let Some(e) = match_entry(ws, id, &env, call, &model.sources) {
            source_at.insert(ci, e);
        }
        if let Some(e) = match_entry(ws, id, &env, call, &model.sinks) {
            sink_at.insert(ci, e);
        }
        if match_entry(ws, id, &env, call, &model.sanitizers).is_some() {
            sanitizer_at.insert(ci);
        }
    }
    // Struct-literal braces are expression syntax, not block
    // boundaries: `let m = Msg { body: row };` must stay one chunk so
    // the `row` mention taints `m`.
    let mut literal_braces = BTreeSet::new();
    for c in &syn.calls {
        if syn
            .toks
            .get(c.name_idx + 1)
            .is_some_and(|t| t.is_punct("{"))
        {
            literal_braces.insert(c.name_idx + 1);
            if let Some(close) = match_close(&syn.toks, c.name_idx + 1, "{", "}") {
                literal_braces.insert(close);
            }
        }
    }
    let mut chunks = Vec::new();
    for (s, e) in ws.owned_runs(id) {
        let mut start = s;
        let mut depth = 0i32;
        for i in s..e {
            let t = &syn.toks[i];
            match t.text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                ";" if depth <= 0 => {
                    if i > start {
                        chunks.push((start, i));
                    }
                    start = i + 1;
                }
                "{" if depth <= 0 && !literal_braces.contains(&i) => {
                    // Keep the `{` with its header (`for … {`, `if … {`).
                    chunks.push((start, i + 1));
                    start = i + 1;
                }
                "}" if depth <= 0 && !literal_braces.contains(&i) => {
                    if i > start {
                        chunks.push((start, i));
                    }
                    chunks.push((i, i + 1));
                    start = i + 1;
                }
                _ => {}
            }
        }
        if e > start {
            chunks.push((start, e));
        }
    }
    // A chunk is a tail expression when only closing-brace chunks
    // follow it.
    let mut tails = vec![false; chunks.len()];
    let mut only_braces = true;
    for k in (0..chunks.len()).rev() {
        tails[k] = only_braces;
        let (a, b) = chunks[k];
        if !(a..b).all(|i| syn.toks[i].is_punct("}")) {
            only_braces = false;
        }
    }
    FnCtx {
        id,
        chunks,
        tails,
        call_ids,
        targets,
        source_at,
        sink_at,
        sanitizer_at,
    }
}

fn match_entry(
    ws: &Workspace,
    id: FnId,
    env: &FnEnv,
    call: &Call,
    entries: &[Entry],
) -> Option<usize> {
    // Receiver types are inferred once per call, lazily.
    let mut recv_ty: Option<Option<String>> = None;
    for (ei, e) in entries.iter().enumerate() {
        let hit = match (&e.pat, &call.callee) {
            (Pat::TypeMethod(ty, m), Callee::Path { segs }) => {
                segs.len() >= 2 && segs[segs.len() - 1] == *m && segs[segs.len() - 2] == *ty
            }
            (Pat::TypeMethod(ty, m), Callee::Method { recv, name }) => {
                name == m && {
                    let t = recv_ty
                        .get_or_insert_with(|| ws.recv_type(id, env, recv, 0))
                        .clone();
                    t.as_deref() == Some(ty.as_str())
                }
            }
            (Pat::AnyMethod(m), Callee::Method { name, .. }) => name == m,
            (Pat::AnyMethod(m), Callee::Path { segs }) => {
                segs.len() >= 2
                    && segs[segs.len() - 1] == *m
                    && segs[segs.len() - 2].starts_with(char::is_uppercase)
            }
            (Pat::Free(f), Callee::Path { segs }) => {
                segs[segs.len() - 1] == *f
                    && (segs.len() == 1 || !segs[segs.len() - 2].starts_with(char::is_uppercase))
            }
            _ => false,
        };
        if hit {
            return Some(ei);
        }
    }
    None
}

#[allow(clippy::type_complexity)]
fn analyze(
    ws: &Workspace,
    model: &FlowModel,
    ctx: &FnCtx,
    summaries: &BTreeMap<FnId, Summary>,
    collect: bool,
) -> (Summary, Vec<FlowHit>) {
    let mut summary = Summary::default();
    let mut hits = Vec::new();
    let mut loop_taint: Option<Taint> = None;
    for pass in 0..2 {
        let mut state: BTreeMap<String, Taint> = BTreeMap::new();
        let mut pass_break: Option<Taint> = None;
        for (chunk_i, &(cs, ce)) in ctx.chunks.iter().enumerate() {
            self_sink_checks(
                ws,
                model,
                ctx,
                summaries,
                &state,
                cs,
                ce,
                &mut summary,
                &mut hits,
                collect,
            );
            apply_bindings(
                ws,
                model,
                ctx,
                summaries,
                &mut state,
                cs,
                ce,
                &loop_taint,
                &mut pass_break,
                &mut summary,
                ctx.tails[chunk_i],
            );
        }
        loop_taint = pass_break;
        if loop_taint.is_none() {
            break;
        }
        if pass == 1 {
            break;
        }
        summary = Summary::default();
        hits.clear();
    }
    summary.cleanses = returns_ciphertext(ws, ctx, summaries);
    (summary, hits)
}

/// Does a sanitizer — declared, or derived per [`Summary::cleanses`] —
/// get called inside the token range?
fn cleansed(
    ws: &Workspace,
    ctx: &FnCtx,
    summaries: &BTreeMap<FnId, Summary>,
    start: usize,
    end: usize,
) -> bool {
    let syn = &ws.files[ctx.id.0].syntax;
    ctx.call_ids
        .iter()
        .filter(|&&ci| (start..end).contains(&syn.calls[ci].name_idx))
        .any(|ci| {
            ctx.sanitizer_at.contains(ci)
                || ctx.targets.get(ci).is_some_and(|ts| {
                    !ts.is_empty()
                        && ts
                            .iter()
                            .all(|t| summaries.get(t).is_some_and(|s| s.cleanses))
                })
        })
}

/// [`Summary::cleanses`] for one function.
fn returns_ciphertext(ws: &Workspace, ctx: &FnCtx, summaries: &BTreeMap<FnId, Summary>) -> bool {
    let toks = &ws.files[ctx.id.0].syntax.toks;
    let brace = |i: usize| toks[i].is_punct("{") || toks[i].is_punct("}");
    let stmts: Vec<(usize, (usize, usize))> = ctx
        .chunks
        .iter()
        .copied()
        .enumerate()
        .filter(|&(_, (a, b))| !(a..b).all(brace))
        .collect();
    let Some(&(k, (a, b))) = stmts.last() else {
        return false;
    };
    stmts.iter().all(|&(_, (_, e))| !toks[e - 1].is_punct("{"))
        && ctx.tails[k]
        && !toks[a].is_ident("let")
        && cleansed(ws, ctx, summaries, a, b)
}

/// Check every sink (direct or via callee param summaries) in a chunk.
#[allow(clippy::too_many_arguments)]
fn self_sink_checks(
    ws: &Workspace,
    model: &FlowModel,
    ctx: &FnCtx,
    summaries: &BTreeMap<FnId, Summary>,
    state: &BTreeMap<String, Taint>,
    cs: usize,
    ce: usize,
    summary: &mut Summary,
    hits: &mut Vec<FlowHit>,
    collect: bool,
) {
    let syn = &ws.files[ctx.id.0].syntax;
    for &ci in &ctx.call_ids {
        let call = &syn.calls[ci];
        if call.name_idx < cs || call.name_idx >= ce {
            continue;
        }
        let site = format!("{}:{}", ws.files[ctx.id.0].path, call.line);
        if let Some(&ei) = ctx.sink_at.get(&ci) {
            let sink = &model.sinks[ei];
            let sink_step = format!("{} ({})", sink.display, site);
            let mut inputs: Vec<Option<Taint>> = call
                .args
                .iter()
                .map(|&(a, b)| eval(ws, model, ctx, summaries, state, a, b))
                .collect();
            if let Callee::Method { recv, .. } = &call.callee {
                inputs.push(recv_taint(ws, model, ctx, summaries, state, recv));
            }
            for taint in inputs.into_iter().flatten() {
                let mut chain = taint.chain.clone();
                chain.push(sink_step.clone());
                record(
                    taint.origin,
                    chain,
                    &sink.note,
                    ctx,
                    call.line,
                    summary,
                    hits,
                    collect,
                );
            }
        }
        // Interprocedural: callee passes one of its params into a sink.
        if let Some(targets) = ctx.targets.get(&ci) {
            for t in targets {
                let Some(cs_sum) = summaries.get(t) else {
                    continue;
                };
                for (&pi, (suffix, note)) in &cs_sum.param_sinks {
                    let Some(&(a, b)) = call.args.get(pi) else {
                        continue;
                    };
                    let Some(taint) = eval(ws, model, ctx, summaries, state, a, b) else {
                        continue;
                    };
                    let mut chain = taint.chain.clone();
                    chain.push(format!("{} ({})", ws.fn_item(*t).qname(), site));
                    chain.extend(suffix.iter().cloned());
                    record(
                        taint.origin,
                        chain,
                        note,
                        ctx,
                        call.line,
                        summary,
                        hits,
                        collect,
                    );
                }
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn record(
    origin: Origin,
    chain: Vec<String>,
    sink_note: &str,
    ctx: &FnCtx,
    line: usize,
    summary: &mut Summary,
    hits: &mut Vec<FlowHit>,
    collect: bool,
) {
    match origin {
        Origin::Source { note } => {
            if collect {
                hits.push(FlowHit {
                    file: ctx.id.0,
                    line,
                    message: format!(
                        "plaintext egress: {note} reaches {sink_note} without passing through a pds-crypto sanitizer"
                    ),
                    chain,
                });
            }
        }
        Origin::Param(pi) => {
            summary
                .param_sinks
                .entry(pi)
                .or_insert((chain, sink_note.to_string()));
        }
    }
}

/// Update the taint state from one chunk's binding shape, and fold tail
/// expressions / `return` into the summary.
#[allow(clippy::too_many_arguments)]
fn apply_bindings(
    ws: &Workspace,
    model: &FlowModel,
    ctx: &FnCtx,
    summaries: &BTreeMap<FnId, Summary>,
    state: &mut BTreeMap<String, Taint>,
    cs: usize,
    ce: usize,
    loop_taint: &Option<Taint>,
    pass_break: &mut Option<Taint>,
    summary: &mut Summary,
    is_tail: bool,
) {
    let toks = &ws.files[ctx.id.0].syntax.toks;
    if cs >= ce {
        return;
    }
    // Seed params once, lazily, via the function item.
    if state.is_empty() {
        let f = ws.fn_item(ctx.id);
        for (pi, p) in f.params.iter().enumerate() {
            for n in &p.names {
                state.insert(
                    n.clone(),
                    Taint {
                        origin: Origin::Param(pi),
                        chain: Vec::new(),
                    },
                );
            }
        }
    }

    let first = &toks[cs];
    if first.is_ident("return") || (is_tail && !first.is_ident("let")) {
        if first.is_ident("break") {
            // fall through to break handling below
        } else {
            let start = if first.is_ident("return") { cs + 1 } else { cs };
            if let Some(t) = eval(ws, model, ctx, summaries, state, start, ce) {
                if matches!(t.origin, Origin::Source { .. }) && summary.returns.is_none() {
                    summary.returns = Some(t.clone());
                }
            }
            if first.is_ident("return") {
                return;
            }
        }
    }
    if first.is_ident("break") {
        let mut start = cs + 1;
        while start < ce && toks[start].kind == crate::lexer::TokKind::Lifetime {
            start += 1;
        }
        if start < ce {
            if let Some(t) = eval(ws, model, ctx, summaries, state, start, ce) {
                if pass_break.is_none() {
                    *pass_break = Some(t);
                }
            }
        }
        return;
    }
    if first.is_ident("for") {
        if let Some(in_pos) = (cs..ce).find(|&i| toks[i].is_ident("in")) {
            let names = pattern_names(toks, cs + 1, in_pos);
            let taint = eval(ws, model, ctx, summaries, state, in_pos + 1, ce);
            for n in names {
                match &taint {
                    Some(t) => {
                        state.insert(n, t.clone());
                    }
                    None => {
                        state.remove(&n);
                    }
                }
            }
        }
        return;
    }

    // Generic `let` / assignment detection at chunk nesting depth 0.
    let mut depth = 0i32;
    let mut let_pos: Option<usize> = None;
    let mut eq_pos: Option<usize> = None;
    let mut compound = false;
    let mut i = cs;
    while i < ce {
        let t = &toks[i];
        match t.text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth -= 1,
            "let" if depth == 0 && t.is_name() && let_pos.is_none() => let_pos = Some(i),
            "=" if depth == 0 => {
                if i + 1 < ce && toks[i + 1].is_punct("=") {
                    i += 2;
                    continue;
                }
                let prev = toks[i.saturating_sub(1)].text.as_str();
                if matches!(prev, "<" | ">" | "!" | "=") {
                    i += 1;
                    continue;
                }
                compound = matches!(prev, "+" | "-" | "*" | "/" | "%" | "&" | "|" | "^");
                eq_pos = Some(i);
                break;
            }
            _ => {}
        }
        i += 1;
    }
    let Some(eq) = eq_pos else { return };
    let mut rhs_taint = eval(ws, model, ctx, summaries, state, eq + 1, ce);
    // `let x = loop { ... break tainted ... }` from the previous pass.
    if rhs_taint.is_none()
        && loop_taint.is_some()
        && (eq + 1..ce).any(|i| toks[i].is_ident("loop") || toks[i].is_ident("while"))
    {
        rhs_taint = loop_taint.clone();
    }
    if let Some(lp) = let_pos {
        let pat_end = (lp + 1..eq).find(|&i| toks[i].is_punct(":")).unwrap_or(eq);
        for n in pattern_names(toks, lp + 1, pat_end) {
            match &rhs_taint {
                Some(t) => {
                    state.insert(n, t.clone());
                }
                None => {
                    state.remove(&n);
                }
            }
        }
        return;
    }
    // Plain / compound assignment to a single variable.
    let lhs: Vec<usize> = (cs..eq).filter(|&i| !toks[i].is_ident("mut")).collect();
    if lhs.len() == 1 && toks[lhs[0]].is_name() {
        let name = toks[lhs[0]].text.clone();
        match rhs_taint {
            Some(t) => {
                state.insert(name, t);
            }
            None if !compound => {
                state.remove(&name);
            }
            None => {}
        }
    }
}

/// Lowercase binding identifiers in a pattern range.
fn pattern_names(toks: &[crate::lexer::Tok], start: usize, end: usize) -> Vec<String> {
    let mut names = Vec::new();
    for i in start..end {
        let t = &toks[i];
        if t.is_name()
            && !t.text.starts_with(char::is_uppercase)
            && !matches!(t.text.as_str(), "mut" | "ref" | "box" | "_" | "let")
        {
            // Skip path segments inside patterns (Enum::variant).
            let prev_path = i > 0 && toks[i - 1].is_punct("::");
            let next_path = toks.get(i + 1).is_some_and(|n| n.is_punct("::"));
            if !prev_path && !next_path {
                names.push(t.text.clone());
            }
        }
    }
    names
}

/// Taint of an expression token range. A sanitizer call anywhere in the
/// range clears it; otherwise source calls, calls into taint-returning
/// functions, and mentions of tainted variables taint it.
#[allow(clippy::too_many_arguments)]
fn eval(
    ws: &Workspace,
    model: &FlowModel,
    ctx: &FnCtx,
    summaries: &BTreeMap<FnId, Summary>,
    state: &BTreeMap<String, Taint>,
    start: usize,
    end: usize,
) -> Option<Taint> {
    let syn = &ws.files[ctx.id.0].syntax;
    let in_range = |ci: &usize| syn.calls[*ci].name_idx >= start && syn.calls[*ci].name_idx < end;
    if cleansed(ws, ctx, summaries, start, end) {
        return None;
    }
    let mut best: Option<Taint> = None;
    let consider = |best: &mut Option<Taint>, t: Taint| {
        let better = match (&best, &t.origin) {
            (None, _) => true,
            (Some(b), Origin::Source { .. }) => !matches!(b.origin, Origin::Source { .. }),
            _ => false,
        };
        if better {
            *best = Some(t);
        }
    };
    for &ci in ctx.call_ids.iter().filter(|ci| in_range(ci)) {
        let call = &syn.calls[ci];
        let site = format!("{}:{}", ws.files[ctx.id.0].path, call.line);
        if let Some(&ei) = ctx.source_at.get(&ci) {
            let src = &model.sources[ei];
            consider(
                &mut best,
                Taint {
                    origin: Origin::Source {
                        note: src.note.clone(),
                    },
                    chain: vec![format!("{} ({})", src.display, site)],
                },
            );
            continue;
        }
        if let Some(targets) = ctx.targets.get(&ci) {
            for t in targets {
                if let Some(rt) = summaries.get(t).and_then(|s| s.returns.as_ref()) {
                    let mut chain = rt.chain.clone();
                    chain.push(format!("{} ({})", ws.fn_item(*t).qname(), site));
                    consider(
                        &mut best,
                        Taint {
                            origin: rt.origin.clone(),
                            chain,
                        },
                    );
                }
            }
        }
    }
    for i in start..end {
        let t = &syn.toks[i];
        if !t.is_name() {
            continue;
        }
        let Some(taint) = state.get(&t.text) else {
            continue;
        };
        // Field/method names, path segments, struct-field labels, and
        // `.len()`-style measurements are not data mentions.
        if i > start && (syn.toks[i - 1].is_punct(".") || syn.toks[i - 1].is_punct("::")) {
            continue;
        }
        if syn
            .toks
            .get(i + 1)
            .is_some_and(|n| n.is_punct("::") || n.is_punct(":"))
        {
            continue;
        }
        if is_declassified_use(&syn.toks, i) {
            continue;
        }
        consider(&mut best, taint.clone());
    }
    best
}

fn recv_taint(
    ws: &Workspace,
    model: &FlowModel,
    ctx: &FnCtx,
    summaries: &BTreeMap<FnId, Summary>,
    state: &BTreeMap<String, Taint>,
    recv: &Recv,
) -> Option<Taint> {
    match recv {
        Recv::Chain(chain) | Recv::Indexed(chain) => {
            let head = chain.first()?;
            if head == "self" {
                return None;
            }
            state.get(head).cloned()
        }
        Recv::Call(ci) => {
            let call = &ws.files[ctx.id.0].syntax.calls[*ci];
            let end = call.args.last().map_or(call.name_idx + 2, |&(_, b)| b + 1);
            eval(ws, model, ctx, summaries, state, call.name_idx, end)
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::WsFile;
    use crate::lexer::lex;
    use crate::scan::scan;
    use crate::syntax::parse_file;

    const MODEL: &str = "\
source .decrypt decrypted plaintext
source DocStore::get raw document bytes
source Pds::poll_subscription subscription delta
sink MailboxBus::send bus payload
sink MailboxBus::send_in bus payload
sanitizer .encrypt_det symmetric encryption
panic-kind unwrap
";

    fn model() -> FlowModel {
        let m = FlowModel::parse(MODEL);
        assert!(m.errors.is_empty(), "{:?}", m.errors);
        m
    }

    fn ws_one(dir: &str, src: &str) -> Workspace {
        Workspace::build(vec![WsFile {
            crate_dir: dir.to_string(),
            path: format!("crates/{dir}/src/lib.rs"),
            syntax: parse_file(lex(&scan(src))),
        }])
    }

    fn hits(dir: &str, src: &str) -> Vec<FlowHit> {
        plaintext_egress(&ws_one(dir, src), &model())
    }

    #[test]
    fn direct_source_to_sink_fires() {
        let h = hits(
            "fleet",
            "pub struct DocStore; impl DocStore { pub fn get(&self, d: u32) -> Vec<u8> { Vec::new() } }\n\
             pub struct MailboxBus; impl MailboxBus { pub fn send(&mut self, p: Vec<u8>) {} }\n\
             pub fn mail(bus: &mut MailboxBus, store: &DocStore) { let row = store.get(1); bus.send(row); }",
        );
        assert_eq!(h.len(), 1, "{h:?}");
        assert!(h[0].message.contains("raw document bytes"));
        assert!(h[0].message.contains("bus payload"));
    }

    #[test]
    fn sanitizer_clears_taint() {
        let h = hits(
            "fleet",
            "pub struct DocStore; impl DocStore { pub fn get(&self, d: u32) -> Vec<u8> { Vec::new() } }\n\
             pub struct Key; impl Key { pub fn encrypt_det(&self, p: &[u8]) -> Vec<u8> { Vec::new() } }\n\
             pub struct MailboxBus; impl MailboxBus { pub fn send(&mut self, p: Vec<u8>) {} }\n\
             pub fn mail(bus: &mut MailboxBus, store: &DocStore, k: &Key) {\n\
                 let row = store.get(1);\n\
                 let ct = k.encrypt_det(&row);\n\
                 bus.send(ct);\n\
             }",
        );
        assert!(h.is_empty(), "{h:?}");
    }

    #[test]
    fn only_a_straight_line_wrapper_is_a_derived_sanitizer() {
        let prelude = "pub struct DocStore; impl DocStore { pub fn get(&self, d: u32) -> Vec<u8> { Vec::new() } }\n\
             pub struct Key; impl Key { pub fn encrypt_det(&self, p: &[u8]) -> Vec<u8> { Vec::new() } }\n\
             pub struct MailboxBus; impl MailboxBus { pub fn send(&mut self, p: Vec<u8>) {} }\n\
             pub fn mail(bus: &mut MailboxBus, store: &DocStore, k: &Key) {\n\
                 let row = store.get(1);\n\
                 let ct = seal(k, &row);\n\
                 bus.send(ct);\n\
             }\n";
        let wrapped = "fn seal(k: &Key, p: &[u8]) -> Vec<u8> { k.encrypt_det(p) }";
        assert!(hits("fleet", &format!("{prelude}{wrapped}")).is_empty());
        // A branch can return around the cipher: not derived, so the
        // tainted mention at the call site stands.
        let branchy =
            "fn seal(k: &Key, p: &[u8]) -> Vec<u8> { if p.is_empty() { p.to_vec() } else { k.encrypt_det(p) } }";
        assert_eq!(hits("fleet", &format!("{prelude}{branchy}")).len(), 1);
    }

    #[test]
    fn subs_shaped_indexed_poll_to_send_in_fires() {
        let h = hits(
            "fleet",
            "pub struct Pds; impl Pds { pub fn poll_subscription(&mut self, id: u64) -> Vec<u8> { Vec::new() } }\n\
             pub struct MailboxBus; impl MailboxBus { pub fn send_in(&mut self, p: Vec<u8>) {} }\n\
             fn encode_delta(t: u32, rows: &[u8]) -> Vec<u8> { rows.to_vec() }\n\
             pub struct Net { pds: Vec<Pds>, bus: MailboxBus, sub_ids: Vec<u64> }\n\
             impl Net {\n\
                 fn round(&mut self) {\n\
                     for i in 0..3 {\n\
                         let delta = self.pds[i].poll_subscription(self.sub_ids[i]);\n\
                         if delta.is_empty() { continue; }\n\
                         let payload = encode_delta(i as u32, &delta);\n\
                         self.bus.send_in(payload);\n\
                     }\n\
                 }\n\
             }",
        );
        assert_eq!(h.len(), 1, "{h:?}");
        assert!(
            h[0].chain.iter().any(|s| s.contains("poll_subscription")),
            "{h:?}"
        );
    }
}
