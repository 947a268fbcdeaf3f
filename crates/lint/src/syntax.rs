//! Item and call-site extraction over the token stream.
//!
//! This is deliberately *not* a Rust parser: it recovers exactly the
//! shapes the flow and reachability analyses need — function items with
//! signatures, struct field types, and call expressions with argument
//! ranges — using brace/paren matching over [`crate::lexer`] tokens.
//! Anything it cannot classify it leaves out, which makes downstream
//! passes under-approximate call edges (documented in DESIGN.md) rather
//! than wrong.

use crate::lexer::{Tok, TokKind};

/// One function parameter: the bound names (several for destructuring
/// patterns) and the declared type tokens.
#[derive(Debug, Clone)]
pub struct Param {
    pub names: Vec<String>,
    pub ty: Vec<String>,
}

/// One extracted `fn` item.
#[derive(Debug, Clone)]
pub struct FnItem {
    pub name: String,
    /// Enclosing `impl`/`trait` type, if any.
    pub self_ty: Option<String>,
    /// True only for plain `pub` (not `pub(crate)`/`pub(super)`).
    pub is_pub: bool,
    /// True when declared inside test-only code.
    pub is_test: bool,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    pub has_self: bool,
    pub params: Vec<Param>,
    /// Return type tokens (empty for `()` / none).
    pub ret: Vec<String>,
    /// Token range of the body, exclusive of the braces; `None` for
    /// trait-method declarations without a default body.
    pub body: Option<(usize, usize)>,
}

impl FnItem {
    /// `Type::name` or bare `name`, for chains and messages.
    pub fn qname(&self) -> String {
        match &self.self_ty {
            Some(ty) => format!("{}::{}", ty, self.name),
            None => self.name.clone(),
        }
    }
}

/// What a call expression invokes.
#[derive(Debug, Clone)]
pub enum Callee {
    /// `recv.name(...)`; the receiver shape is kept for type inference.
    Method { recv: Recv, name: String },
    /// `a::b::name(...)` or bare `name(...)`; segments in source order.
    Path { segs: Vec<String> },
    /// `name!(...)`.
    Macro { name: String },
}

/// Receiver shape of a method call, as much as single-pass lexical
/// analysis can recover.
#[derive(Debug, Clone)]
pub enum Recv {
    /// `a.b.c` ident chain rooted at an expression boundary (`a` may be
    /// `self`).
    Chain(Vec<String>),
    /// Result of an earlier call in the same file's call list.
    Call(usize),
    /// `base[...]`: element of an indexed chain.
    Indexed(Vec<String>),
    /// `Type { .. }` struct construction.
    Construction(String),
    Unknown,
}

/// One call site.
#[derive(Debug, Clone)]
pub struct Call {
    /// Token index of the callee name.
    pub name_idx: usize,
    pub line: usize,
    pub callee: Callee,
    /// Argument token ranges (half-open); for struct construction the
    /// whole brace body is one range.
    pub args: Vec<(usize, usize)>,
}

/// Fields of one struct: (field name, field type tokens).
pub type StructFields = Vec<(String, Vec<String>)>;

/// Parsed view of one file.
#[derive(Debug)]
pub struct FileSyntax {
    pub toks: Vec<Tok>,
    pub fns: Vec<FnItem>,
    /// struct name -> (field name, field type tokens)
    pub structs: Vec<(String, StructFields)>,
    pub calls: Vec<Call>,
    /// For each token, the index in `fns` of the innermost function body
    /// owning it (usize::MAX for item-level tokens).
    pub owner: Vec<usize>,
}

const KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "in", "as", "move", "fn", "else", "unsafe",
    "let", "break", "continue", "impl", "where", "mut", "ref", "dyn",
];

/// Parse a token stream into items and call sites.
pub fn parse_file(toks: Vec<Tok>) -> FileSyntax {
    let mut fns = Vec::new();
    let mut structs = Vec::new();
    let mut impl_stack: Vec<(String, i32)> = Vec::new();
    let mut depth: i32 = 0;
    let mut i = 0;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_punct("{") {
            depth += 1;
        } else if t.is_punct("}") {
            depth -= 1;
            while impl_stack.last().is_some_and(|(_, d)| *d >= depth) {
                impl_stack.pop();
            }
        } else if t.is_ident("impl") || t.is_ident("trait") {
            if let Some((ty, open)) = parse_impl_header(&toks, i) {
                impl_stack.push((ty, depth));
                i = open; // step onto the `{` so depth tracking stays exact
                continue;
            }
        } else if t.is_ident("struct") {
            if let Some((name, fields, next)) = parse_struct(&toks, i) {
                structs.push((name, fields));
                i = next;
                continue;
            }
        } else if t.is_ident("fn") {
            let self_ty = impl_stack.last().map(|(ty, _)| ty.clone());
            if let Some((item, next)) = parse_fn(&toks, i, self_ty) {
                fns.push(item);
                i = next; // points at the body `{` (or past `;`)
                continue;
            }
        }
        i += 1;
    }

    // Innermost-body ownership: later (nested) fns overwrite where their
    // range is smaller.
    let mut owner = vec![usize::MAX; toks.len()];
    let mut order: Vec<usize> = (0..fns.len()).collect();
    order.sort_by_key(|&f| {
        fns[f]
            .body
            .map_or(usize::MAX, |(s, e)| usize::MAX - (e - s))
    });
    for f in order {
        if let Some((s, e)) = fns[f].body {
            for o in owner.iter_mut().take(e).skip(s) {
                *o = f;
            }
        }
    }

    let calls = extract_calls(&toks);
    FileSyntax {
        toks,
        fns,
        structs,
        calls,
        owner,
    }
}

/// From `impl`/`trait` at `idx`, return (self type name, index of `{`).
fn parse_impl_header(toks: &[Tok], idx: usize) -> Option<(String, usize)> {
    let mut i = idx + 1;
    if toks.get(i).is_some_and(|t| t.is_punct("<")) {
        i = skip_angles(toks, i)?;
    }
    let mut ty_toks: Vec<usize> = Vec::new();
    let mut angle = 0i32;
    while i < toks.len() {
        let t = &toks[i];
        if angle == 0 {
            if t.is_punct("{") {
                let ty = last_type_name(toks, &ty_toks)?;
                return Some((ty, i));
            }
            if t.is_punct(";") {
                return None;
            }
            if t.is_ident("for") {
                ty_toks.clear(); // trait impl: the type follows `for`
                i += 1;
                continue;
            }
            if t.is_ident("where") {
                let open = (i..toks.len()).find(|&j| toks[j].is_punct("{"))?;
                let ty = last_type_name(toks, &ty_toks)?;
                return Some((ty, open));
            }
        }
        if t.is_punct("<") {
            angle += 1;
        } else if t.is_punct(">") {
            angle -= 1;
        }
        ty_toks.push(i);
        i += 1;
    }
    None
}

/// Last identifier at angle depth 0 in a type token run — `Foo` for
/// `crate::x::Foo<'a, T>`.
fn last_type_name(toks: &[Tok], idxs: &[usize]) -> Option<String> {
    let mut angle = 0i32;
    let mut name = None;
    for &i in idxs {
        let t = &toks[i];
        if t.is_punct("<") {
            angle += 1;
        } else if t.is_punct(">") {
            angle -= 1;
        } else if angle == 0 && t.is_name() && t.text != "dyn" {
            name = Some(t.text.clone());
        }
    }
    name
}

fn parse_struct(toks: &[Tok], idx: usize) -> Option<(String, StructFields, usize)> {
    let name = toks.get(idx + 1).filter(|t| t.is_name())?.text.clone();
    let mut i = idx + 2;
    if toks.get(i).is_some_and(|t| t.is_punct("<")) {
        i = skip_angles(toks, i)?;
    }
    while i < toks.len() && toks[i].is_ident("where") {
        // where clause before the body: scan forward to `{` or `;`
        while i < toks.len() && !toks[i].is_punct("{") && !toks[i].is_punct(";") {
            i += 1;
        }
    }
    if !toks.get(i).is_some_and(|t| t.is_punct("{")) {
        return None; // unit or tuple struct: nothing field-typed to record
    }
    let end = match_close(toks, i, "{", "}")?;
    let mut fields = Vec::new();
    let mut j = i + 1;
    while j < end {
        // field: [pub[(..)]] name : TYPE , — split at top-level commas
        let seg_end = top_level_comma(toks, j, end);
        let mut k = j;
        while k < seg_end && (toks[k].is_ident("pub") || toks[k].is_punct("(")) {
            if toks[k].is_punct("(") {
                k = match_close(toks, k, "(", ")").map_or(k + 1, |e| e + 1);
            } else {
                k += 1;
                if toks.get(k).is_some_and(|t| t.is_punct("(")) {
                    k = match_close(toks, k, "(", ")").map_or(k + 1, |e| e + 1);
                }
            }
        }
        if k + 1 < seg_end && toks[k].is_name() && toks[k + 1].is_punct(":") {
            let fname = toks[k].text.clone();
            let ty: Vec<String> = toks[k + 2..seg_end]
                .iter()
                .map(|t| t.text.clone())
                .collect();
            fields.push((fname, ty));
        }
        j = seg_end + 1;
    }
    Some((name, fields, end + 1))
}

fn parse_fn(toks: &[Tok], idx: usize, self_ty: Option<String>) -> Option<(FnItem, usize)> {
    let name_tok = toks.get(idx + 1).filter(|t| t.is_name())?;
    let name = name_tok.text.clone();
    let line = toks[idx].line;
    let is_test = toks[idx].is_test;
    let is_pub = visibility_is_pub(toks, idx);

    let mut i = idx + 2;
    if toks.get(i).is_some_and(|t| t.is_punct("<")) {
        i = skip_angles(toks, i)?;
    }
    if !toks.get(i).is_some_and(|t| t.is_punct("(")) {
        return None;
    }
    let params_end = match_close(toks, i, "(", ")")?;
    let (params, has_self) = parse_params(toks, i + 1, params_end);
    i = params_end + 1;

    let mut ret: Vec<String> = Vec::new();
    if toks.get(i).is_some_and(|t| t.is_punct("->")) {
        i += 1;
        let mut angle = 0i32;
        while i < toks.len() {
            let t = &toks[i];
            if angle == 0 && (t.is_punct("{") || t.is_punct(";") || t.is_ident("where")) {
                break;
            }
            if t.is_punct("<") {
                angle += 1;
            } else if t.is_punct(">") {
                angle -= 1;
            }
            ret.push(t.text.clone());
            i += 1;
        }
    }
    while i < toks.len() && !toks[i].is_punct("{") && !toks[i].is_punct(";") {
        i += 1; // where clause
    }
    let body = if toks.get(i).is_some_and(|t| t.is_punct("{")) {
        let end = match_close(toks, i, "{", "}")?;
        Some((i + 1, end))
    } else {
        None
    };
    let item = FnItem {
        name,
        self_ty,
        is_pub,
        is_test,
        line,
        has_self,
        params,
        ret,
        body,
    };
    // Resume at the body `{` (nested items keep being parsed) or past `;`.
    Some((item, i))
}

fn visibility_is_pub(toks: &[Tok], fn_idx: usize) -> bool {
    let mut k = fn_idx;
    while k > 0 {
        k -= 1;
        let t = &toks[k];
        if t.is_ident("unsafe")
            || t.is_ident("const")
            || t.is_ident("async")
            || t.is_ident("extern")
        {
            continue;
        }
        if t.kind == TokKind::Str {
            continue; // extern "C"
        }
        if t.is_punct(")") {
            return false; // pub(crate) / pub(super): not a public entry
        }
        return t.is_ident("pub");
    }
    false
}

fn parse_params(toks: &[Tok], start: usize, end: usize) -> (Vec<Param>, bool) {
    let mut params = Vec::new();
    let mut has_self = false;
    let mut j = start;
    while j < end {
        let seg_end = top_level_comma(toks, j, end);
        let seg = &toks[j..seg_end];
        if seg.iter().any(|t| t.is_ident("self")) && !seg.iter().any(|t| t.is_punct(":")) {
            has_self = true;
        } else if !seg.is_empty() {
            let colon = (0..seg.len()).find(|&k| seg[k].is_punct(":"));
            if let Some(c) = colon {
                let names: Vec<String> = seg[..c]
                    .iter()
                    .filter(|t| {
                        t.is_name()
                            && !KEYWORDS.contains(&t.text.as_str())
                            && !t.text.starts_with(char::is_uppercase)
                            && t.text != "_"
                    })
                    .map(|t| t.text.clone())
                    .collect();
                let ty: Vec<String> = seg[c + 1..].iter().map(|t| t.text.clone()).collect();
                params.push(Param { names, ty });
            }
        }
        j = seg_end + 1;
    }
    (params, has_self)
}

/// Index just past a balanced `<...>` run starting at `open`.
fn skip_angles(toks: &[Tok], open: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (j, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct("<") {
            depth += 1;
        } else if t.is_punct(">") {
            depth -= 1;
            if depth == 0 {
                return Some(j + 1);
            }
        } else if t.is_punct(";") || t.is_punct("{") {
            return None;
        }
    }
    None
}

/// Index of the closer matching `toks[open]`, tracking only that pair.
pub fn match_close(toks: &[Tok], open: usize, o: &str, c: &str) -> Option<usize> {
    let mut depth = 0i32;
    for (j, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct(o) {
            depth += 1;
        } else if t.is_punct(c) {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

/// First `,` at bracket depth 0 in `[start, end)`, else `end`.
fn top_level_comma(toks: &[Tok], start: usize, end: usize) -> usize {
    let mut paren = 0i32;
    let mut angle = 0i32;
    for (j, t) in toks.iter().enumerate().take(end).skip(start) {
        match t.text.as_str() {
            "(" | "[" | "{" => paren += 1,
            ")" | "]" | "}" => paren -= 1,
            "<" => angle += 1,
            ">" => angle -= 1,
            "," if paren == 0 && angle <= 0 => return j,
            _ => {}
        }
    }
    end
}

fn extract_calls(toks: &[Tok]) -> Vec<Call> {
    let mut calls = Vec::new();
    for i in 0..toks.len() {
        if toks[i].is_punct("(") {
            if let Some(call) = call_at_paren(toks, i, &calls) {
                calls.push(call);
            }
        } else if toks[i].is_punct("{") {
            if let Some(call) = construction_at_brace(toks, i) {
                calls.push(call);
            }
        }
    }
    calls
}

/// Walk back over a `::<...>` turbofish; returns the index before it.
fn skip_turbofish_back(toks: &[Tok], mut j: usize) -> usize {
    if toks.get(j).is_some_and(|t| t.is_punct(">")) {
        let mut depth = 0i32;
        while j > 0 {
            if toks[j].is_punct(">") {
                depth += 1;
            } else if toks[j].is_punct("<") {
                depth -= 1;
                if depth == 0 {
                    if j >= 1 && toks[j - 1].is_punct("::") {
                        return j - 2;
                    }
                    return j; // lone generic, give up
                }
            }
            j -= 1;
        }
    }
    j
}

fn call_at_paren(toks: &[Tok], open: usize, prior: &[Call]) -> Option<Call> {
    if open == 0 {
        return None;
    }
    let name_idx = {
        let j = skip_turbofish_back(toks, open - 1);
        if !toks.get(j).is_some_and(|t| t.is_name()) {
            return None;
        }
        j
    };
    let had_turbofish = name_idx != open - 1;
    let name = toks[name_idx].text.clone();
    let close = match_close(toks, open, "(", ")")?;
    let args = split_args(toks, open + 1, close);
    let line = toks[name_idx].line;

    // Macro: `name!(...)` is lexed as name `!` `(` — the `!` sits between.
    if name_idx + 1 < open && toks[name_idx + 1].is_punct("!") {
        return Some(Call {
            name_idx,
            line,
            callee: Callee::Macro { name },
            args,
        });
    }
    if name_idx + 1 != open && !had_turbofish {
        return None;
    }

    if name_idx >= 1 && toks[name_idx - 1].is_punct(".") {
        let recv = parse_recv(toks, name_idx - 1, prior);
        return Some(Call {
            name_idx,
            line,
            callee: Callee::Method { recv, name },
            args,
        });
    }

    // Path (possibly single-segment) call.
    let mut segs = vec![name];
    let mut k = name_idx;
    while k >= 2 && toks[k - 1].is_punct("::") && toks[k - 2].is_name() {
        segs.push(toks[k - 2].text.clone());
        k -= 2;
    }
    segs.reverse();
    if k >= 1 && toks[k - 1].is_ident("fn") {
        return None; // declaration, not a call
    }
    if segs.len() == 1 && KEYWORDS.contains(&segs[0].as_str()) {
        return None;
    }
    if k >= 1 && toks[k - 1].is_punct(".") {
        // `expr.seg::ignored(` is not valid Rust; treat head as method.
        return None;
    }
    Some(Call {
        name_idx,
        line,
        callee: Callee::Path { segs },
        args,
    })
}

fn construction_at_brace(toks: &[Tok], open: usize) -> Option<Call> {
    if open == 0 {
        return None;
    }
    let name_idx = open - 1;
    if !toks[name_idx].is_name() {
        return None;
    }
    let name = toks[name_idx].text.clone();
    if !name.starts_with(char::is_uppercase) {
        return None;
    }
    let mut segs = vec![name.clone()];
    let mut k = name_idx;
    while k >= 2 && toks[k - 1].is_punct("::") && toks[k - 2].is_name() {
        segs.push(toks[k - 2].text.clone());
        k -= 2;
    }
    segs.reverse();
    if segs.len() == 1 {
        // Lone `Ident {` is ambiguous with blocks; only clear expression
        // positions count as construction.
        let prev = k.checked_sub(1).map(|p| toks[p].text.as_str());
        if !matches!(
            prev,
            Some("=" | "(" | "," | "return" | "break" | "=>" | "[" | "&")
        ) {
            return None;
        }
    }
    let close = match_close(toks, open, "{", "}")?;
    Some(Call {
        name_idx,
        line: toks[name_idx].line,
        callee: Callee::Path { segs },
        args: vec![(open + 1, close)],
    })
}

fn split_args(toks: &[Tok], start: usize, end: usize) -> Vec<(usize, usize)> {
    let mut args = Vec::new();
    let mut j = start;
    while j < end {
        let seg_end = top_level_comma(toks, j, end);
        if seg_end > j {
            args.push((j, seg_end));
        }
        j = seg_end + 1;
    }
    args
}

/// Reconstruct the receiver shape to the left of the `.` at `dot`.
fn parse_recv(toks: &[Tok], dot: usize, prior: &[Call]) -> Recv {
    let Some(mut j) = dot.checked_sub(1) else {
        return Recv::Unknown;
    };
    while toks[j].is_punct("?") {
        match j.checked_sub(1) {
            Some(n) => j = n,
            None => return Recv::Unknown,
        }
    }
    if toks[j].is_name() {
        let mut chain = vec![toks[j].text.clone()];
        let mut k = j;
        while k >= 2 && toks[k - 1].is_punct(".") && toks[k - 2].is_name() {
            chain.push(toks[k - 2].text.clone());
            k -= 2;
        }
        if k >= 1 && (toks[k - 1].is_punct(".") || toks[k - 1].is_punct("::")) {
            return Recv::Unknown; // chain rooted in something more complex
        }
        chain.reverse();
        return Recv::Chain(chain);
    }
    if toks[j].is_punct(")") {
        if let Some(open) = match_open(toks, j, "(", ")") {
            if open >= 1 {
                let h = skip_turbofish_back(toks, open - 1);
                if toks[h].is_name() {
                    // The receiver call was extracted earlier (its name
                    // token precedes ours).
                    if let Some(ci) = prior.iter().position(|c| c.name_idx == h) {
                        return Recv::Call(ci);
                    }
                }
            }
        }
        return Recv::Unknown;
    }
    if toks[j].is_punct("]") {
        if let Some(open) = match_open(toks, j, "[", "]") {
            if open >= 1 && toks[open - 1].is_name() {
                let mut chain = vec![toks[open - 1].text.clone()];
                let mut k = open - 1;
                while k >= 2 && toks[k - 1].is_punct(".") && toks[k - 2].is_name() {
                    chain.push(toks[k - 2].text.clone());
                    k -= 2;
                }
                chain.reverse();
                return Recv::Indexed(chain);
            }
        }
        return Recv::Unknown;
    }
    if toks[j].is_punct("}") {
        if let Some(open) = match_open(toks, j, "{", "}") {
            if open >= 1 && toks[open - 1].is_name() {
                let name = toks[open - 1].text.clone();
                if name.starts_with(char::is_uppercase) {
                    return Recv::Construction(name);
                }
            }
        }
    }
    Recv::Unknown
}

/// Index of the opener matching the closer at `close`, scanning back.
fn match_open(toks: &[Tok], close: usize, o: &str, c: &str) -> Option<usize> {
    let mut depth = 0i32;
    let mut j = close;
    loop {
        if toks[j].is_punct(c) {
            depth += 1;
        } else if toks[j].is_punct(o) {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
        j = j.checked_sub(1)?;
    }
}

/// Kinds of panicking constructs the transitive pass can flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum PanicKind {
    Unwrap,
    Expect,
    Macro,
    Assert,
    Index,
    Arith,
}

impl PanicKind {
    pub fn name(self) -> &'static str {
        match self {
            PanicKind::Unwrap => "unwrap",
            PanicKind::Expect => "expect",
            PanicKind::Macro => "macro",
            PanicKind::Assert => "assert",
            PanicKind::Index => "index",
            PanicKind::Arith => "arith",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        Some(match name {
            "unwrap" => PanicKind::Unwrap,
            "expect" => PanicKind::Expect,
            "macro" => PanicKind::Macro,
            "assert" => PanicKind::Assert,
            "index" => PanicKind::Index,
            "arith" => PanicKind::Arith,
            _ => return None,
        })
    }
}

/// Panicking constructs inside `[start, end)`: (kind, line, description).
/// The one table of them: the per-file `panic.*` rules read its first
/// four kinds, `panic.transitive` the kinds the flow model enables.
/// `debug_assert*!` is not a site: it is compiled out of the release
/// build the token runs.
pub fn panic_sites(toks: &[Tok], start: usize, end: usize) -> Vec<(PanicKind, usize, String)> {
    let mut sites = Vec::new();
    let mut j = start;
    while j < end {
        let t = &toks[j];
        if t.is_name() && j + 1 < end && toks[j + 1].is_punct("!") {
            let kind = match t.text.as_str() {
                "panic" | "unreachable" | "todo" | "unimplemented" => Some(PanicKind::Macro),
                "assert" | "assert_eq" | "assert_ne" => Some(PanicKind::Assert),
                _ => None,
            };
            if let Some(k) = kind {
                sites.push((k, t.line, format!("{}!", t.text)));
            }
            j += 2;
            continue;
        }
        if t.is_name() && j >= 1 && toks[j - 1].is_punct(".") {
            let kind = match t.text.as_str() {
                "unwrap" | "unwrap_err" => Some(PanicKind::Unwrap),
                "expect" | "expect_err" => Some(PanicKind::Expect),
                _ => None,
            };
            if let (Some(k), true) = (kind, toks.get(j + 1).is_some_and(|n| n.is_punct("("))) {
                sites.push((k, t.line, format!(".{}()", t.text)));
            }
            j += 1;
            continue;
        }
        if t.is_punct("[")
            && j >= 1
            && (toks[j - 1].is_name() || toks[j - 1].is_punct(")") || toks[j - 1].is_punct("]"))
        {
            sites.push((PanicKind::Index, t.line, "slice/array indexing".to_string()));
        }
        if matches!(t.text.as_str(), "+" | "-" | "*" | "/" | "%")
            && t.kind == TokKind::Punct
            && j >= 1
            && j + 1 < end
            && (toks[j - 1].is_name()
                || toks[j - 1].kind == TokKind::Num
                || toks[j - 1].is_punct(")")
                || toks[j - 1].is_punct("]"))
            && (toks[j + 1].is_name()
                || toks[j + 1].kind == TokKind::Num
                || toks[j + 1].is_punct("("))
        {
            sites.push((
                PanicKind::Arith,
                t.line,
                format!("unchecked `{}` arithmetic", t.text),
            ));
        }
        j += 1;
    }
    sites
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::scan::scan;

    fn parse(src: &str) -> FileSyntax {
        parse_file(lex(&scan(src)))
    }

    #[test]
    fn extracts_free_fn_signature() {
        let fs = parse("pub fn serve_cloud(cloud: &mut CellCloud, msg: &CellMsg) -> Option<CellMsg> { inner() }");
        assert_eq!(fs.fns.len(), 1);
        let f = &fs.fns[0];
        assert_eq!(f.name, "serve_cloud");
        assert!(f.is_pub);
        assert!(!f.has_self);
        assert_eq!(f.params.len(), 2);
        assert_eq!(f.params[0].names, ["cloud"]);
        assert_eq!(f.params[1].ty.join(" "), "& CellMsg");
        assert_eq!(f.ret.join(""), "Option<CellMsg>");
    }

    #[test]
    fn impl_methods_get_self_type() {
        let fs = parse(
            "impl<'a, T: Clone> MailboxBus<T> {\n  pub fn send(&mut self, to: Addr) -> u64 { 0 }\n  fn inner(&self) {}\n}",
        );
        assert_eq!(fs.fns.len(), 2);
        assert_eq!(fs.fns[0].self_ty.as_deref(), Some("MailboxBus"));
        assert!(fs.fns[0].is_pub && fs.fns[0].has_self);
        assert!(!fs.fns[1].is_pub);
    }

    #[test]
    fn trait_impl_uses_target_type() {
        let fs = parse("impl Iterator for BlockIter { fn next(&mut self) -> Option<u8> { None } }");
        assert_eq!(fs.fns[0].self_ty.as_deref(), Some("BlockIter"));
    }

    #[test]
    fn pub_crate_is_not_public() {
        let fs = parse("pub(crate) fn helper() {} pub fn api() {}");
        assert!(!fs.fns[0].is_pub);
        assert!(fs.fns[1].is_pub);
    }

    #[test]
    fn nested_fns_own_their_tokens() {
        let fs = parse("fn outer() { fn inner() { deep(); } shallow(); }");
        assert_eq!(fs.fns.len(), 2);
        let deep = fs
            .calls
            .iter()
            .find(|c| matches!(&c.callee, Callee::Path { segs } if segs == &["deep"]))
            .unwrap();
        let shallow = fs
            .calls
            .iter()
            .find(|c| matches!(&c.callee, Callee::Path { segs } if segs == &["shallow"]))
            .unwrap();
        let inner_id = fs.fns.iter().position(|f| f.name == "inner").unwrap();
        let outer_id = fs.fns.iter().position(|f| f.name == "outer").unwrap();
        assert_eq!(fs.owner[deep.name_idx], inner_id);
        assert_eq!(fs.owner[shallow.name_idx], outer_id);
    }

    #[test]
    fn struct_fields_recorded() {
        let fs = parse("pub struct SubNet { pub bus: MailboxBus, pds: Vec<Pds>, n: usize }");
        assert_eq!(fs.structs.len(), 1);
        let (name, fields) = &fs.structs[0];
        assert_eq!(name, "SubNet");
        assert_eq!(fields[0].0, "bus");
        assert_eq!(fields[0].1.join(""), "MailboxBus");
        assert_eq!(fields[1].1.join(""), "Vec<Pds>");
    }

    #[test]
    fn method_call_receiver_chain() {
        let fs = parse("fn f(&self) { self.bus.send_in(a, b, payload, ctx); }");
        let call = fs
            .calls
            .iter()
            .find(|c| matches!(&c.callee, Callee::Method { name, .. } if name == "send_in"))
            .unwrap();
        match &call.callee {
            Callee::Method {
                recv: Recv::Chain(chain),
                ..
            } => {
                assert_eq!(chain, &["self", "bus"]);
            }
            other => panic!("unexpected callee {other:?}"),
        }
        assert_eq!(call.args.len(), 4);
    }

    #[test]
    fn indexed_receiver() {
        let fs = parse("fn f(&mut self) { self.pds[i].poll_subscription(id); }");
        let call = fs
            .calls
            .iter()
            .find(
                |c| matches!(&c.callee, Callee::Method { name, .. } if name == "poll_subscription"),
            )
            .unwrap();
        match &call.callee {
            Callee::Method {
                recv: Recv::Indexed(chain),
                ..
            } => assert_eq!(chain, &["self", "pds"]),
            other => panic!("unexpected callee {other:?}"),
        }
    }

    #[test]
    fn call_result_receiver_links_to_prior_call() {
        let fs = parse("fn f() { open_store(path).get(doc); }");
        let get = fs
            .calls
            .iter()
            .find(|c| matches!(&c.callee, Callee::Method { name, .. } if name == "get"))
            .unwrap();
        match &get.callee {
            Callee::Method {
                recv: Recv::Call(ci),
                ..
            } => {
                assert!(
                    matches!(&fs.calls[*ci].callee, Callee::Path { segs } if segs == &["open_store"])
                );
            }
            other => panic!("unexpected callee {other:?}"),
        }
    }

    #[test]
    fn path_calls_and_constructions() {
        let fs =
            parse("fn f() { let m = CellMsg::Push { slice: 0, blob }; DocStore::get(&s, 3); }");
        assert!(fs
            .calls
            .iter()
            .any(|c| matches!(&c.callee, Callee::Path { segs } if segs == &["CellMsg", "Push"])));
        assert!(fs
            .calls
            .iter()
            .any(|c| matches!(&c.callee, Callee::Path { segs } if segs == &["DocStore", "get"])));
        // `fn f(` itself is not a call, and `match x {` is not a construction.
        assert!(!fs
            .calls
            .iter()
            .any(|c| matches!(&c.callee, Callee::Path { segs } if segs == &["f"])));
    }

    #[test]
    fn turbofish_method_call() {
        let fs = parse("fn f(v: Vec<u8>) { v.iter().collect::<Vec<_>>(); }");
        assert!(fs
            .calls
            .iter()
            .any(|c| matches!(&c.callee, Callee::Method { name, .. } if name == "collect")));
    }

    #[test]
    fn panic_sites_by_kind() {
        let fs = parse(
            "fn f(v: &[u8], i: usize, a: u32, b: u32) {\n  v.get(i).unwrap();\n  v.first().expect(\"x\");\n  panic!(\"boom\");\n  assert!(a > 0);\n  let _ = v[i];\n  let _ = a + b;\n}",
        );
        let f = &fs.fns[0];
        let (s, e) = f.body.unwrap();
        let kinds: Vec<PanicKind> = panic_sites(&fs.toks, s, e)
            .into_iter()
            .map(|x| x.0)
            .collect();
        assert!(kinds.contains(&PanicKind::Unwrap));
        assert!(kinds.contains(&PanicKind::Expect));
        assert!(kinds.contains(&PanicKind::Macro));
        assert!(kinds.contains(&PanicKind::Assert));
        assert!(kinds.contains(&PanicKind::Index));
        assert!(kinds.contains(&PanicKind::Arith));
    }

    #[test]
    fn debug_asserts_are_not_sites() {
        let fs = parse("fn f(a: u32) { debug_assert!(a > 0); debug_assert_eq!(a, 1); }");
        let (s, e) = fs.fns[0].body.unwrap();
        assert!(panic_sites(&fs.toks, s, e).is_empty());
    }

    #[test]
    fn saturating_math_is_not_arith_site() {
        let fs = parse("fn f(a: u32, b: u32) -> u32 { a.saturating_add(b) }");
        let (s, e) = fs.fns[0].body.unwrap();
        assert!(panic_sites(&fs.toks, s, e).is_empty());
    }
}
