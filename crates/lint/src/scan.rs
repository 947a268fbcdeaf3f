//! The first stage of the front end: a char-level pass that splits a
//! Rust source into the lexer's input and the waiver source. No rule
//! reads it directly.
//!
//! The scanner walks the source once and produces, per line:
//!
//! - the **code text** with comments and string/char-literal *contents*
//!   blanked out (quotes are kept), which [`crate::lexer`] turns into
//!   the one token stream every rule reads — so no rule token can come
//!   from a string or a comment, and brace counting is exact;
//! - the **comment text** with everything else blanked, so waiver
//!   comments (`// pds-lint: allow(rule) — reason`) can be parsed;
//! - whether the line belongs to **test code** (`#[cfg(test)]` /
//!   `#[test]` items, or a file whose inner attributes — before its first
//!   item, after its module doc — include `#![cfg(test)]`), which the
//!   invariants deliberately exempt.
//!
//! Handled lexical forms: line comments, nested block comments, string
//! literals with escapes, raw (and byte/raw-byte) strings with `#`
//! fences, char and byte-char literals, and the char-literal/lifetime
//! ambiguity (`'a'` vs `<'a>`).

use crate::lexer::is_ident_continue;

/// One scanned source line.
#[derive(Debug, Clone)]
pub struct Line {
    /// Code with comments and literal contents blanked (same length and
    /// column positions as the original line).
    pub code: String,
    /// Comment text of this line with code blanked, if any comment.
    pub comment: Option<String>,
    /// True when the line sits inside test-only code.
    pub is_test: bool,
}

/// Lexer state carried across characters.
#[derive(Debug, Clone, Copy, PartialEq)]
enum State {
    Code,
    LineComment,
    BlockComment(u32),
    Str,
    RawStr(u32),
    Char,
}

/// Scan `source` into per-line code/comment channels with test-region
/// marking.
pub fn scan(source: &str) -> Vec<Line> {
    let (code_text, comment_text) = split_channels(source);
    let code_lines: Vec<&str> = code_text.split('\n').collect();
    let comment_lines: Vec<&str> = comment_text.split('\n').collect();
    let test_flags = mark_test_regions(&code_lines);
    code_lines
        .iter()
        .enumerate()
        .map(|(i, code)| {
            let comment = comment_lines.get(i).and_then(|c| {
                if c.trim().is_empty() {
                    None
                } else {
                    Some((*c).to_string())
                }
            });
            Line {
                code: (*code).to_string(),
                comment,
                is_test: test_flags.get(i).copied().unwrap_or(false),
            }
        })
        .collect()
}

/// Split the source into a code channel and a comment channel of equal
/// shape (newlines preserved, everything else blanked per channel).
fn split_channels(source: &str) -> (String, String) {
    let chars: Vec<char> = source.chars().collect();
    let mut code = String::with_capacity(source.len());
    let mut comment = String::with_capacity(source.len());
    let mut state = State::Code;
    // Number of `#` fence characters of the current raw string.
    let mut raw_fence = 0u32;
    let mut i = 0usize;

    // Push `c` to the active channel, a blank to the other; newlines go
    // to both so line structure is identical.
    macro_rules! emit {
        (code $c:expr) => {{
            if $c == '\n' {
                code.push('\n');
                comment.push('\n');
            } else {
                code.push($c);
                comment.push(' ');
            }
        }};
        (comment $c:expr) => {{
            if $c == '\n' {
                code.push('\n');
                comment.push('\n');
            } else {
                code.push(' ');
                comment.push($c);
            }
        }};
        (blank $c:expr) => {{
            if $c == '\n' {
                code.push('\n');
                comment.push('\n');
            } else {
                code.push(' ');
                comment.push(' ');
            }
        }};
    }

    while i < chars.len() {
        let c = chars[i];
        let next = chars.get(i + 1).copied();
        match state {
            State::Code => {
                if c == '/' && next == Some('/') {
                    state = State::LineComment;
                    emit!(comment c);
                    emit!(comment '/');
                    i += 2;
                    continue;
                }
                if c == '/' && next == Some('*') {
                    state = State::BlockComment(1);
                    emit!(comment c);
                    emit!(comment '*');
                    i += 2;
                    continue;
                }
                if c == '"' {
                    // Look back over `b` / `r` / `#` to see if this is a
                    // raw string opening; the prefix chars were already
                    // emitted as code, which is harmless.
                    let mut j = i;
                    let mut fence = 0u32;
                    while j > 0 && chars[j - 1] == '#' {
                        j -= 1;
                        fence += 1;
                    }
                    // A true raw-string prefix is `r` / `br` standing
                    // alone, not an identifier that happens to end in r.
                    let is_raw = j > 0 && chars[j - 1] == 'r' && {
                        let before = if j >= 2 { Some(chars[j - 2]) } else { None };
                        match before {
                            Some('b') => j < 3 || !is_ident_continue(chars[j - 3]),
                            Some(c) => !is_ident_continue(c),
                            None => true,
                        }
                    };
                    if is_raw {
                        raw_fence = fence;
                        state = State::RawStr(fence);
                    } else {
                        state = State::Str;
                    }
                    emit!(code c); // keep the quote in the code channel
                    i += 1;
                    continue;
                }
                if c == '\'' {
                    // Char literal iff it closes within two chars
                    // (`'x'`) or starts with an escape (`'\n'`);
                    // otherwise it is a lifetime, which stays code.
                    let c1 = chars.get(i + 1).copied();
                    let c2 = chars.get(i + 2).copied();
                    if c1 == Some('\\') || (c1.is_some() && c2 == Some('\'')) {
                        state = State::Char;
                        emit!(code c);
                        i += 1;
                        continue;
                    }
                }
                emit!(code c);
                i += 1;
            }
            State::LineComment => {
                if c == '\n' {
                    state = State::Code;
                    emit!(blank c);
                } else {
                    emit!(comment c);
                }
                i += 1;
            }
            State::BlockComment(depth) => {
                if c == '/' && next == Some('*') {
                    state = State::BlockComment(depth + 1);
                    emit!(comment c);
                    emit!(comment '*');
                    i += 2;
                } else if c == '*' && next == Some('/') {
                    state = if depth == 1 {
                        State::Code
                    } else {
                        State::BlockComment(depth - 1)
                    };
                    emit!(comment c);
                    emit!(comment '/');
                    i += 2;
                } else {
                    emit!(comment c);
                    i += 1;
                }
            }
            State::Str => {
                if c == '\\' {
                    emit!(blank c);
                    if let Some(n) = next {
                        emit!(blank n);
                    }
                    i += 2;
                } else if c == '"' {
                    state = State::Code;
                    emit!(code c);
                    i += 1;
                } else {
                    emit!(blank c);
                    i += 1;
                }
            }
            State::RawStr(fence) => {
                if c == '"' {
                    // Closed only when followed by `fence` hashes.
                    let mut ok = true;
                    for k in 0..fence as usize {
                        if chars.get(i + 1 + k) != Some(&'#') {
                            ok = false;
                            break;
                        }
                    }
                    if ok {
                        emit!(code c);
                        for _ in 0..fence {
                            emit!(code '#');
                        }
                        i += 1 + fence as usize;
                        state = State::Code;
                        let _ = raw_fence;
                        continue;
                    }
                }
                emit!(blank c);
                i += 1;
            }
            State::Char => {
                if c == '\\' {
                    emit!(blank c);
                    if let Some(n) = next {
                        emit!(blank n);
                    }
                    i += 2;
                } else if c == '\'' {
                    state = State::Code;
                    emit!(code c);
                    i += 1;
                } else {
                    emit!(blank c);
                    i += 1;
                }
            }
        }
    }
    (code, comment)
}

/// Mark lines that belong to `#[cfg(test)]` / `#[test]` items (or to a
/// file that opens with `#![cfg(test)]`). Works on the blanked code
/// channel, so brace counting is exact.
fn mark_test_regions(code_lines: &[&str]) -> Vec<bool> {
    if opens_with_cfg_test(code_lines) {
        return vec![true; code_lines.len()];
    }
    let mut flags = vec![false; code_lines.len()];
    let mut depth: i64 = 0;
    // Depth at which the current test item opened, if inside one.
    let mut test_at: Option<i64> = None;
    // A test attribute was seen; waiting for the decorated item.
    let mut pending = false;
    for (i, line) in code_lines.iter().enumerate() {
        let t = line.trim();
        if test_at.is_none() && (t.contains("#[cfg(test)]") || t.starts_with("#[test]")) {
            pending = true;
        }
        let opens = line.matches('{').count() as i64;
        let closes = line.matches('}').count() as i64;
        if pending && test_at.is_none() {
            flags[i] = true; // the attribute / header lines themselves
            if opens > 0 {
                // The decorated item's body starts here.
                test_at = Some(depth);
                pending = false;
            } else if t.ends_with(';') && !t.starts_with("#[") {
                // `#[cfg(test)] mod x;` — body lives in another file.
                pending = false;
                flags[i] = true;
            }
        }
        if test_at.is_some() {
            flags[i] = true;
        }
        depth += opens - closes;
        if let Some(at) = test_at {
            if depth <= at {
                test_at = None;
            }
        }
    }
    flags
}

/// Whether the file's inner attributes — all that comes before its first
/// item, inner doc comments aside (the code channel has them blanked) —
/// include `#![cfg(test)]`, which makes the whole file test code however
/// long its module doc runs.
fn opens_with_cfg_test(code_lines: &[&str]) -> bool {
    let code = code_lines.join("\n");
    let mut rest = code.trim_start();
    while let Some(attr) = rest.strip_prefix("#!") {
        let Some(body) = attr.trim_start().strip_prefix('[') else {
            return false;
        };
        let mut depth = 1;
        let close = body.char_indices().find(|&(_, c)| {
            depth += match c {
                '[' => 1,
                ']' => -1,
                _ => 0,
            };
            depth == 0
        });
        let Some((end, _)) = close else {
            return false;
        };
        let inner: String = body[..end].chars().filter(|c| !c.is_whitespace()).collect();
        if inner == "cfg(test)" {
            return true;
        }
        rest = body[end + 1..].trim_start();
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_and_comments_are_blanked() {
        let src = r#"let x = "HashMap ok"; // HashMap in comment
let m = HashMap::new();"#;
        let lines = scan(src);
        assert!(!lines[0].code.contains("HashMap"));
        assert!(lines[0].comment.as_deref().unwrap().contains("HashMap"));
        assert!(lines[1].code.contains("HashMap"));
    }

    #[test]
    fn raw_strings_are_blanked() {
        let src = "let s = r#\"panic! inside\"#; panic!(\"x\")";
        let lines = scan(src);
        let code = &lines[0].code;
        // Only the real macro invocation survives in the code channel.
        assert_eq!(code.matches("panic!").count(), 1);
        assert!(code.contains("panic!("));
    }

    #[test]
    fn char_literals_do_not_eat_code() {
        let src = "let c = '\"'; let m = HashMap::new(); let lt: &'static str = \"x\";";
        let lines = scan(src);
        assert!(lines[0].code.contains("HashMap"));
        assert!(lines[0].code.contains("'static"));
    }

    #[test]
    fn nested_block_comments() {
        let src = "/* a /* b */ HashMap */ HashSet";
        let lines = scan(src);
        assert!(!lines[0].code.contains("HashMap"));
        assert!(lines[0].code.contains("HashSet"));
    }

    #[test]
    fn cfg_test_mod_is_marked() {
        let src = "fn real() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n    fn t() { y.unwrap(); }\n}\nfn real2() {}\n";
        let lines = scan(src);
        assert!(!lines[0].is_test);
        assert!(lines[1].is_test && lines[2].is_test && lines[3].is_test && lines[4].is_test);
        assert!(!lines[5].is_test);
    }

    #[test]
    fn test_attribute_fn_is_marked() {
        let src = "#[test]\nfn t() {\n    a.unwrap();\n}\nfn real() {}\n";
        let lines = scan(src);
        assert!(lines[0].is_test && lines[1].is_test && lines[2].is_test && lines[3].is_test);
        assert!(!lines[4].is_test);
    }

    #[test]
    fn cfg_test_mod_decl_without_body() {
        let src = "#[cfg(test)]\nmod proptests;\nfn real() {}\n";
        let lines = scan(src);
        assert!(lines[0].is_test && lines[1].is_test);
        assert!(!lines[2].is_test);
    }

    #[test]
    fn inner_cfg_test_marks_whole_file() {
        let src = "//! doc\n#![cfg(test)]\nfn helper() { x.unwrap(); }\n";
        let lines = scan(src);
        assert!(lines.iter().all(|l| l.is_test));
    }

    #[test]
    fn inner_cfg_test_counts_wherever_the_module_doc_ends() {
        // Thirty lines of doc, other inner attributes before it, one of
        // them over two lines.
        let doc = "//! a long module doc\n".repeat(30);
        let src = format!(
            "{doc}\n#![allow(\n    dead_code\n)]\n#![ cfg( test ) ]\nfn helper() {{ x.unwrap(); }}\n"
        );
        let lines = scan(&src);
        assert!(lines.iter().all(|l| l.is_test));
        // An inner attribute after the first item is not the file's.
        let src = "fn real() { x.unwrap(); }\nmod m {\n    #![cfg(test)]\n}\n";
        assert!(!scan(src)[0].is_test);
        let src = "#![allow(dead_code)]\nfn real() { x.unwrap(); }\n";
        assert!(!scan(src)[1].is_test);
    }
}
