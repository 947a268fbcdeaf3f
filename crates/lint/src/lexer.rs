//! Token stream over the blanked code channel produced by [`crate::scan`]
//! — the one view of a file every rule reads.
//!
//! The scanner already removed comments and literal *contents*, so the
//! lexer never sees a quote-embedded `fn` or a commented-out call. What
//! remains is a flat token stream — identifiers (including `r#raw`
//! forms), lifetimes, numbers, blanked string/char literals, and
//! punctuation with the few multi-char operators the analyses care
//! about (`::`, `->`, `=>`) pre-joined. The identifier boundary is the
//! lexer's: `assert` is never read out of `debug_assert`.
//!
//! Every token carries its 1-based source line and the line's test flag,
//! so downstream passes (the per-file rules, function extraction, call
//! graph, taint) can report findings at real locations and skip
//! `#[cfg(test)]` regions without re-scanning.

use crate::scan::Line;

/// Lexical class of one token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`fn`, `DocStore`, `send_in`).
    Ident,
    /// Raw identifier (`r#type`); `text` holds the part after `r#`.
    RawIdent,
    /// Lifetime (`'a`, `'static`); `text` holds the part after `'`.
    Lifetime,
    /// Numeric literal (contents as written, suffix included).
    Num,
    /// String literal (contents blanked by the scanner).
    Str,
    /// Char or byte-char literal (contents blanked by the scanner).
    Char,
    /// Punctuation; `::`, `->` and `=>` are single tokens.
    Punct,
}

/// One lexed token with its source position.
#[derive(Debug, Clone)]
pub struct Tok {
    pub kind: TokKind,
    pub text: String,
    /// 1-based source line.
    pub line: usize,
    /// True when the token sits inside test-only code.
    pub is_test: bool,
}

impl Tok {
    /// True for `Ident`/`RawIdent` tokens with exactly this text.
    pub fn is_ident(&self, text: &str) -> bool {
        matches!(self.kind, TokKind::Ident | TokKind::RawIdent) && self.text == text
    }

    /// True for `Punct` tokens with exactly this text.
    pub fn is_punct(&self, text: &str) -> bool {
        self.kind == TokKind::Punct && self.text == text
    }

    /// True for any identifier-like token (keyword, name, raw ident).
    pub fn is_name(&self) -> bool {
        matches!(self.kind, TokKind::Ident | TokKind::RawIdent)
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_ascii_alphabetic() || c == '_'
}

/// The front end's one identifier-character rule (the scanner's raw
/// string prefix check uses it too).
pub(crate) fn is_ident_continue(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Lex the code channel of scanned lines into a token stream.
pub fn lex(lines: &[Line]) -> Vec<Tok> {
    let mut toks = Vec::new();
    for (idx, line) in lines.iter().enumerate() {
        lex_line(&line.code, idx + 1, line.is_test, &mut toks);
    }
    toks
}

fn lex_line(code: &str, line_no: usize, is_test: bool, out: &mut Vec<Tok>) {
    let chars: Vec<char> = code.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        let push = |out: &mut Vec<Tok>, kind: TokKind, text: String| {
            out.push(Tok {
                kind,
                text,
                line: line_no,
                is_test,
            });
        };
        // Raw identifier: r#name (a raw *string* would still show its
        // quote here, which this arm rejects).
        if c == 'r'
            && chars.get(i + 1) == Some(&'#')
            && chars.get(i + 2).copied().is_some_and(is_ident_start)
        {
            let mut j = i + 2;
            while j < chars.len() && is_ident_continue(chars[j]) {
                j += 1;
            }
            push(out, TokKind::RawIdent, chars[i + 2..j].iter().collect());
            i = j;
            continue;
        }
        if is_ident_start(c) {
            let mut j = i + 1;
            while j < chars.len() && is_ident_continue(chars[j]) {
                j += 1;
            }
            // Blanked string body after a raw/byte prefix (`r`, `b`,
            // `br`): fold the prefix into the literal.
            if chars.get(j) == Some(&'"')
                || (chars.get(j) == Some(&'#') && chars[j..].contains(&'"'))
            {
                let prefix: String = chars[i..j].iter().collect();
                if matches!(prefix.as_str(), "r" | "b" | "br" | "rb") {
                    let j2 = skip_str(&chars, j);
                    push(out, TokKind::Str, String::new());
                    i = j2;
                    continue;
                }
            }
            // Byte-char literal prefix: `b'x'`.
            if chars.get(j) == Some(&'\'') && chars[i..j].iter().collect::<String>() == "b" {
                let j2 = skip_char(&chars, j);
                push(out, TokKind::Char, String::new());
                i = j2;
                continue;
            }
            push(out, TokKind::Ident, chars[i..j].iter().collect());
            i = j;
            continue;
        }
        if c.is_ascii_digit() {
            let mut j = i + 1;
            while j < chars.len()
                && (is_ident_continue(chars[j])
                    || (chars[j] == '.'
                        && chars
                            .get(j + 1)
                            .copied()
                            .is_some_and(|d| d.is_ascii_digit())
                        && chars.get(j.wrapping_sub(1)) != Some(&'.')))
            {
                j += 1;
            }
            push(out, TokKind::Num, chars[i..j].iter().collect());
            i = j;
            continue;
        }
        if c == '"' {
            let j = skip_str(&chars, i);
            push(out, TokKind::Str, String::new());
            i = j;
            continue;
        }
        if c == '\'' {
            // Lifetime vs (blanked) char literal: a lifetime is `'` plus
            // an identifier with no closing quote right after.
            let next = chars.get(i + 1).copied();
            if next.is_some_and(is_ident_start) {
                let mut j = i + 1;
                while j < chars.len() && is_ident_continue(chars[j]) {
                    j += 1;
                }
                if chars.get(j) != Some(&'\'') {
                    push(out, TokKind::Lifetime, chars[i + 1..j].iter().collect());
                    i = j;
                    continue;
                }
            }
            let j = skip_char(&chars, i);
            push(out, TokKind::Char, String::new());
            i = j;
            continue;
        }
        // Multi-char punctuation the analyses rely on.
        let two: String = chars[i..(i + 2).min(chars.len())].iter().collect();
        if matches!(two.as_str(), "::" | "->" | "=>") {
            push(out, TokKind::Punct, two);
            i += 2;
            continue;
        }
        push(out, TokKind::Punct, c.to_string());
        i += 1;
    }
}

/// Skip a (blanked) string literal starting at `"` or at a `#` fence.
fn skip_str(chars: &[char], start: usize) -> usize {
    let mut i = start;
    let mut fences = 0usize;
    while chars.get(i) == Some(&'#') {
        fences += 1;
        i += 1;
    }
    debug_assert_eq!(chars.get(i), Some(&'"'));
    i += 1; // opening quote
    while i < chars.len() {
        if chars[i] == '"' {
            // Raw strings close only on `"` + matching fences; the
            // scanner blanked inner quotes, so the first `"` we see is
            // the closer.
            return i + 1 + fences;
        }
        i += 1;
    }
    i
}

/// Skip a (blanked) char literal starting at the opening `'`.
fn skip_char(chars: &[char], start: usize) -> usize {
    debug_assert_eq!(chars.get(start), Some(&'\''));
    let mut i = start + 1;
    while i < chars.len() {
        if chars[i] == '\'' {
            return i + 1;
        }
        i += 1;
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::scan;

    fn lex_src(src: &str) -> Vec<Tok> {
        lex(&scan(src))
    }

    #[test]
    fn idents_and_calls() {
        let toks = lex_src("fn f() { bus.send_in(a, b); }");
        let names: Vec<&str> = toks
            .iter()
            .filter(|t| t.is_name())
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(names, ["fn", "f", "bus", "send_in", "a", "b"]);
    }

    #[test]
    fn path_punct_joined() {
        let toks = lex_src("DocStore::get(x)->y => z");
        let puncts: Vec<&str> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Punct)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(puncts, ["::", "(", ")", "->", "=>"]);
    }

    #[test]
    fn lifetime_vs_char_literal() {
        let toks = lex_src("fn f<'a>(x: &'a str) { let c = 'a'; let s = 'static; }");
        let lifetimes: Vec<&String> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .map(|t| &t.text)
            .collect();
        assert_eq!(lifetimes, ["a", "a", "static"]);
        assert_eq!(
            toks.iter().filter(|t| t.kind == TokKind::Char).count(),
            1,
            "exactly the 'a' literal"
        );
    }

    #[test]
    fn byte_and_escaped_char_literals() {
        let toks = lex_src(r"let x = b'x'; let q = '\''; let u = '\u{41}'; go();");
        assert_eq!(toks.iter().filter(|t| t.kind == TokKind::Char).count(), 3);
        // The trailing call still lexes cleanly after the tricky literals.
        assert!(toks.iter().any(|t| t.is_ident("go")));
    }

    #[test]
    fn raw_identifiers() {
        let toks = lex_src("fn r#type(r#fn: u32) { r#match(); }");
        let raws: Vec<&String> = toks
            .iter()
            .filter(|t| t.kind == TokKind::RawIdent)
            .map(|t| &t.text)
            .collect();
        assert_eq!(raws, ["type", "fn", "match"]);
    }

    #[test]
    fn raw_strings_with_fences() {
        let toks = lex_src(r###"let s = r##"has "quotes" and fn fake()"##; real();"###);
        assert_eq!(toks.iter().filter(|t| t.kind == TokKind::Str).count(), 1);
        assert!(toks.iter().any(|t| t.is_ident("real")));
        assert!(!toks.iter().any(|t| t.is_ident("fake")));
    }

    #[test]
    fn nested_block_comments_blanked() {
        let toks = lex_src("before(); /* outer /* inner() */ still_comment() */ after();");
        assert!(toks.iter().any(|t| t.is_ident("before")));
        assert!(toks.iter().any(|t| t.is_ident("after")));
        assert!(!toks.iter().any(|t| t.is_ident("inner")));
        assert!(!toks.iter().any(|t| t.is_ident("still_comment")));
    }

    #[test]
    fn numbers_including_float_and_range() {
        let toks = lex_src("let a = 1.5; let b = 0..10; let c = 0xFFu32;");
        let nums: Vec<&String> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Num)
            .map(|t| &t.text)
            .collect();
        assert_eq!(nums, ["1.5", "0", "10", "0xFFu32"]);
    }

    #[test]
    fn non_ascii_code_before_a_raw_string() {
        // Multi-byte chars before a `#` fence: the fence's quote is
        // looked up by char index, never by byte offset.
        let toks = lex_src("fn f() { let ééééé = r#\"x\"#; }");
        assert_eq!(toks.iter().filter(|t| t.kind == TokKind::Str).count(), 1);
        assert!(toks.iter().any(|t| t.is_ident("let")));
        assert!(!toks.iter().any(|t| t.is_ident("r")));
    }

    #[test]
    fn test_region_flag_carried() {
        let src = "fn prod() {}\n#[cfg(test)]\nmod t {\n    fn helper() {}\n}\n";
        let toks = lex_src(src);
        let prod = toks.iter().find(|t| t.is_ident("prod")).unwrap();
        let helper = toks.iter().find(|t| t.is_ident("helper")).unwrap();
        assert!(!prod.is_test);
        assert!(helper.is_test);
    }
}
