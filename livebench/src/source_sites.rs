//! Places in an alive source where the `typing` scripts type: string
//! literals inside `render` bodies, the start of each `render` body,
//! and non-zero numeric literals inside `init` blocks and handlers.
//!
//! A small scanner, not the real lexer: it knows strings, `//`
//! comments and braces, which is all the corpus programs need. Every
//! site it finds is checked the only way that matters — the session
//! compiles the typed text or rejects it.

use std::ops::Range;

#[derive(Debug, Clone, Default)]
pub struct Sites {
    /// Content ranges (between the quotes) of string literals in render
    /// bodies that hold no escapes.
    pub render_literals: Vec<Range<usize>>,
    /// Byte offsets just after each `render {` line.
    pub render_starts: Vec<usize>,
    /// Byte ranges of non-zero numeric literals in `init` blocks and
    /// `on …` handlers.
    pub numbers: Vec<Range<usize>>,
}

/// Byte ranges of every string literal's content, and a mask of the
/// bytes that are code (not inside a string or comment).
fn scan(src: &str) -> (Vec<Range<usize>>, Vec<bool>) {
    let bytes = src.as_bytes();
    let mut code = vec![true; bytes.len()];
    let mut strings = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'"' => {
                let start = i + 1;
                let mut j = start;
                while j < bytes.len() && bytes[j] != b'"' {
                    j += if bytes[j] == b'\\' { 2 } else { 1 };
                }
                let end = j.min(bytes.len());
                code[i..(end + 1).min(bytes.len())].fill(false);
                strings.push(start..end);
                i = end + 1;
            }
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                let end = src[i..].find('\n').map_or(bytes.len(), |n| i + n);
                code[i..end].fill(false);
                i = end;
            }
            _ => i += 1,
        }
    }
    (strings, code)
}

/// The body range (after `{`, up to the matching `}`) of every block
/// opened by a line containing `head`.
fn blocks(src: &str, code: &[bool], head: &str) -> Vec<Range<usize>> {
    let bytes = src.as_bytes();
    let mut out = Vec::new();
    for (at, _) in src.match_indices(head) {
        if !code[at] {
            continue;
        }
        let Some(open) = (at..bytes.len()).find(|&k| code[k] && bytes[k] == b'{') else {
            continue;
        };
        let mut depth = 0usize;
        for (k, &b) in bytes.iter().enumerate().skip(open) {
            if !code[k] {
                continue;
            }
            match b {
                b'{' => depth += 1,
                b'}' => {
                    depth -= 1;
                    if depth == 0 {
                        out.push(open + 1..k);
                        break;
                    }
                }
                _ => {}
            }
        }
    }
    out
}

pub fn sites(src: &str) -> Sites {
    let (strings, code) = scan(src);
    let bytes = src.as_bytes();
    let render = blocks(src, &code, "render {");
    let inside = |ranges: &[Range<usize>], at: usize| ranges.iter().any(|r| r.contains(&at));
    let render_literals = strings
        .iter()
        .filter(|s| inside(&render, s.start) && !s.is_empty() && !src[(*s).clone()].contains('\\'))
        .cloned()
        .collect();
    let render_starts = render
        .iter()
        .filter_map(|r| src[r.clone()].find('\n').map(|n| r.start + n + 1))
        .collect();
    let mut handlers = blocks(src, &code, "init {");
    handlers.extend(blocks(src, &code, "on tap"));
    handlers.extend(blocks(src, &code, "on edited"));
    let mut numbers = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let starts_number = code[i]
            && bytes[i].is_ascii_digit()
            && (i == 0 || !(bytes[i - 1].is_ascii_alphanumeric() || bytes[i - 1] == b'_'));
        if !starts_number {
            i += 1;
            continue;
        }
        let end = (i..bytes.len())
            .find(|&k| !bytes[k].is_ascii_digit())
            .unwrap_or(bytes.len());
        if bytes[i] != b'0' && bytes.get(end) != Some(&b'.') && inside(&handlers, i) {
            numbers.push(i..end);
        }
        i = end;
    }
    Sites {
        render_literals,
        render_starts,
        numbers,
    }
}
