//! Fuzz-style property tests: the lexer and parser are total — they
//! never panic and always terminate, whatever bytes arrive. This is
//! what lets the live editor run them on every keystroke.

use alive_syntax::{lexer, parse_program, pretty_program, Diagnostics, IncrementalParser};
use alive_testkit::{prop, prop_assert, prop_assert_eq, NoShrink, Rng};

fn lexer_total_on(src: &str) -> Result<(), String> {
    let mut diags = Diagnostics::new();
    let tokens = lexer::lex(src, &mut diags);
    // Always Eof-terminated, spans in bounds and non-decreasing.
    prop_assert!(matches!(
        tokens.last().map(|t| &t.kind),
        Some(alive_syntax::token::TokenKind::Eof)
    ));
    let mut prev_start = 0u32;
    for t in &tokens {
        prop_assert!(t.span.end as usize <= src.len());
        prop_assert!(t.span.start >= prev_start);
        prev_start = t.span.start;
    }
    Ok(())
}

#[test]
fn lexer_is_total() {
    // The historical shrunk regression (an unterminated string ending
    // in a backslash), replayed deterministically before random cases.
    lexer_total_on("\"\\").expect("regression stays fixed");
    prop::check(
        "lexer_is_total",
        prop::Config::with_cases(512),
        |rng| rng.any_string(80),
        |src: &String| lexer_total_on(src),
    );
}

#[test]
fn parser_is_total() {
    // Same historical regression through the whole parser.
    let _ = pretty_program(&parse_program("\"\\").program);
    prop::check(
        "parser_is_total",
        prop::Config::with_cases(512),
        |rng| rng.any_string(80),
        |src: &String| {
            let result = parse_program(src);
            // Whatever happened, pretty-printing the (possibly partial)
            // program must not panic either.
            let _ = pretty_program(&result.program);
            Ok(())
        },
    );
}

/// Code-shaped token soup: keywords, punctuation, identifiers, numbers.
fn codeish(rng: &mut Rng) -> String {
    const PIECES: &[&str] = &[
        "global", "fun", "page", "boxed", "post", "if", "{", "}", "(", ")", ";", ":=", " ", "\n",
    ];
    let n = rng.below(60);
    let mut out = String::new();
    for _ in 0..n {
        match rng.below(10) {
            0..=6 => out.push_str(rng.choose::<&str>(PIECES)),
            7 => out.push_str(&rng.string_in("abcdefghijklmnopqrstuvwxyz", 1, 6)),
            _ => out.push_str(&rng.string_in("0123456789", 1, 4)),
        }
    }
    out
}

#[test]
fn parser_is_total_on_codeish_input() {
    prop::check(
        "parser_is_total_on_codeish_input",
        prop::Config::with_cases(512),
        codeish,
        |src: &String| {
            let result = parse_program(src);
            let _ = pretty_program(&result.program);
            Ok(())
        },
    );
}

/// The incremental parser agrees with the full parser on every input,
/// including arbitrary garbage, across a sequence of edits sharing one
/// cache.
#[test]
fn incremental_parse_equals_full_parse() {
    fn item_soup(rng: &mut Rng) -> String {
        let mut out = String::new();
        for _ in 0..rng.below(6) {
            match rng.below(3) {
                0 => out.push_str(&format!(
                    "global {} : number = {}\n",
                    rng.string_in("abcdefgh", 1, 4),
                    rng.below(100)
                )),
                1 => out.push_str(&format!(
                    "fun {}() : number pure {{ {} }}\n",
                    rng.string_in("abcdefgh", 1, 4),
                    rng.below(100)
                )),
                _ => out.push_str("page start() { render { } }\n"),
            }
        }
        out
    }
    prop::check(
        "incremental_parse_equals_full_parse",
        prop::Config::with_cases(256),
        |rng| {
            let n = rng.gen_range(1..6);
            (0..n)
                .map(|_| {
                    if rng.gen_bool() {
                        rng.any_string(60)
                    } else {
                        item_soup(rng)
                    }
                })
                .collect::<Vec<String>>()
        },
        |sources: &Vec<String>| {
            let mut inc = IncrementalParser::new();
            for src in sources {
                let incremental = inc.parse(src);
                let full = parse_program(src);
                prop_assert_eq!(&incremental.program, &full.program);
                prop_assert_eq!(
                    incremental.diagnostics.into_vec(),
                    full.diagnostics.into_vec()
                );
            }
            Ok(())
        },
    );
}

#[test]
fn accepted_programs_pretty_roundtrip() {
    prop::check(
        "accepted_programs_pretty_roundtrip",
        prop::Config::with_cases(256),
        |rng| {
            let n = rng.gen_range(1..5);
            NoShrink(
                (0..n)
                    .map(|_| {
                        let head = rng.string_in("abcdefghijklmnopqrstuvwxyz", 1, 1);
                        let tail = rng.string_in("abcdefghijklmnopqrstuvwxyz0123456789_", 0, 8);
                        format!("{head}{tail}")
                    })
                    .collect::<Vec<String>>(),
            )
        },
        |names: &NoShrink<Vec<String>>| {
            // Generate a simple but valid program from identifier soup.
            let mut src = String::new();
            for (i, n) in names.0.iter().enumerate() {
                src.push_str(&format!("global g_{n}_{i} : number = {i}\n"));
            }
            src.push_str("page start() { render {\n");
            for (i, n) in names.0.iter().enumerate() {
                src.push_str(&format!("boxed {{ post g_{n}_{i}; }}\n"));
            }
            src.push_str("} }\n");
            let first = parse_program(&src);
            prop_assert!(first.is_ok(), "{}", first.diagnostics.render(&src));
            let printed = pretty_program(&first.program);
            let second = parse_program(&printed);
            prop_assert!(second.is_ok(), "{}", second.diagnostics.render(&printed));
            prop_assert_eq!(printed, pretty_program(&second.program));
            Ok(())
        },
    );
}

/// Deeply nested input: one of the nesting forms (parentheses, unary
/// operators, lists, calls, `if` blocks, lambdas, operator chains)
/// repeated up to 6,000 times inside a page body, then closed.
fn deep_nesting(rng: &mut Rng) -> (String, usize) {
    const FORMS: &[(&str, &str)] = &[
        ("(", ")"),
        ("-", ""),
        ("!", ""),
        ("[", "]"),
        ("f(", ")"),
        ("if true { ", " } else { 0 }"),
        ("fn(x: number) -> ", ""),
        ("boxed { post ", "; }"),
        ("1 + ", ""),
    ];
    let depth = match rng.below(3) {
        0 => rng.below(alive_syntax::MAX_NESTING / 2),
        1 => rng.below(1_000),
        _ => rng.below(6_000),
    };
    let (open, close) = *rng.choose(FORMS);
    let closed = rng.chance(4, 5);
    let body = format!(
        "{}1{}",
        open.repeat(depth),
        if closed {
            close.repeat(depth)
        } else {
            String::new()
        }
    );
    (
        format!("page start() {{ render {{ post {body}; }} }}"),
        depth,
    )
}

#[test]
fn parser_is_total_on_deep_nesting() {
    // The measured crash: 3,000 nested parentheses overflowed the stack.
    let (open, close) = ("(".repeat(3_000), ")".repeat(3_000));
    let src = format!("page start() {{ render {{ post {open}1{close}; }} }}");
    let result = parse_program(&src);
    assert!(result.diagnostics.has_errors(), "too deep to accept");
    assert_eq!(
        result.diagnostics.into_vec().len(),
        1,
        "one nesting diagnostic, no cascade"
    );
    prop::check(
        "parser_is_total_on_deep_nesting",
        prop::Config::with_cases(64),
        |rng| NoShrink(deep_nesting(rng)),
        |case: &NoShrink<(String, usize)>| {
            let (src, depth) = &case.0;
            let result = parse_program(src);
            let _ = pretty_program(&result.program);
            if *depth > alive_syntax::MAX_NESTING {
                prop_assert!(
                    result.diagnostics.has_errors(),
                    "{depth} levels must be rejected"
                );
            }
            Ok(())
        },
    );
}

/// One statement of a long block, drawn from the forms a page body
/// holds; `i` keeps the names distinct.
fn statement(rng: &mut Rng, i: usize) -> String {
    match rng.below(5) {
        0 => format!("let a{i} = {i};"),
        1 => format!("g := g + {i};"),
        2 => format!("post \"row {i}\";"),
        3 => format!("boxed {{ post {i}; }}"),
        _ => format!("f({i});"),
    }
}

/// A long block: `before` statements, then an `if` whose block holds
/// `inner` statements, then `after` statements. Returns the source and
/// the longest statement chain in it — what the parser counts against
/// `MAX_STATEMENTS`: an inner statement follows the `before` ones, and
/// the `if` itself counts once its block closes.
fn long_block(rng: &mut Rng) -> (String, usize) {
    let mut len = || match rng.below(4) {
        0 => rng.below(alive_syntax::MAX_STATEMENTS / 2),
        1 => rng.below(2 * alive_syntax::MAX_STATEMENTS),
        2 => rng.below(5_000),
        _ => rng.below(100_000),
    };
    let (before, inner, after) = (len(), len() / 8, len() / 8);
    let mut body = String::new();
    let mut i = 0;
    let mut push = |body: &mut String, rng: &mut Rng, n: usize| {
        for _ in 0..n {
            body.push_str(&statement(rng, i));
            body.push('\n');
            i += 1;
        }
    };
    push(&mut body, rng, before);
    body.push_str("if g == 0 {\n");
    push(&mut body, rng, inner);
    body.push_str("}\n");
    push(&mut body, rng, after);
    let chain = (before + inner).max(before + 1 + after);
    (format!("page start() {{ init {{\n{body}}} }}"), chain)
}

#[test]
fn parser_is_total_on_long_input() {
    // The measured crash: 5,000 flat `let`s overflowed a 2 MiB thread
    // in the passes after the parser; 100,000 overflowed a host worker.
    let lets: String = (0..100_000).map(|i| format!("let a{i} = {i};\n")).collect();
    let result = parse_program(&format!("page start() {{ init {{\n{lets}}} }}"));
    let diagnostics = result.diagnostics.into_vec();
    assert_eq!(diagnostics.len(), 1, "one diagnostic, no cascade");
    assert!(
        diagnostics[0].message.contains("statements"),
        "{diagnostics:?}"
    );

    // A 100,000-link `else if` chain nests: it is bounded by the
    // nesting budget, not parsed by recursion.
    let chain =
        "if g == 0 { g := 0; }".to_string() + &" else if g == 1 { g := 1; }".repeat(100_000);
    let result = parse_program(&format!("page start() {{ init {{ {chain} }} }}"));
    assert_eq!(result.diagnostics.into_vec().len(), 1, "else-if chain");

    prop::check(
        "parser_is_total_on_long_input",
        prop::Config::with_cases(64),
        |rng| NoShrink(long_block(rng)),
        |case: &NoShrink<(String, usize)>| {
            let (src, chain) = &case.0;
            let result = parse_program(src);
            let _ = pretty_program(&result.program);
            if *chain > alive_syntax::MAX_STATEMENTS {
                let diagnostics = result.diagnostics.into_vec();
                prop_assert_eq!(diagnostics.len(), 1);
                prop_assert!(
                    diagnostics[0].message.contains("statements"),
                    "{chain} statements must be rejected: {diagnostics:?}"
                );
            } else {
                prop_assert!(
                    result.is_ok(),
                    "{chain} statements must parse: {}",
                    result.diagnostics.render(src)
                );
            }
            Ok(())
        },
    );
}
