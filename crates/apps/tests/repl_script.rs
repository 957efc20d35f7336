//! The repl driven by a piped script: wire commands typed after `:`,
//! repl-local commands, a refused and an unknown command — and the
//! trace it prints replays to the source it shows.

use alive_live::SessionTrace;
use std::io::Write;
use std::process::{Command, Stdio};

const SCRIPT: &str = "\
:tap 1 1
:editbox 2 0 -- 15
:attredit 0 margin -- 2
:undo
:tap 9 9
:frobnicate 3
:src
:trace
:quit
";

/// Run the repl on the mortgage demo with `SCRIPT` on stdin and split
/// its stdout at the prompts: element 0 is the banner and first view,
/// element `i` is the answer to the script's `i`-th line.
fn run_script() -> Vec<String> {
    let mut child = Command::new(env!("CARGO_BIN_EXE_alive-repl"))
        .arg("mortgage")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("the repl starts");
    child
        .stdin
        .take()
        .expect("stdin is piped")
        .write_all(SCRIPT.as_bytes())
        .expect("the script is written");
    let output = child.wait_with_output().expect("the repl exits");
    assert!(output.status.success(), "the repl failed: {output:?}");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    stdout.split("alive> ").map(str::to_string).collect()
}

#[test]
fn scripted_session_answers_and_its_trace_replays() {
    let answers = run_script();
    assert_eq!(answers.len(), SCRIPT.lines().count() + 1, "{answers:#?}");
    let [_, tap, editbox, attredit, undo, refused, unknown, src, trace, quit] = &answers[..] else {
        unreachable!("checked above");
    };

    assert!(tap.contains("9025 Cedar Ln #1"), "detail page: {tap}");
    assert!(editbox.contains("monthly payment: $1462.97"), "{editbox}");
    assert!(attredit.starts_with("applied.\n"), "{attredit}");
    assert!(undo.starts_with("undone.\n"), "{undo}");
    assert_eq!(
        refused,
        "tap failed: action failed: no box at path [9, 9]\n"
    );
    assert_eq!(unknown, "unknown command `frobnicate` — :help\n");
    assert_eq!(quit, "");

    // `:src` prints `{line:>4} | {text}`; recover the text.
    let shown: Vec<&str> = src
        .lines()
        .map(|l| l.split_once(" | ").map_or(l, |(_, text)| text))
        .collect();
    assert!(shown.len() > 10, "{src}");

    // The printed trace is the session: it parses, holds every command
    // of the script that reached the session, and replays to the
    // source `:src` showed, with the edited term.
    let trace = SessionTrace::parse(trace).expect("the printed trace parses");
    let wire: String = trace.commands.iter().map(|c| c.serialize()).collect();
    assert_eq!(
        wire,
        "frame\ntap 1 1\neditbox 2 0 -- 15\nattredit 0 margin -- 2\nundo\ntap 9 9\nsource\n"
    );
    let replayed = trace.replay().expect("the trace replays");
    assert_eq!(replayed.source().lines().collect::<Vec<_>>(), shown);
    assert_eq!(
        replayed.system().store().get("term"),
        Some(&alive_core::Value::Number(15.0))
    );
    assert!(!replayed.source().contains("box.margin := 2;"), "undone");
}
