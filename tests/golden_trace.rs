//! Golden session trace: the paper's whole §2/§3 editing session —
//! navigate, edit the term, apply I1–I3 live, go back — recorded once
//! into `tests/data/mortgage_session.trace` and replayed on every test
//! run. Any semantic drift (parser, evaluator, layout, fix-up) shows up
//! as a replay divergence here.

use its_alive::apps::mortgage;
use its_alive::live::{RecordingSession, SessionCommand, SessionEffect, SessionTrace};

const GOLDEN_PATH: &str = "tests/data/mortgage_session.trace";

/// Apply a command the recording script expects to be delivered.
fn apply(rec: &mut RecordingSession, command: SessionCommand) {
    let effects = rec.apply(command);
    assert!(
        !effects
            .iter()
            .any(|e| matches!(e, SessionEffect::Refused(_))),
        "refused: {effects:?}"
    );
}

/// Re-record the golden trace (run with
/// `cargo test --test golden_trace -- --ignored bless`).
fn record() -> (RecordingSession, SessionTrace) {
    let src = mortgage::mortgage_src(5);
    let mut rec = RecordingSession::new(&src).expect("starts");
    apply(&mut rec, SessionCommand::TapPath(vec![1, 1])); // open second listing
    apply(
        &mut rec,
        SessionCommand::EditBox {
            path: vec![2, 0],
            text: "15".into(),
        },
    ); // term := 15
    apply(
        &mut rec,
        SessionCommand::EditSource(mortgage::apply_improvement_i2(&src)),
    );
    let with_i2 = rec.session().source().to_string();
    apply(
        &mut rec,
        SessionCommand::EditSource(mortgage::apply_improvement_i3(&with_i2)),
    );
    apply(&mut rec, SessionCommand::Back); // back to listings
    let with_i3 = rec.session().source().to_string();
    apply(
        &mut rec,
        SessionCommand::EditSource(mortgage::apply_improvement_i1(&with_i3)),
    );
    let trace = rec.trace().clone();
    (rec, trace)
}

#[test]
#[ignore = "bless: regenerates the golden trace file"]
fn bless_golden_trace() {
    let (_, trace) = record();
    std::fs::create_dir_all("tests/data").expect("mkdir");
    std::fs::write(GOLDEN_PATH, trace.serialize()).expect("write");
}

#[test]
fn golden_trace_replays_to_the_same_session() {
    const REBLESS: &str = "golden trace out of date — if the change in \
         behavior is intended, regenerate it with:\n  cargo test --test \
         golden_trace -- --ignored bless_golden_trace";
    let text = std::fs::read_to_string(GOLDEN_PATH)
        .unwrap_or_else(|e| panic!("cannot read {GOLDEN_PATH}: {e}\n{REBLESS}"));
    let golden = SessionTrace::parse(&text)
        .unwrap_or_else(|e| panic!("cannot parse {GOLDEN_PATH}: {e}\n{REBLESS}"));

    // Replaying the checked-in trace reproduces the live recording.
    let (recorded, fresh_trace) = record();
    assert_eq!(
        fresh_trace, golden,
        "the recording script drifted.\n{REBLESS}"
    );
    let mut replayed = golden.replay().expect("replays");
    let (mut recorded, _) = recorded.into_parts();
    assert_eq!(
        recorded.live_view(),
        replayed.live_view(),
        "replay diverged from the recording"
    );
    assert_eq!(recorded.system().store(), replayed.system().store());

    // The final state is the paper's: back on the listings page, with
    // the improved margins, the model keeping term = 15.
    assert_eq!(
        replayed.system().current_page().map(|(n, _)| n),
        Some("start")
    );
    assert!(replayed.source().contains("box.margin := 2;"), "I1 applied");
    assert!(replayed.source().contains("cents"), "I2 applied");
    assert!(
        replayed.source().contains("math.mod(i, 5) == 4"),
        "I3 applied"
    );
    assert_eq!(
        replayed.system().store().get("term"),
        Some(&its_alive::core::Value::Number(15.0))
    );
    // One download for the whole session.
    assert_eq!(replayed.system().cost().prim.web_requests, 1);
}
