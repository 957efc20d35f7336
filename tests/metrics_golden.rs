//! Golden metrics snapshot: a fixed editing session driven on a manual
//! clock, with both the `:metrics` human rendering and the snapshot
//! wire format checked in at `tests/data/metrics_session.metrics`.
//! Mirrors `tests/golden_trace.rs`: any drift in what the session
//! counts, how quantiles interpolate, or how snapshots serialize shows
//! up as a byte diff here.

use its_alive::core::system::SystemConfig;
use its_alive::live::{
    format_metrics_snapshot, LiveSession, ManualClock, MetricsSnapshot, Registry, SessionCommand,
};

const GOLDEN_PATH: &str = "tests/data/metrics_session.metrics";
const WIRE_MARKER: &str = "--- wire ---";

const APP: &str = r#"
global count : number = 0
page start() {
    render {
        boxed {
            post "count is " ++ count;
            on tap { count := count + 1; }
        }
        boxed {
            post "open detail";
            on tap { push detail(count); }
        }
    }
}
page detail(n : number) {
    render {
        boxed { post "detail of " ++ n; on tap { pop; } }
    }
}
"#;

/// Run the scripted session: every duration comes from an auto-stepping
/// manual clock, so the resulting snapshot is identical on every run
/// and every machine.
fn record() -> MetricsSnapshot {
    let registry = Registry::with_clock(ManualClock::with_auto_step(7).shared());
    let mut session = LiveSession::observed(
        APP,
        SystemConfig {
            fuel: 50_000,
            max_transitions: 500,
        },
        &registry,
    )
    .expect("APP compiles");

    session.apply(SessionCommand::Frame);
    session.apply(SessionCommand::TapPath(vec![0])); // count = 1
    session.apply(SessionCommand::TapPath(vec![1])); // push detail
    session.apply(SessionCommand::Back); // pop
    let relabeled = session.source().replace("count is ", "count = ");
    session.apply(SessionCommand::EditSource(relabeled)); // applied
    session.apply(SessionCommand::EditSource("not a program".into())); // rejected
    session.apply(SessionCommand::Undo); // back to "count is"
    session.apply(SessionCommand::Redo); // forward again
    session.apply(SessionCommand::Frame);
    session.metrics_snapshot()
}

fn golden_text(snapshot: &MetricsSnapshot) -> String {
    format!(
        "{}\n{WIRE_MARKER}\n{}",
        format_metrics_snapshot(snapshot),
        snapshot.to_wire()
    )
}

/// Re-record the golden file (run with
/// `cargo test --test metrics_golden -- --ignored bless`).
#[test]
#[ignore = "bless: regenerates the golden metrics file"]
fn bless_metrics_golden() {
    std::fs::create_dir_all("tests/data").expect("mkdir");
    std::fs::write(GOLDEN_PATH, golden_text(&record())).expect("write");
}

#[test]
fn metrics_session_matches_the_golden_snapshot() {
    const REBLESS: &str = "golden metrics out of date — if the change in \
         behavior is intended, regenerate it with:\n  cargo test --test \
         metrics_golden -- --ignored bless_metrics_golden";
    let golden = std::fs::read_to_string(GOLDEN_PATH)
        .unwrap_or_else(|e| panic!("cannot read {GOLDEN_PATH}: {e}\n{REBLESS}"));

    let snapshot = record();
    assert_eq!(
        golden_text(&snapshot),
        golden,
        "metrics for the scripted session drifted.\n{REBLESS}"
    );

    // The checked-in wire section parses back to the same snapshot and
    // re-serializes byte-identically — the artifact format is total.
    let wire = golden
        .split_once(&format!("{WIRE_MARKER}\n"))
        .map(|(_, wire)| wire)
        .unwrap_or_else(|| panic!("no wire section in {GOLDEN_PATH}\n{REBLESS}"));
    let parsed = MetricsSnapshot::parse_wire(wire)
        .unwrap_or_else(|| panic!("wire section does not parse\n{REBLESS}"));
    assert_eq!(parsed, snapshot, "wire round-trip changed the snapshot");
    assert_eq!(
        parsed.to_wire(),
        wire,
        "re-serialization is not byte-identical"
    );

    // And the human rendering of the parsed snapshot matches what the
    // live session printed — `:metrics` over the wire loses nothing.
    assert_eq!(
        format_metrics_snapshot(&parsed),
        format_metrics_snapshot(&snapshot)
    );
}
