//! Babylonian example probes are a *measured* property of the session:
//! this suite pins the probe lines byte-for-byte against the small-step
//! reference semantics and across the memo hit/recompute paths.
//!
//! The probes feed the repl's `:examples` and the alive-watch side
//! panel, so "byte-identical" here is exactly "the user sees the same
//! continuous feedback the reference semantics defines, no matter which
//! cache path served it".

use its_alive::core::smallstep;
use its_alive::core::Value;
use its_alive::live::{ExampleProbe, LiveSession, ProbeStatus};

fn probe_lines(session: &mut LiveSession) -> Vec<String> {
    session
        .examples()
        .iter()
        .map(ExampleProbe::render_line)
        .collect()
}

/// The probe lines the small-step machine gives for the session's
/// program against the session's current store.
fn reference_lines(session: &LiveSession) -> Vec<String> {
    let system = session.system();
    let program = system.program();
    let eval = |expr| {
        let mut store = system.store().clone();
        smallstep::eval_pure(program, &mut store, system.config().fuel, expr).map(|out| out.value)
    };
    let probe = |name: &str, value: String, status| ExampleProbe {
        name: name.to_string(),
        value,
        status,
    };
    program
        .examples()
        .iter()
        .map(|def| {
            let line = match (eval(&def.body), &def.expect) {
                (Err(e), _) => probe(&def.name, e.to_string(), ProbeStatus::Fault),
                (Ok(v), None) => probe(&def.name, v.display_text(), ProbeStatus::Value),
                (Ok(v), Some(expect)) => match eval(expect) {
                    Err(e) => probe(&def.name, e.to_string(), ProbeStatus::Fault),
                    Ok(expected) if expected == v => {
                        probe(&def.name, v.display_text(), ProbeStatus::Pass)
                    }
                    Ok(expected) => probe(
                        &def.name,
                        v.display_text(),
                        ProbeStatus::Fail {
                            expected: Value::display_text(&expected),
                        },
                    ),
                },
            };
            line.render_line()
        })
        .collect()
}

/// Every corpus program declares examples; the VM-served probe lines
/// must equal the small-step reference on the first frame and after
/// every step of an interaction walk.
#[test]
fn probes_match_the_small_step_reference_on_every_corpus_program() {
    for entry in alive_corpus::corpus() {
        let name = entry.spec.name();
        let mut session = LiveSession::new(&entry.source).expect("session starts");
        let first = probe_lines(&mut session);
        assert!(
            !first.is_empty(),
            "{name}: corpus programs declare examples"
        );
        assert_eq!(
            first,
            reference_lines(&session),
            "{name}: first-frame probes"
        );
        for step in 0..entry.spec.size.rows() + 2 {
            // Misses are legal.
            let _ = session.tap_path(&[step]);
            assert_eq!(
                probe_lines(&mut session),
                reference_lines(&session),
                "{name}: probes after tap {step}"
            );
        }
    }
}

const APP: &str = r#"
global count : number = 0
page start() {
    render {
        boxed {
            post "count is " ++ count;
            on tap { count := count + 1; }
        }
    }
}
example live_count = count
example doubled = count * 2 expect count + count
"#;

/// The probe cache serves repeat reads without recomputing, and both
/// the cached read and a forced recompute (after a version-bumping
/// edit) render the same bytes.
#[test]
fn memo_hits_and_recomputes_render_identical_probe_lines() {
    let mut session = LiveSession::new(APP).expect("starts");
    let first = probe_lines(&mut session);
    assert_eq!(first, vec!["live_count = 0", "doubled = 0 ok"]);
    let fresh = session.example_stats();
    assert!(fresh.computes >= 1, "first read computes");
    assert_eq!(fresh.hits, 0);

    // Second read: pure cache hit, identical bytes.
    let again = probe_lines(&mut session);
    let cached = session.example_stats();
    assert_eq!(cached.computes, fresh.computes, "no recompute on a hit");
    assert_eq!(cached.hits, fresh.hits + 1);
    assert_eq!(first, again);

    // A benign edit bumps the program version: the cache key misses,
    // the probes recompute — to the same bytes, since the model is
    // untouched.
    let touched = format!("{APP}// touched\n");
    assert!(session.edit_source(&touched).is_applied());
    let after_edit = probe_lines(&mut session);
    let recomputed = session.example_stats();
    assert!(
        recomputed.computes > cached.computes,
        "edit forces a recompute"
    );
    assert_eq!(first, after_edit);

    // A model change recomputes to the new values — continuously live,
    // not stale-cached.
    session.tap_path(&[0]).expect("tap");
    assert_eq!(
        probe_lines(&mut session),
        vec!["live_count = 1", "doubled = 2 ok"]
    );
}
