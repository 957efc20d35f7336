//! `typing`: one programmer, closed loop, one thread.
//!
//! Solo `LiveSession`s on every corpus program (all five kinds, all
//! four sizes) receive keystrokes through `LiveSession::apply(EditSource)`.
//! Seeded scripts retype the tail of a string literal in a render body
//! (every keystroke applies), type a new `boxed { … }` statement into a
//! render body (most keystrokes are rejected until it closes), or
//! append digits to a numeric literal in an `init` block or handler.
//! Each script then deletes back to the original source. Incremental
//! compile, the UPDATE fix-up, VM recompile and relayout do the work;
//! handler eval, the host and the wire do none.

use crate::calibrate;
use crate::drive::{self, EditKind, Layers, Window};
use crate::report::{self, Run};
use crate::source_sites::{sites, Sites};
use crate::trace::{self, Tracer};
use crate::Args;
use alive_core::IncrementalCompiler;
use alive_corpus::Rng;
use alive_live::{LiveSession, SessionCommand};
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 15;

struct Doc {
    name: String,
    original: String,
    sites: Sites,
    session: LiveSession,
    /// Fed the same keystrokes in the traced run, to time compile alone.
    shadow: IncrementalCompiler,
}

#[derive(Clone, Copy)]
enum Script {
    Retype,
    TypeBoxed,
    Number,
}

/// The keystrokes of one script: full source texts, ending on the
/// original.
fn keystrokes(doc: &Doc, script: Script, rng: &mut Rng) -> Vec<String> {
    let src = &doc.original;
    let with = |at: usize, cut: usize, text: &str| {
        let mut s = String::with_capacity(src.len() + text.len());
        s.push_str(&src[..at]);
        s.push_str(text);
        s.push_str(&src[at + cut..]);
        s
    };
    match script {
        Script::Retype => {
            let lit = rng.choose(&doc.sites.render_literals).clone();
            let ends: Vec<usize> = src[lit.clone()]
                .char_indices()
                .map(|(k, _)| lit.start + k)
                .collect();
            let n = (3 + rng.below(8) as usize).min(ends.len());
            // Backspace the last n characters, then type them again.
            let cut = |k: usize| match k {
                0 => src.clone(),
                k => {
                    let at = ends[ends.len() - k];
                    with(at, lit.end - at, "")
                }
            };
            (1..=n).map(cut).chain((0..n).rev().map(cut)).collect()
        }
        Script::TypeBoxed => {
            let at = *rng.choose(&doc.sites.render_starts);
            let word: String = (0..3 + rng.below(4))
                .map(|_| char::from(b'a' + rng.below(26) as u8))
                .collect();
            let text = format!("        boxed {{ post \"{word}\"; }}\n");
            let typed = (1..=text.len()).map(|k| with(at, 0, &text[..k]));
            let deleted = (0..text.len()).rev().map(|k| with(at, 0, &text[..k]));
            typed.chain(deleted).collect()
        }
        Script::Number => {
            let num = rng.choose(&doc.sites.numbers).clone();
            let digits: String = (0..1 + rng.below(3))
                .map(|_| char::from(b'1' + rng.below(9) as u8))
                .collect();
            let typed = (1..=digits.len()).map(|k| with(num.end, 0, &digits[..k]));
            let deleted = (0..digits.len())
                .rev()
                .map(|k| with(num.end, 0, &digits[..k]));
            typed.chain(deleted).collect()
        }
    }
}

/// Create the sessions, settle their first frames, and warm each up
/// with one applied keystroke and its undo by deletion.
fn setup() -> Vec<Doc> {
    alive_corpus::corpus()
        .into_iter()
        .map(|program| {
            let mut session = LiveSession::new(&program.source).expect("corpus programs compile");
            session.live_view();
            let sites = sites(&program.source);
            let lit = sites.render_literals[0].clone();
            let mut warm = program.source.clone();
            warm.insert(lit.end, 'w');
            session.apply(SessionCommand::EditSource(warm));
            session.apply(SessionCommand::EditSource(program.source.clone()));
            Doc {
                name: program.spec.name(),
                original: program.source,
                sites,
                session,
                shadow: IncrementalCompiler::new(),
            }
        })
        .collect()
}

struct Typist {
    docs: Vec<Doc>,
    rng: Rng,
    round: usize,
    next_id: u64,
}

impl Typist {
    /// Run whole scripts, round-robin over the programs, until `for_`
    /// has passed. With a tracer on, commands go through
    /// [`drive::apply_traced`] and the shadow compiler is timed too.
    fn window(
        &mut self,
        for_: Duration,
        tracer: &mut Tracer,
        layers: Option<&mut Layers>,
        run: &mut Run,
    ) -> Window {
        let mut w = Window::default();
        let mut layers = layers;
        let mut compile_us = 0.0;
        let mut compiles = 0u64;
        let mut update_us = Vec::new();
        let deadline = Instant::now() + for_;
        while Instant::now() < deadline {
            for i in 0..self.docs.len() {
                let script =
                    [Script::Retype, Script::TypeBoxed, Script::Number][(self.round + i) % 3];
                let keys = keystrokes(&self.docs[i], script, &mut self.rng);
                let doc = &mut self.docs[i];
                let view_before = doc.session.live_view();
                for src in keys {
                    let id = self.next_id;
                    self.next_id += 1;
                    let shadow_src = layers.is_some().then(|| src.clone());
                    w.tick();
                    let start = Instant::now();
                    let effects = match layers.as_deref_mut() {
                        Some(l) => drive::apply_traced(
                            &mut doc.session,
                            &SessionCommand::EditSource(src),
                            tracer,
                            id,
                            l,
                        ),
                        None => doc.session.apply(SessionCommand::EditSource(src)),
                    };
                    let us = start.elapsed().as_secs_f64() * 1e6;
                    let reply = drive::classify(&effects);
                    w.record(us, &reply, reply.edit == Some(EditKind::Applied));
                    if let (Some(src), Some(l)) = (shadow_src, layers.as_deref()) {
                        let (_, c_us) = tracer.time(id, "compile.incremental", None, || {
                            let _ = doc.shadow.compile(&src);
                        });
                        compile_us += c_us;
                        compiles += 1;
                        if reply.edit == Some(EditKind::Applied) {
                            update_us.push(l.last_edit_us - c_us);
                        }
                    }
                }
                run.check(doc.session.source() == doc.original, || {
                    format!("{}: script did not end on the original source", doc.name)
                });
                let view_after = doc.session.live_view();
                run.check(view_after == view_before, || {
                    format!(
                        "{}: view after the script differs from the view before",
                        doc.name
                    )
                });
                if Instant::now() >= deadline {
                    break;
                }
            }
            self.round += 1;
        }
        if layers.is_some() {
            run.set("compile.us", report::ratio(compile_us, compiles as f64));
            let n = update_us.len() as f64;
            run.set(
                "session.update_us",
                report::ratio(update_us.iter().sum(), n),
            );
        }
        w
    }
}

pub fn run(args: &Args) -> Run {
    let mut run = Run::default();
    let mut setups = Vec::new();
    let mut docs = Vec::new();
    for _ in 0..SETUPS {
        let (fresh, timed) = calibrate::timed_setup(setup);
        docs = fresh;
        setups.push(timed);
    }
    let mut typist = Typist {
        docs,
        rng: Rng::new(args.seed),
        round: 0,
        next_id: 0,
    };
    let epoch = Instant::now();
    let seconds = Duration::from_secs(args.seconds);
    if !args.trace {
        let mut off = Tracer::new(epoch, false);
        let w = typist.window(seconds, &mut off, None, &mut run);
        w.report(&mut run);
        run.set_setup(&setups);
        return run;
    }
    // Traced run: an untraced window, then the same keystrokes from a
    // fresh set-up, traced; the gap between their rates is the tracing
    // overhead.
    let half = seconds / 2;
    let mut off = Tracer::new(epoch, false);
    let plain = typist.window(half, &mut off, None, &mut run);
    let mut typist = Typist {
        docs: setup(),
        rng: Rng::new(args.seed),
        round: 0,
        next_id: 0,
    };
    for doc in &mut typist.docs {
        let _ = doc.shadow.compile(&doc.original);
    }
    let shadow_before = shadow_stats(&typist.docs);
    let mut tracer = Tracer::new(epoch, true);
    let mut layers = Layers::default();
    let traced = typist.window(half, &mut tracer, Some(&mut layers), &mut run);
    let shadow_after = shadow_stats(&typist.docs);
    let reused = (shadow_after.0 - shadow_before.0) as f64;
    let parsed = (shadow_after.1 - shadow_before.1) as f64;
    run.set(
        "compile.reparsed_frac",
        report::ratio(parsed, reused + parsed),
    );
    run.attempted = (plain.cmd_us.len() + traced.cmd_us.len()) as u64;
    run.failed = plain.failed() + traced.failed();
    let totals = trace::span_totals(&tracer.spans);
    layers.fill(&mut run, &totals);
    drive::set_cache_metrics(&mut run, typist.docs.iter().map(|d| &d.session), (0, 0));
    trace::set_self_metrics(&mut run, &totals, layers.commands);
    crate::set_closed_loop_layers(&mut run, traced.cps(), plain.cps());
    crate::write_trace(&mut run, &args.workload, &tracer.spans);
    run
}

fn shadow_stats(docs: &[Doc]) -> (u64, u64) {
    docs.iter().fold((0, 0), |(r, p), d| {
        let (reused, parsed) = d.shadow.stats();
        (r + reused, p + parsed)
    })
}
