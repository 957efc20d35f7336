//! `interact`: one app user, closed loop, one thread.
//!
//! Solo `LiveSession`s on the large and huge corpus programs of all
//! five kinds, driven through `LiveSession::apply`, round-robin. Each
//! command is aimed at the current frame: `TapAt` a point inside a
//! tappable box (so hit-testing runs), `EditBox` on an editable row,
//! `Back` from a pushed page, `Examples`, `Frame`. The seed picks the
//! targets; the mix of kinds is fixed. VM HANDLER and
//! RENDER eval plus layout and paint do the work; compile does none.
//!
//! The kinds differ in how much work a tap shares: a feed or game tap
//! writes a global every row reads, a form tap touches one row. Taps
//! that grow the page (dashboard's refresh, editor's append) are
//! bounded per session so the working set stays the same size.

use crate::calibrate;
use crate::drive::{self, Layers, TapTarget, Window};
use crate::report::Run;
use crate::trace::{self, Tracer};
use crate::Args;
use alive_core::BoxSourceId;
use alive_corpus::{fnv1a_64, CorpusKind, CorpusSize, Rng};
use alive_live::{LiveSession, SessionCommand, SessionEffect};
use alive_ui::layout;
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 15;
/// Warm-up commands per session, part of set-up.
const WARMUP: usize = 30;
/// Page-growing taps allowed per session.
const GROWTH_CAP: u32 = 8;

#[derive(Debug, Clone, Copy)]
enum Pick {
    Tap,
    Edit,
    Examples,
    Frame,
}

/// The command kinds a session cycles through, one per visit, so every
/// seed runs the same mix. Sessions without editable rows tap instead
/// of editing; a session whose only taps grow the page (past the cap)
/// asks for a frame instead. Frames and examples are answered from
/// caches in microseconds, so they are kept to a fifth of the mix: the
/// median command is then a tap or an edit, not the gap between the
/// cheap and the expensive commands.
const SCHEDULE: [Pick; 10] = [
    Pick::Tap,
    Pick::Tap,
    Pick::Edit,
    Pick::Tap,
    Pick::Frame,
    Pick::Tap,
    Pick::Tap,
    Pick::Edit,
    Pick::Tap,
    Pick::Examples,
];

struct App {
    name: String,
    kind: CorpusKind,
    source: String,
    session: LiveSession,
    generation: u64,
    boxes: usize,
    taps: Vec<TapTarget>,
    edits: Vec<Vec<usize>>,
    growth: u32,
    growth_sources: BTreeSet<BoxSourceId>,
    visits: usize,
    /// Every command applied, with the hash of the frame it returned.
    log: Vec<(SessionCommand, Option<u64>)>,
}

impl App {
    fn new(name: String, kind: CorpusKind, source: String) -> App {
        let session = LiveSession::new(&source).expect("corpus programs compile");
        let mut app = App {
            name,
            kind,
            source,
            session,
            generation: u64::MAX,
            boxes: 0,
            taps: Vec::new(),
            edits: Vec::new(),
            growth: 0,
            growth_sources: BTreeSet::new(),
            visits: 0,
            log: Vec::new(),
        };
        let frame = app.session.frame_snapshot();
        app.observe(frame.generation, frame.tree.as_deref());
        app
    }

    /// Recompute targets from a new frame's tree.
    fn observe(&mut self, generation: u64, tree: Option<&alive_core::BoxNode>) {
        if generation == self.generation {
            return;
        }
        self.generation = generation;
        let Some(tree) = tree else {
            self.taps.clear();
            self.edits.clear();
            return;
        };
        let laid = layout(tree);
        self.boxes = laid.root.box_count();
        self.taps = drive::tap_targets(&laid);
        self.edits = drive::edit_targets(&laid);
    }

    fn depth(&self) -> usize {
        self.session.system().page_stack().len()
    }

    /// The next command: `Back` on a pushed page, otherwise the next
    /// kind of [`SCHEDULE`], aimed at a target of the current frame.
    /// Returns the tapped target's source, if the command is a tap.
    fn next_command(&mut self, rng: &mut Rng) -> (SessionCommand, Option<Option<BoxSourceId>>) {
        if self.depth() > 1 {
            return (SessionCommand::Back, None);
        }
        let pick = SCHEDULE[self.visits % SCHEDULE.len()];
        self.visits += 1;
        let capped = self.growth >= GROWTH_CAP;
        let eligible: Vec<&TapTarget> = self
            .taps
            .iter()
            .filter(|t| !(capped && t.source.is_some_and(|s| self.growth_sources.contains(&s))))
            .collect();
        match pick {
            Pick::Edit if !self.edits.is_empty() => {
                let path = rng.choose(&self.edits).clone();
                let text = match self.kind {
                    CorpusKind::Form => rng.below(1000).to_string(),
                    _ => format!("line {}", rng.below(1000)),
                };
                (SessionCommand::EditBox { path, text }, None)
            }
            Pick::Tap | Pick::Edit if !eligible.is_empty() => {
                let target = *rng.choose(&eligible);
                let command = SessionCommand::TapAt {
                    x: target.point.x,
                    y: target.point.y,
                };
                (command, Some(target.source))
            }
            Pick::Examples => (SessionCommand::Examples, None),
            _ => (SessionCommand::Frame, None),
        }
    }

    /// Update targets and the growth budget from a command's reply.
    fn after(
        &mut self,
        tapped: Option<Option<BoxSourceId>>,
        depth_before: usize,
        effects: &[SessionEffect],
    ) -> Option<u64> {
        let frame = drive::frame_of(effects)?;
        let boxes_before = self.boxes;
        self.observe(frame.generation, frame.tree.as_deref());
        if let Some(source) = tapped {
            if depth_before == 1 && self.depth() == 1 && self.boxes > boxes_before {
                self.growth += 1;
                self.growth_sources.extend(source);
            }
        }
        Some(fnv1a_64(frame.view.as_bytes()))
    }
}

/// Create the sessions, settle their first frames, and warm each up
/// with the first commands of the seeded stream.
fn setup(seed: u64) -> (Vec<App>, Rng) {
    let mut apps: Vec<App> = alive_corpus::corpus()
        .into_iter()
        .filter(|p| matches!(p.spec.size, CorpusSize::Large | CorpusSize::Huge))
        .map(|p| App::new(p.spec.name(), p.spec.kind, p.source))
        .collect();
    let mut rng = Rng::new(seed);
    for app in &mut apps {
        for _ in 0..WARMUP {
            let depth = app.depth();
            let (command, tapped) = app.next_command(&mut rng);
            let effects = app.session.apply(command.clone());
            let hash = app.after(tapped, depth, &effects);
            app.log.push((command, hash));
        }
    }
    (apps, rng)
}

/// Round-robin commands over the sessions until `for_` has passed.
fn window(
    apps: &mut [App],
    rng: &mut Rng,
    for_: Duration,
    tracer: &mut Tracer,
    mut layers: Option<&mut Layers>,
) -> Window {
    let mut w = Window::default();
    let deadline = Instant::now() + for_;
    let mut id = 0u64;
    'outer: loop {
        for app in apps.iter_mut() {
            if Instant::now() >= deadline {
                break 'outer;
            }
            let depth = app.depth();
            let (command, tapped) = app.next_command(rng);
            let is_edit = matches!(command, SessionCommand::EditBox { .. });
            w.tick();
            let start = Instant::now();
            let effects = match layers.as_deref_mut() {
                Some(l) => drive::apply_traced(&mut app.session, &command, tracer, id, l),
                None => app.session.apply(command.clone()),
            };
            let us = start.elapsed().as_secs_f64() * 1e6;
            id += 1;
            let reply = drive::classify(&effects);
            w.record(us, &reply, is_edit && !reply.failed);
            let hash = app.after(tapped, depth, &effects);
            app.log.push((command, hash));
        }
    }
    w
}

/// The oracle: every session's command log, replayed on a fresh
/// session with the render memo on, gives byte-identical frames.
fn check_memo_replay(apps: &[App], run: &mut Run) {
    for app in apps {
        let mut replay = LiveSession::with_memo(&app.source).expect("corpus programs compile");
        let mismatch = app.log.iter().position(|(command, hash)| {
            let effects = replay.apply(command.clone());
            let replayed = drive::frame_of(&effects).map(|f| fnv1a_64(f.view.as_bytes()));
            replayed != *hash
        });
        run.check(mismatch.is_none(), || {
            format!(
                "{}: memo-on replay diverged at command {} of {}",
                app.name,
                mismatch.unwrap_or(0),
                app.log.len()
            )
        });
    }
}

pub fn run(args: &Args) -> Run {
    let mut run = Run::default();
    let mut setups = Vec::new();
    let mut state = None;
    for _ in 0..SETUPS {
        let (apps, timed) = calibrate::timed_setup(|| setup(args.seed));
        state = Some(apps);
        setups.push(timed);
    }
    let (mut apps, mut rng) = state.expect("at least one set-up");
    let epoch = Instant::now();
    let seconds = Duration::from_secs(args.seconds);
    if !args.trace {
        let mut off = Tracer::new(epoch, false);
        let w = window(&mut apps, &mut rng, seconds, &mut off, None);
        check_memo_replay(&apps, &mut run);
        w.report(&mut run);
        run.set_setup(&setups);
        return run;
    }
    // Traced run: an untraced window, then the same command stream from
    // a fresh set-up, traced; the gap between their rates is the
    // tracing overhead.
    let half = seconds / 2;
    let mut off = Tracer::new(epoch, false);
    let plain = window(&mut apps, &mut rng, half, &mut off, None);
    check_memo_replay(&apps, &mut run);
    let (mut apps, mut rng) = setup(args.seed);
    let examples_before = drive::example_counts(apps.iter().map(|a| &a.session));
    let mut tracer = Tracer::new(epoch, true);
    let mut layers = Layers::default();
    let traced = window(&mut apps, &mut rng, half, &mut tracer, Some(&mut layers));
    check_memo_replay(&apps, &mut run);
    run.attempted = (plain.cmd_us.len() + traced.cmd_us.len()) as u64;
    run.failed = plain.failed() + traced.failed();
    let totals = trace::span_totals(&tracer.spans);
    layers.fill(&mut run, &totals);
    drive::set_cache_metrics(&mut run, apps.iter().map(|a| &a.session), examples_before);
    trace::set_self_metrics(&mut run, &totals, layers.commands);
    run.set("compile.us", 0.0);
    run.set("compile.reparsed_frac", 0.0);
    run.set("session.update_us", 0.0);
    crate::set_closed_loop_layers(&mut run, traced.cps(), plain.cps());
    crate::write_trace(&mut run, &args.workload, &tracer.spans);
    run
}
