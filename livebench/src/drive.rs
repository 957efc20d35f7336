//! Driving a solo `LiveSession`: picking valid tap and edit targets
//! from the current frame, classifying replies, and — in the traced
//! run — executing a command through the public calls
//! `LiveSession::apply` is made of, with a span around each call.

use crate::calibrate::Marks;
use crate::report::{self, ratio, Run};
use crate::trace::{SpanTotals, Tracer};
use alive_core::BoxSourceId;
use alive_live::{
    EditOutcome, FrameSnapshot, FrameStats, LiveSession, SessionCommand, SessionEffect,
};
use alive_ui::{hit_test_tappable, LayoutTree, Point};

/// A point that hit-tests to a tappable box of the current layout.
#[derive(Debug, Clone)]
pub struct TapTarget {
    pub point: Point,
    pub source: Option<BoxSourceId>,
}

/// Every tappable box of `tree`, each with a point inside it where a
/// tap lands on that box (and not on a tappable box nested in it).
pub fn tap_targets(tree: &LayoutTree) -> Vec<TapTarget> {
    let mut out = Vec::new();
    tree.root.walk(&mut |b| {
        if !b.style.tappable {
            return;
        }
        let r = b.rect;
        let mid_y = r.top() + r.size.h / 2;
        [
            Point::new(r.left() + r.size.w / 2, mid_y),
            Point::new(r.left() + 1, mid_y),
            Point::new(r.left(), r.top()),
        ]
        .into_iter()
        .find(|p| hit_test_tappable(tree, *p).as_deref() == Some(&b.path[..]))
        .into_iter()
        .for_each(|point| {
            out.push(TapTarget {
                point,
                source: b.source,
            })
        });
    });
    out
}

/// Paths of every box with an edit handler.
pub fn edit_targets(tree: &LayoutTree) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    tree.root.walk(&mut |b| {
        if b.style.editable {
            out.push(b.path.clone());
        }
    });
    out
}

/// What a reply says, for counting.
#[derive(Debug, Default, Clone, Copy)]
pub struct Reply {
    /// `Refused` or `Overloaded`: the command failed.
    pub failed: bool,
    pub tap_hit: Option<bool>,
    pub edit: Option<EditKind>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EditKind {
    Applied,
    Rejected,
    Quarantined,
}

pub fn classify(effects: &[SessionEffect]) -> Reply {
    let mut reply = Reply::default();
    for effect in effects {
        match effect {
            SessionEffect::Refused(_) | SessionEffect::Overloaded { .. } => reply.failed = true,
            SessionEffect::Tap { hit } => reply.tap_hit = Some(*hit),
            SessionEffect::EditApplied(_) => reply.edit = Some(EditKind::Applied),
            SessionEffect::EditRejected(_) => reply.edit = Some(EditKind::Rejected),
            SessionEffect::EditQuarantined { .. } => reply.edit = Some(EditKind::Quarantined),
            _ => {}
        }
    }
    reply
}

/// The frame a reply carries, if any.
pub fn frame_of(effects: &[SessionEffect]) -> Option<&FrameSnapshot> {
    effects.iter().find_map(|e| match e {
        SessionEffect::Frame(frame) => Some(frame),
        _ => None,
    })
}

/// The samples of one closed-loop window.
#[derive(Debug, Default)]
pub struct Window {
    /// Raw command latencies, in the order measured.
    pub cmd_us: Vec<f64>,
    /// Indices into `cmd_us` of the commands that count as edits to a
    /// new frame.
    pub edits: Vec<usize>,
    /// Whether each command got an answer (did not fail).
    pub ok: Vec<bool>,
    /// Kernel timings between commands, to scale the latencies by.
    pub marks: Marks,
    /// `VmHWM` once [`RSS_AFTER`] commands have run.
    pub rss_mib: Option<f64>,
}

/// Commands after which `peak_rss_mib` is read. Memory grows with the
/// work done (the command log, each session's undo stack), so it is
/// read after a fixed amount of work rather than at the end of a window
/// whose length in commands depends on the machine's speed.
pub const RSS_AFTER: usize = 20_000;

impl Window {
    /// Call before timing each command: times the calibration kernel
    /// every [`crate::calibrate::EVERY`] commands.
    pub fn tick(&mut self) {
        self.marks.tick(self.cmd_us.len());
    }

    /// Record one command's latency and reply; `edit` says whether it
    /// counts toward `edit_to_frame`.
    pub fn record(&mut self, us: f64, reply: &Reply, edit: bool) {
        if edit {
            self.edits.push(self.cmd_us.len());
        }
        self.cmd_us.push(us);
        self.ok.push(!reply.failed);
        if self.cmd_us.len() == RSS_AFTER {
            self.rss_mib = Some(report::peak_rss_mib());
        }
    }

    /// Commands that failed (`Refused`, `Overloaded`, host errors).
    pub fn failed(&self) -> u64 {
        self.ok.iter().filter(|ok| !**ok).count() as u64
    }

    /// Command latencies at the reference speed.
    pub fn scaled_us(&self) -> Vec<f64> {
        let scales = self.marks.scales(self.cmd_us.len());
        self.cmd_us
            .iter()
            .zip(scales)
            .map(|(us, k)| us * k)
            .collect()
    }

    /// Commands per second of command time at the reference speed.
    pub fn cps(&self) -> f64 {
        let busy_us: f64 = self.scaled_us().iter().sum();
        ratio(self.cmd_us.len() as f64, busy_us / 1e6)
    }

    /// The end-to-end metrics of an untraced closed-loop run, except
    /// `setup_s`, with times at the reference speed; the raw ones go to
    /// the provenance line. `peak_rss_mib` is read after [`RSS_AFTER`]
    /// commands, or now if the window held fewer.
    pub fn report(&self, run: &mut Run) {
        run.set(
            "peak_rss_mib",
            self.rss_mib.unwrap_or_else(report::peak_rss_mib),
        );
        run.attempted = self.cmd_us.len() as u64;
        run.failed = self.failed();
        run.set(
            "ok_frac",
            1.0 - ratio(run.failed as f64, self.cmd_us.len() as f64),
        );
        run.kernel_us = report::median(&mut self.marks.kernel_times());
        self.report_latencies(run, &self.scaled_us());
        let mut raw = Run::default();
        self.report_latencies(&mut raw, &self.cmd_us);
        run.raw = raw.metrics;
    }

    fn report_latencies(&self, run: &mut Run, cmd_us: &[f64]) {
        let busy_s = cmd_us.iter().sum::<f64>() / 1e6;
        let in_limit = cmd_us
            .iter()
            .zip(&self.ok)
            .filter(|&(&us, &ok)| ok && us <= report::FRAME_LIMIT_US)
            .count();
        run.set("cmds_per_s", ratio(cmd_us.len() as f64, busy_s));
        run.set("max_rate_cps", ratio(in_limit as f64, busy_s));
        run.set_p50_p99("cmd_p50_us", "cmd_p99_us", cmd_us);
        let edit_us: Vec<f64> = self.edits.iter().map(|&i| cmd_us[i]).collect();
        run.set_p50_p99("edit_to_frame_p50_us", "edit_to_frame_p99_us", &edit_us);
    }
}

/// Counts gathered by the traced run, summed over commands.
#[derive(Debug, Default)]
pub struct Layers {
    pub commands: u64,
    pub failed: u64,
    pub taps: u64,
    pub tap_hits: u64,
    pub applied: u64,
    pub rejected: u64,
    pub quarantined: u64,
    /// µs of the last `edit_source` call.
    pub last_edit_us: f64,
    pub vm_instructions: u64,
    pub vm_runs: u64,
    pub vm_compile_us: u64,
    pub renders: u64,
    pub frames: u64,
    pub layout_us: u64,
    pub paint_us: u64,
    pub nodes_measured: u64,
    pub nodes_reused: u64,
    pub cells_repainted: u64,
    pub cells_total: u64,
    pub view_hits: u64,
}

impl Layers {
    fn record_frame(&mut self, before: &FrameStats, after: &FrameStats) {
        self.view_hits += after.view_hits - before.view_hits;
        if after.frames > before.frames {
            self.frames += 1;
            self.layout_us += after.layout_us;
            self.paint_us += after.paint_us;
            self.nodes_measured += after.nodes_measured;
            self.nodes_reused += after.nodes_reused;
            self.cells_repainted += after.cells_repainted;
            self.cells_total += after.cells_total;
        }
    }

    /// Fill the session, VM, UI and failure metrics of a traced
    /// closed-loop run.
    pub fn fill(&self, run: &mut Run, totals: &SpanTotals) {
        let cmds = self.commands as f64;
        let frames = self.frames as f64;
        run.set("failed_frac", ratio(self.failed as f64, cmds));
        run.set(
            "session.settle_us",
            crate::trace::mean_us(
                totals,
                &["session.tap_at", "session.back", "session.edit_box"],
            ),
        );
        run.set(
            "session.edit_us",
            crate::trace::mean_us(totals, &["session.edit_source"]),
        );
        run.set("session.edits_applied", self.applied as f64);
        run.set("session.edits_rejected", self.rejected as f64);
        run.set("session.edits_quarantined", self.quarantined as f64);
        run.set(
            "session.tap_hit_frac",
            ratio(self.tap_hits as f64, self.taps as f64),
        );
        run.set(
            "vm.instructions_per_cmd",
            ratio(self.vm_instructions as f64, cmds),
        );
        run.set("vm.runs_per_cmd", ratio(self.vm_runs as f64, cmds));
        run.set("vm.compile_us", ratio(self.vm_compile_us as f64, cmds));
        run.set("system.renders_per_cmd", ratio(self.renders as f64, cmds));
        run.set(
            "ui.frame_us",
            crate::trace::mean_us(totals, &["ui.live_view"]),
        );
        run.set("ui.layout_us", ratio(self.layout_us as f64, frames));
        run.set("ui.paint_us", ratio(self.paint_us as f64, frames));
        run.set(
            "ui.nodes_measured",
            ratio(self.nodes_measured as f64, frames),
        );
        run.set(
            "ui.layout_reuse_frac",
            ratio(
                self.nodes_reused as f64,
                (self.nodes_reused + self.nodes_measured) as f64,
            ),
        );
        run.set(
            "ui.cells_repainted",
            ratio(self.cells_repainted as f64, frames),
        );
        run.set(
            "ui.repaint_frac",
            ratio(self.cells_repainted as f64, self.cells_total as f64),
        );
        run.set("ui.view_memo_hits", self.view_hits as f64);
        run.set(
            "examples.probe_us",
            crate::trace::mean_us(totals, &["examples.probe"]),
        );
    }
}

/// Memo and example-cache counters summed over `sessions`.
pub fn set_cache_metrics<'a>(
    run: &mut Run,
    sessions: impl IntoIterator<Item = &'a LiveSession>,
    examples_before: (u64, u64),
) {
    let (mut hits, mut misses) = (0u64, 0u64);
    let (mut probe_hits, mut probe_computes) = (0u64, 0u64);
    for session in sessions {
        if let Some(memo) = session.memo_stats() {
            hits += memo.hits;
            misses += memo.misses;
        }
        let stats = session.example_stats();
        probe_hits += stats.hits;
        probe_computes += stats.computes;
    }
    run.set("memo.lookups", (hits + misses) as f64);
    run.set("memo.hit_frac", ratio(hits as f64, (hits + misses) as f64));
    let (hits0, computes0) = examples_before;
    let (probe_hits, probe_computes) = (probe_hits - hits0, probe_computes - computes0);
    run.set(
        "examples.cache_hit_frac",
        ratio(probe_hits as f64, (probe_hits + probe_computes) as f64),
    );
}

/// `(hits, computes)` of the example caches of `sessions`.
pub fn example_counts<'a>(sessions: impl IntoIterator<Item = &'a LiveSession>) -> (u64, u64) {
    sessions.into_iter().fold((0, 0), |(h, c), s| {
        let stats = s.example_stats();
        (h + stats.hits, c + stats.computes)
    })
}

const ROOT: Option<&str> = Some("bench.cmd");

/// Execute `command` as `LiveSession::apply` would, but through its
/// parts, each inside a span: the session call (`tap_at`, `back`,
/// `edit_box`, `edit_source`), then `live_view` and `display_tree` for
/// the frame, or `examples` for a probe request. Returns the same
/// effects `apply` returns for these commands.
pub fn apply_traced(
    session: &mut LiveSession,
    command: &SessionCommand,
    tracer: &mut Tracer,
    id: u64,
    layers: &mut Layers,
) -> Vec<SessionEffect> {
    let vm_before = session.system().vm_stats();
    let generation_before = session.system().display_generation();
    let start = tracer.now_ns();
    let effects = match command {
        SessionCommand::TapAt { x, y } => {
            match tracer
                .time(id, "session.tap_at", ROOT, || session.tap_at(*x, *y))
                .0
            {
                Ok(hit) => vec![
                    SessionEffect::Tap { hit },
                    SessionEffect::Frame(frame(session, tracer, id, layers)),
                ],
                Err(e) => vec![SessionEffect::Refused(e.to_string())],
            }
        }
        SessionCommand::Back => match tracer.time(id, "session.back", ROOT, || session.back()).0 {
            Ok(()) => vec![SessionEffect::Frame(frame(session, tracer, id, layers))],
            Err(e) => vec![SessionEffect::Refused(e.to_string())],
        },
        SessionCommand::EditBox { path, text } => {
            match tracer
                .time(id, "session.edit_box", ROOT, || {
                    session.edit_box(path, text)
                })
                .0
            {
                Ok(()) => vec![SessionEffect::Frame(frame(session, tracer, id, layers))],
                Err(e) => vec![SessionEffect::Refused(e.to_string())],
            }
        }
        SessionCommand::EditSource(src) => {
            let (outcome, us) =
                tracer.time(id, "session.edit_source", ROOT, || session.edit_source(src));
            layers.last_edit_us = us;
            match outcome {
                EditOutcome::Applied(report) => vec![
                    SessionEffect::EditApplied(report),
                    SessionEffect::Frame(frame(session, tracer, id, layers)),
                ],
                EditOutcome::Rejected(diags) => vec![SessionEffect::EditRejected(diags)],
                EditOutcome::Quarantined { fault, report } => vec![
                    SessionEffect::EditQuarantined {
                        fault: Box::new(fault),
                        report,
                    },
                    SessionEffect::Frame(frame(session, tracer, id, layers)),
                ],
            }
        }
        SessionCommand::Examples => {
            view(session, tracer, id, layers);
            let probes = tracer
                .time(id, "examples.probe", ROOT, || session.examples())
                .0;
            vec![SessionEffect::Examples(probes)]
        }
        SessionCommand::Frame => vec![SessionEffect::Frame(frame(session, tracer, id, layers))],
        other => session.apply(other.clone()),
    };
    tracer.record(id, "bench.cmd", None, start, tracer.now_ns());

    let vm_after = session.system().vm_stats();
    layers.commands += 1;
    layers.vm_instructions += vm_after.instructions - vm_before.instructions;
    layers.vm_runs += vm_after.runs - vm_before.runs;
    layers.vm_compile_us += vm_after.compile_us - vm_before.compile_us;
    layers.renders += session.system().display_generation() - generation_before;
    let reply = classify(&effects);
    layers.failed += u64::from(reply.failed);
    if let Some(hit) = reply.tap_hit {
        layers.taps += 1;
        layers.tap_hits += u64::from(hit);
    }
    match reply.edit {
        Some(EditKind::Applied) => layers.applied += 1,
        Some(EditKind::Rejected) => layers.rejected += 1,
        Some(EditKind::Quarantined) => layers.quarantined += 1,
        None => {}
    }
    effects
}

fn view(session: &mut LiveSession, tracer: &mut Tracer, id: u64, layers: &mut Layers) -> String {
    let before = session.frame_stats();
    let text = tracer
        .time(id, "ui.live_view", ROOT, || session.live_view())
        .0;
    layers.record_frame(&before, &session.frame_stats());
    text
}

/// `LiveSession::frame_snapshot`, with spans around its two calls.
fn frame(
    session: &mut LiveSession,
    tracer: &mut Tracer,
    id: u64,
    layers: &mut Layers,
) -> FrameSnapshot {
    let view = view(session, tracer, id, layers);
    let generation = session.system().display_generation();
    let tree = tracer
        .time(id, "ui.display_tree", ROOT, || session.display_tree())
        .0;
    FrameSnapshot {
        generation,
        view,
        tree,
        banner: session.fault_banner(),
    }
}
