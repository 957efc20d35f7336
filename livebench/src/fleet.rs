//! `fleet`: many users on one host, open loop.
//!
//! A `SessionHost` with the default configuration serves 2,000
//! sessions over the small and medium corpus programs; 80% of traffic
//! goes to 20% of the sessions. The client is one pipelined connection
//! on two threads: a generator sends on a fixed schedule through the
//! wire (`SessionCommand::serialize` → `parse_commands` →
//! `SessionHost::submit`), and a collector reads the replies in
//! submission order and serializes their effects. Latency runs from
//! each command's due time to its encoded reply, so a stall counts
//! against every command queued behind it.
//!
//! Commands are taps, frames, examples, back and a few per-session
//! source keystrokes. Taps come from per-page target tables explored on
//! solo sessions before the run: the generator tracks each session's
//! page and growth state, so every tap lands on a tappable box without
//! the generator ever reading a reply.

use crate::calibrate;
use crate::drive::{self, EditKind};
use crate::report::{self, Run};
use crate::source_sites::sites;
use crate::trace::{self, Span, Tracer};
use crate::Args;
use alive_core::system::SystemConfig;
use alive_corpus::{fnv1a_64, CorpusSize, Rng};
use alive_live::{parse_commands, LiveSession, SessionCommand, SessionEffect};
use alive_obs::{HistogramSnapshot, MetricsSnapshot};
use alive_serve::{effect_for_error, names, EffectTicket, HostConfig, SessionHost, SessionId};
use alive_ui::layout;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Hosted sessions.
const SESSIONS: usize = 2_000;
/// The hot sessions (the first 20%) receive this share of traffic.
const HOT_SESSIONS: usize = SESSIONS / 5;
const HOT_PERCENT: u64 = 80;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Page-growing taps a session may receive.
const GROWTH_CAP: u32 = 4;
/// Sessions replayed solo by the output check.
const SAMPLED: usize = 16;
/// The nominal offered rate, commands per second.
const NOMINAL_CPS: f64 = 5_000.0;
/// The rate ladder: rung `k` offers `LADDER_BASE * LADDER_STEP^k`.
const LADDER_BASE: f64 = 2_000.0;
const LADDER_STEP: f64 = 1.05;
/// The staircase starts at this rung (8,000/s) and climbs this many
/// rungs per passing probe until the first failure.
const LADDER_START: usize = 29;
const LADDER_STRIDE: usize = 4;
/// How long one rung is offered.
const RUNG: Duration = Duration::from_millis(300);
/// A rung passes when its generator lag p99 stays under this bound.
const LAG_LIMIT_US: f64 = 4_000.0;
/// A rung is abandoned once a reply is this late or the generator this
/// far behind: it has failed, and the backlog only grows.
const ABANDON_US: f64 = 200_000.0;
/// Share of `--seconds` spent at the nominal rate; the rest climbs the
/// ladder.
const NOMINAL_SHARE: f64 = 0.6;
/// Share of a hot session's commands that are source keystrokes (8% of
/// all traffic). Cold sessions only read and tap, so every keystroke
/// lands on a session whose incremental compiler is warm.
const HOT_EDIT_PERCENT: u64 = 10;

/// One tap target of a page state, and the state the tap leads to.
#[derive(Debug, Clone)]
struct Target {
    x: i32,
    y: i32,
    next: usize,
}

/// A page state: the page stack (by page name) and the number of
/// page-growing taps taken.
#[derive(Debug, Clone)]
struct State {
    pages: Vec<String>,
    growth: u32,
    parent: Option<usize>,
    targets: Vec<Target>,
}

struct ProgramModel {
    name: String,
    source: String,
    /// The source with 0..=3 characters typed into its first render
    /// literal: the keystrokes sessions of this program receive.
    variants: Vec<String>,
    states: Vec<State>,
}

fn page_names(session: &LiveSession) -> Vec<String> {
    session
        .system()
        .page_stack()
        .iter()
        .map(|(name, _)| name.to_string())
        .collect()
}

/// Tap targets of the session's frame, and the frame's geometry: box
/// count plus each tappable box's position and height (widths change
/// with text and do not move anything).
fn look(session: &mut LiveSession) -> (Vec<(i32, i32, i32)>, Vec<drive::TapTarget>) {
    let Some(tree) = session.display_tree() else {
        return (Vec::new(), Vec::new());
    };
    let laid = layout(&tree);
    let mut geometry = vec![(laid.root.box_count() as i32, 0, 0)];
    laid.root.walk(&mut |b| {
        if b.style.tappable {
            geometry.push((b.rect.left(), b.rect.top(), b.rect.size.h));
        }
    });
    (geometry, drive::tap_targets(&laid))
}

/// Explore the page states of one program on solo sessions: every tap
/// target of every reachable state, classified by the state it leads
/// to. Page-growing taps beyond [`GROWTH_CAP`] are left out.
fn explore(source: &str) -> Vec<State> {
    let program = Arc::new(alive_core::compile(source).expect("corpus programs compile"));
    let replay = |moves: &[SessionCommand]| {
        let mut s = LiveSession::with_shared_program(
            source,
            Arc::clone(&program),
            SystemConfig::default(),
            false,
        );
        for m in moves {
            s.apply(m.clone());
        }
        s
    };
    let start = replay(&[]);
    let mut states = vec![State {
        pages: page_names(&start),
        growth: 0,
        parent: None,
        targets: Vec::new(),
    }];
    let mut witness: Vec<Vec<SessionCommand>> = vec![Vec::new()];
    let mut i = 0;
    while i < states.len() {
        let mut here = replay(&witness[i]);
        let (geometry, targets) = look(&mut here);
        let growth = states[i].growth;
        let mut out = Vec::new();
        for t in targets {
            let tap = SessionCommand::TapAt {
                x: t.point.x,
                y: t.point.y,
            };
            let mut there = replay(&witness[i]);
            if drive::classify(&there.apply(tap.clone())).tap_hit != Some(true) {
                continue;
            }
            let pages = page_names(&there);
            let grew = pages == states[i].pages && look(&mut there).0 != geometry;
            if grew && growth >= GROWTH_CAP {
                continue;
            }
            let growth = growth + u32::from(grew);
            let next = match states
                .iter()
                .position(|s| s.pages == pages && s.growth == growth)
            {
                Some(k) => k,
                None => {
                    let mut path = witness[i].clone();
                    path.push(tap);
                    witness.push(path);
                    states.push(State {
                        pages,
                        growth,
                        parent: None,
                        targets: Vec::new(),
                    });
                    states.len() - 1
                }
            };
            out.push(Target {
                x: t.point.x,
                y: t.point.y,
                next,
            });
        }
        states[i].targets = out;
        i += 1;
    }
    for k in 0..states.len() {
        let (pages, growth) = (&states[k].pages, states[k].growth);
        if pages.len() > 1 {
            let below = &pages[..pages.len() - 1];
            states[k].parent = states
                .iter()
                .position(|s| s.pages == below && s.growth == growth);
        }
    }
    states
}

fn models() -> Vec<ProgramModel> {
    alive_corpus::corpus()
        .into_iter()
        .filter(|p| matches!(p.spec.size, CorpusSize::Small | CorpusSize::Medium))
        .map(|p| {
            let at = sites(&p.source).render_literals[0].end;
            let variants = (0..=3)
                .map(|k| {
                    let mut s = p.source.clone();
                    s.insert_str(at, &"xyz"[..k]);
                    s
                })
                .collect();
            ProgramModel {
                name: p.spec.name(),
                states: explore(&p.source),
                source: p.source,
                variants,
            }
        })
        .collect()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Tap,
    Edit,
    Other,
}

#[derive(Debug, Clone, Copy)]
struct SessionState {
    program: usize,
    state: usize,
    typed: usize,
    typing_up: bool,
}

/// The generator's model of every session: enough to pick valid
/// commands without reading replies.
struct Model {
    programs: Vec<ProgramModel>,
    sessions: Vec<SessionState>,
    rng: Rng,
    sampled: Vec<bool>,
}

impl Model {
    fn new(programs: Vec<ProgramModel>, seed: u64) -> Model {
        let sessions = (0..SESSIONS)
            .map(|i| SessionState {
                program: i % programs.len(),
                state: 0,
                typed: 0,
                typing_up: true,
            })
            .collect();
        let mut rng = Rng::new(seed);
        let mut sampled = vec![false; SESSIONS];
        for k in 0..SAMPLED {
            let (lo, n) = if k % 2 == 0 {
                (0, HOT_SESSIONS)
            } else {
                (HOT_SESSIONS, SESSIONS - HOT_SESSIONS)
            };
            sampled[lo + rng.below(n as u64) as usize] = true;
        }
        Model {
            programs,
            sessions,
            rng,
            sampled,
        }
    }

    fn next(&mut self) -> (usize, SessionCommand, Kind) {
        let rng = &mut self.rng;
        let hot = rng.below(100) < HOT_PERCENT;
        let s = if hot {
            rng.below(HOT_SESSIONS as u64) as usize
        } else {
            HOT_SESSIONS + rng.below((SESSIONS - HOT_SESSIONS) as u64) as usize
        };
        let st = &mut self.sessions[s];
        let program = &self.programs[st.program];
        let state = &program.states[st.state];
        let roll = rng.below(100);
        let pushed = state.parent.is_some();
        let (tap_lo, tap_hi) = if pushed { (40, 69) } else { (0, 59) };
        if pushed && roll < 40 {
            st.state = state.parent.unwrap_or(st.state);
            return (s, SessionCommand::Back, Kind::Other);
        }
        if (tap_lo..=tap_hi).contains(&roll) && !state.targets.is_empty() {
            let target = rng.choose(&state.targets);
            st.state = target.next;
            let command = SessionCommand::TapAt {
                x: target.x,
                y: target.y,
            };
            return (s, command, Kind::Tap);
        }
        if hot && roll >= 100 - HOT_EDIT_PERCENT {
            if st.typed == 3 {
                st.typing_up = false;
            } else if st.typed == 0 {
                st.typing_up = true;
            }
            st.typed = if st.typing_up {
                st.typed + 1
            } else {
                st.typed - 1
            };
            let source = program.variants[st.typed].clone();
            return (s, SessionCommand::EditSource(source), Kind::Edit);
        }
        if roll >= 80 {
            (s, SessionCommand::Examples, Kind::Other)
        } else {
            (s, SessionCommand::Frame, Kind::Other)
        }
    }
}

/// One command in flight from the generator to the collector.
struct Sent {
    id: u64,
    session: usize,
    kind: Kind,
    due: Instant,
    submitted: Instant,
    /// The pending reply, or the failure effect when the command never
    /// reached a mailbox.
    ticket: Result<EffectTicket, SessionEffect>,
    /// Kept for sampled sessions, for the solo replay.
    command: Option<SessionCommand>,
}

/// What one offered-rate phase measured.
#[derive(Default)]
struct Phase {
    lat_us: Vec<f64>,
    edit_us: Vec<f64>,
    lag_us: Vec<f64>,
    round_trip_us: Vec<f64>,
    attempted: u64,
    failed: u64,
    taps: u64,
    tap_hits: u64,
    edits: [u64; 3],
    reply_bytes: u64,
    elapsed_s: f64,
    abandoned: bool,
    spans: Vec<Span>,
    /// `(session, command, frame hash)` for sampled sessions.
    log: Vec<(usize, SessionCommand, Option<u64>)>,
}

impl Phase {
    fn achieved_cps(&self) -> f64 {
        report::ratio(self.lat_us.len() as f64, self.elapsed_s)
    }

    fn passes(&mut self) -> bool {
        !self.abandoned
            && self.failed == 0
            && report::chunked_p99(&self.lat_us) <= report::FRAME_LIMIT_US
            && report::percentile(&mut self.lag_us, 0.99) <= LAG_LIMIT_US
    }
}

const ROOT: Option<&str> = Some("bench.cmd");

/// Offer `rate` commands per second for `for_`, through the wire.
fn phase(
    host: &SessionHost,
    ids: &[SessionId],
    model: &mut Model,
    rate: f64,
    for_: Duration,
    traced: bool,
    epoch: Instant,
) -> Phase {
    let total = (rate * for_.as_secs_f64()).round() as u64;
    let abandon = AtomicBool::new(false);
    let (tx, rx) = mpsc::channel::<Sent>();
    let start = Instant::now();
    let (gen_spans, mut out) = std::thread::scope(|scope| {
        let abandon = &abandon;
        let generator = scope.spawn(move || {
            let mut tracer = Tracer::new(epoch, traced);
            for id in 0..total {
                if abandon.load(Ordering::Relaxed) {
                    break;
                }
                let (session, command, kind) = model.next();
                let logged = model.sampled[session].then(|| command.clone());
                let due = start + Duration::from_secs_f64(id as f64 / rate);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let submitted = Instant::now();
                if (submitted - due).as_secs_f64() * 1e6 > ABANDON_US {
                    abandon.store(true, Ordering::Relaxed);
                }
                let (parsed, _) = tracer.time(id, "protocol.parse", ROOT, || {
                    parse_commands(&command.serialize())
                        .ok()
                        .and_then(|mut c| c.pop())
                });
                let ticket = match parsed {
                    Some(parsed) => tracer
                        .time(id, "serve.submit", ROOT, || {
                            host.submit(ids[session], parsed)
                        })
                        .0
                        .map_err(|e| effect_for_error(&e)),
                    None => Err(SessionEffect::Refused(
                        "the command did not survive serialize and parse".to_string(),
                    )),
                };
                let sent = Sent {
                    id,
                    session,
                    kind,
                    due,
                    submitted,
                    ticket,
                    command: logged,
                };
                if tx.send(sent).is_err() {
                    break;
                }
            }
            drop(tx);
            tracer.spans
        });
        let collector = scope.spawn(move || {
            let mut p = Phase::default();
            let mut tracer = Tracer::new(epoch, traced);
            for sent in rx {
                let wait_start = tracer.now_ns();
                let effects = match sent.ticket {
                    Ok(ticket) => ticket.wait().unwrap_or_else(|e| vec![effect_for_error(&e)]),
                    Err(effect) => vec![effect],
                };
                let replied = Instant::now();
                tracer.record(
                    sent.id,
                    "serve.wait",
                    ROOT,
                    wait_start,
                    tracer.ns_of(replied),
                );
                let (bytes, _) = tracer.time(sent.id, "protocol.encode", ROOT, || {
                    effects
                        .iter()
                        .map(|e| e.serialize().len() as u64)
                        .sum::<u64>()
                });
                let done = Instant::now();
                tracer.record(
                    sent.id,
                    "bench.cmd",
                    None,
                    tracer.ns_of(sent.due),
                    tracer.ns_of(done),
                );
                let lat = (done - sent.due).as_secs_f64() * 1e6;
                if lat > ABANDON_US {
                    abandon.store(true, Ordering::Relaxed);
                }
                let reply = drive::classify(&effects);
                p.attempted += 1;
                p.failed += u64::from(reply.failed);
                p.reply_bytes += bytes;
                p.lat_us.push(lat);
                p.lag_us
                    .push((sent.submitted - sent.due).as_secs_f64() * 1e6);
                p.round_trip_us
                    .push((replied - sent.submitted).as_secs_f64() * 1e6);
                if sent.kind == Kind::Tap {
                    p.taps += 1;
                    p.tap_hits += u64::from(reply.tap_hit == Some(true));
                }
                match reply.edit {
                    Some(EditKind::Applied) => {
                        p.edits[0] += 1;
                        p.edit_us.push(lat);
                    }
                    Some(EditKind::Rejected) => p.edits[1] += 1,
                    Some(EditKind::Quarantined) => p.edits[2] += 1,
                    None => {}
                }
                if let Some(command) = sent.command {
                    let hash = drive::frame_of(&effects).map(|f| fnv1a_64(f.view.as_bytes()));
                    p.log.push((sent.session, command, hash));
                }
            }
            p.elapsed_s = start.elapsed().as_secs_f64();
            p.spans = tracer.spans;
            p
        });
        let gen_spans = generator
            .join()
            .expect("the generator thread does not panic");
        let out = collector
            .join()
            .expect("the collector thread does not panic");
        (gen_spans, out)
    });
    out.abandoned = abandon.load(Ordering::Relaxed);
    out.spans.extend(gen_spans);
    out
}

/// Start a host with the default configuration, create the sessions
/// (each settles its first frame) and warm every session up with one
/// frame request.
fn setup(programs: &[ProgramModel]) -> (SessionHost, Vec<SessionId>) {
    let host = SessionHost::new(HostConfig::default());
    let ids: Vec<SessionId> = (0..SESSIONS)
        .map(|i| {
            host.create_session(&programs[i % programs.len()].source)
                .expect("corpus programs compile")
        })
        .collect();
    let tickets: Vec<_> = ids
        .iter()
        .map(|&id| {
            host.submit(id, SessionCommand::Frame)
                .expect("a fresh mailbox has room")
        })
        .collect();
    for ticket in tickets {
        ticket.wait().expect("the host is running");
    }
    (host, ids)
}

/// The multisession oracle: each sampled session's commands, replayed
/// on a solo session, give byte-identical frames and end on the page
/// state the generator's model predicts.
fn check_solo_replay(model: &Model, log: &[(usize, SessionCommand, Option<u64>)], run: &mut Run) {
    for (s, _) in model.sampled.iter().enumerate().filter(|(_, on)| **on) {
        let st = model.sessions[s];
        let program = &model.programs[st.program];
        let mut solo = LiveSession::new(&program.source).expect("corpus programs compile");
        solo.apply(SessionCommand::Frame);
        let mut diverged = None;
        for (k, (_, command, hash)) in log.iter().filter(|(id, _, _)| *id == s).enumerate() {
            let effects = solo.apply(command.clone());
            let replayed = drive::frame_of(&effects).map(|f| fnv1a_64(f.view.as_bytes()));
            if replayed != *hash && diverged.is_none() {
                diverged = Some(k);
            }
        }
        run.check(diverged.is_none(), || {
            format!(
                "session {s} ({}): solo replay diverged at command {diverged:?}",
                program.name
            )
        });
        let expected = &program.states[st.state].pages;
        run.check(&page_names(&solo) == expected, || {
            format!(
                "session {s} ({}): page stack {:?}, model expects {expected:?}",
                program.name,
                page_names(&solo)
            )
        });
    }
}

/// Find the highest rate that meets the limit with a staircase over
/// the ladder: a passing probe steps up, a failing one steps down. The
/// staircase climbs [`LADDER_STRIDE`] rungs at a time until its first
/// failure, then one rung at a time until `budget` is spent. Each time
/// a passing probe is followed by a failing one, the passing probe's
/// achieved rate is one reading of the highest rate that meets the
/// limit. Returns those readings (the highest passing rate if there are
/// none), and the commands attempted and failed.
fn climb(
    host: &SessionHost,
    ids: &[SessionId],
    model: &mut Model,
    budget: Duration,
    epoch: Instant,
    log: &mut Vec<(usize, SessionCommand, Option<u64>)>,
) -> (Vec<f64>, u64, u64) {
    let started = Instant::now();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut readings = Vec::new();
    let mut highest_pass = None;
    let mut last_pass = None;
    let mut k = LADDER_START;
    let mut stride = LADDER_STRIDE;
    while started.elapsed() + RUNG < budget {
        let rate = LADDER_BASE * LADDER_STEP.powi(k as i32);
        let mut p = phase(host, ids, model, rate, RUNG, false, epoch);
        attempted += p.attempted;
        failed += p.failed;
        log.append(&mut p.log);
        if p.passes() {
            let cps = p.achieved_cps();
            last_pass = Some(cps);
            highest_pass = Some(highest_pass.map_or(cps, |h: f64| h.max(cps)));
            k += stride;
        } else {
            if stride == 1 {
                readings.extend(last_pass);
            }
            last_pass = None;
            stride = 1;
            k = k.saturating_sub(1);
        }
    }
    if readings.is_empty() {
        readings.extend(highest_pass);
    }
    (readings, attempted, failed)
}

pub fn run(args: &Args) -> Run {
    let mut run = Run::default();
    let mut model = Model::new(models(), args.seed);
    let mut setups = Vec::new();
    let mut hosts = Vec::new();
    for _ in 0..SETUPS {
        let (host, timed) = calibrate::timed_setup(|| setup(&model.programs));
        setups.push(timed);
        if let Some((old, _)) = hosts.pop() {
            SessionHost::shutdown(old);
        }
        hosts.push(host);
    }
    let (host, ids) = hosts.pop().expect("at least one set-up");
    let epoch = Instant::now();
    let seconds = args.seconds as f64;
    if !args.trace {
        let nominal_for = Duration::from_secs_f64(seconds * NOMINAL_SHARE);
        let mut nominal = phase(
            &host,
            &ids,
            &mut model,
            NOMINAL_CPS,
            nominal_for,
            false,
            epoch,
        );
        let mut log = std::mem::take(&mut nominal.log);
        let ladder_for = Duration::from_secs_f64(seconds * (1.0 - NOMINAL_SHARE));
        let (mut rates, attempted, failed) =
            climb(&host, &ids, &mut model, ladder_for, epoch, &mut log);
        run.set("peak_rss_mib", report::peak_rss_mib());
        host.shutdown();
        check_solo_replay(&model, &log, &mut run);
        run.attempted = nominal.attempted + attempted;
        run.failed = nominal.failed + failed;
        run.set_setup(&setups);
        run.set("cmds_per_s", nominal.achieved_cps());
        run.set("max_rate_cps", report::median(&mut rates));
        run.samples.insert("max_rate_cps", rates.len());
        run.set(
            "ok_frac",
            1.0 - report::ratio(nominal.failed as f64, nominal.attempted as f64),
        );
        run.set_p50_p99("cmd_p50_us", "cmd_p99_us", &nominal.lat_us);
        run.set_p50_p99(
            "edit_to_frame_p50_us",
            "edit_to_frame_p99_us",
            &nominal.edit_us,
        );
        return run;
    }
    // Traced run: the nominal rate untraced, then the same stream on a
    // fresh host, traced. Host counters are read from the second host.
    let half = Duration::from_secs_f64(seconds / 2.0);
    let plain = phase(&host, &ids, &mut model, NOMINAL_CPS, half, false, epoch);
    host.shutdown();
    check_solo_replay(&model, &plain.log, &mut run);
    let mut model = Model::new(std::mem::take(&mut model.programs), args.seed);
    let (host, ids) = setup(&model.programs);
    let before = host.metrics_snapshot();
    let mut traced = phase(&host, &ids, &mut model, NOMINAL_CPS, half, true, epoch);
    let after = host.shutdown();
    check_solo_replay(&model, &traced.log, &mut run);
    run.attempted = plain.attempted + traced.attempted;
    run.failed = plain.failed + traced.failed;
    set_fleet_layers(&mut run, &mut traced, &before, &after);
    run.set(
        "trace.overhead_frac",
        1.0 - report::ratio(traced.achieved_cps(), plain.achieved_cps()),
    );
    crate::write_trace(&mut run, &args.workload, &traced.spans);
    run
}

fn histogram_delta(
    before: &MetricsSnapshot,
    after: &MetricsSnapshot,
    name: &str,
) -> HistogramSnapshot {
    let mut h = after
        .histogram(name)
        .cloned()
        .unwrap_or_else(HistogramSnapshot::empty);
    if let Some(b) = before.histogram(name) {
        if b.buckets.len() == h.buckets.len() {
            for (x, y) in h.buckets.iter_mut().zip(&b.buckets) {
                *x -= y;
            }
            h.count -= b.count;
            h.sum -= b.sum;
        }
    }
    h
}

fn set_fleet_layers(
    run: &mut Run,
    p: &mut Phase,
    before: &MetricsSnapshot,
    after: &MetricsSnapshot,
) {
    let delta = |name: &str| after.counter(name).saturating_sub(before.counter(name)) as f64;
    let cmds = p.attempted as f64;
    let totals = trace::span_totals(&p.spans);
    run.set("failed_frac", report::ratio(p.failed as f64, cmds));
    run.set(
        "protocol.parse_us",
        trace::mean_us(&totals, &["protocol.parse"]),
    );
    run.set(
        "protocol.encode_us",
        trace::mean_us(&totals, &["protocol.encode"]),
    );
    run.set(
        "protocol.reply_bytes",
        report::ratio(p.reply_bytes as f64, cmds),
    );
    run.set(
        "serve.submit_us",
        trace::mean_us(&totals, &["serve.submit"]),
    );
    let rt_p50 = report::percentile(&mut p.round_trip_us, 0.5);
    run.set("serve.round_trip_p50_us", rt_p50);
    run.set(
        "serve.round_trip_p99_us",
        report::percentile(&mut p.round_trip_us, 0.99),
    );
    run.samples
        .insert("serve.round_trip_p99_us", p.round_trip_us.len());
    let service = histogram_delta(before, after, names::CMD_LATENCY_US);
    let service_p50 = service.p50_us().unwrap_or(0) as f64;
    run.set("serve.service_p50_us", service_p50);
    run.set("serve.service_p99_us", service.p99_us().unwrap_or(0) as f64);
    run.samples
        .insert("serve.service_p99_us", service.count as usize);
    run.set("serve.wait_p50_us", rt_p50 - service_p50);
    run.set(
        "serve.worker_busy_frac",
        report::ratio(delta(names::WORKER_BUSY_US), delta(names::WORKER_WALL_US)),
    );
    run.set("serve.steals", delta(names::STEALS));
    run.set("serve.parks", delta(names::PARKS));
    run.set("serve.overloads", delta(names::OVERLOADS));
    run.set(
        "serve.mailbox_depth_hwm",
        after.gauge(names::MAILBOX_DEPTH_HWM) as f64,
    );
    run.set(
        "loadgen.lag_p99_us",
        report::percentile(&mut p.lag_us, 0.99),
    );
    run.samples.insert("loadgen.lag_p99_us", p.lag_us.len());
    run.set("loadgen.offered_cps", NOMINAL_CPS);
    run.set("loadgen.achieved_cps", p.achieved_cps());
    // The client cannot time calls inside the host: session-side
    // timings read 0. Edit counts come from the replies; VM and frame
    // figures from the hosted sessions' own registries.
    run.set("session.settle_us", 0.0);
    run.set("session.edit_us", 0.0);
    run.set("session.update_us", 0.0);
    run.set("session.edits_applied", p.edits[0] as f64);
    run.set("session.edits_rejected", p.edits[1] as f64);
    run.set("session.edits_quarantined", p.edits[2] as f64);
    run.set(
        "session.tap_hit_frac",
        report::ratio(p.tap_hits as f64, p.taps as f64),
    );
    run.set("compile.us", 0.0);
    run.set("compile.reparsed_frac", 0.0);
    let host_cmds = delta(alive_live::metrics::names::COMMANDS);
    run.set(
        "vm.instructions_per_cmd",
        report::ratio(
            delta(alive_core::metrics::names::VM_INSTRUCTIONS),
            host_cmds,
        ),
    );
    run.set(
        "vm.runs_per_cmd",
        report::ratio(delta(alive_core::metrics::names::VM_RUNS), host_cmds),
    );
    run.set(
        "vm.compile_us",
        report::ratio(delta(alive_core::metrics::names::VM_COMPILE_US), host_cmds),
    );
    run.set(
        "system.renders_per_cmd",
        report::ratio(
            delta(alive_core::metrics::names::TRANSITIONS_RENDER),
            host_cmds,
        ),
    );
    run.set("memo.lookups", 0.0);
    run.set("memo.hit_frac", 0.0);
    let layout_us = histogram_delta(before, after, alive_live::metrics::names::FRAME_LAYOUT_US);
    let paint_us = histogram_delta(before, after, alive_live::metrics::names::FRAME_PAINT_US);
    let cells = histogram_delta(
        before,
        after,
        alive_live::metrics::names::FRAME_CELLS_REPAINTED,
    );
    let frames = layout_us.count as f64;
    run.set("ui.frame_us", 0.0);
    run.set("ui.layout_us", report::ratio(layout_us.sum as f64, frames));
    run.set("ui.paint_us", report::ratio(paint_us.sum as f64, frames));
    run.set("ui.nodes_measured", 0.0);
    run.set("ui.layout_reuse_frac", 0.0);
    run.set(
        "ui.cells_repainted",
        report::ratio(cells.sum as f64, frames),
    );
    run.set("ui.repaint_frac", 0.0);
    run.set("ui.view_memo_hits", 0.0);
    run.set("examples.probe_us", 0.0);
    run.set("examples.cache_hit_frac", 0.0);
    trace::set_self_metrics(run, &totals, p.attempted);
}
