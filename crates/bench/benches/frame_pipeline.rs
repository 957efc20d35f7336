//! E-frame — the frame pipeline: one interaction plus one frame read
//! (tap + frame) on the gallery and feed workloads.
//!
//! Every frame is laid out once from scratch and painted in full; the
//! bench checks at every step that the live view is byte-identical to
//! `render_to_text(&layout(root))` of the current display, counts the
//! work per frame (boxes laid out, cells painted, layouts computed) and
//! writes the counters, the oracle verdicts and the timings to
//! `BENCH_frame_pipeline.json`. The run exits non-zero if any frame
//! diverged from the oracle.

use alive_bench::{feed_session, feed_touch, gallery_session};
use alive_live::LiveSession;
use alive_testkit::Bench;
use alive_ui::{layout, render_to_text};
use std::hint::black_box;

const N: usize = 64;
const STEPS: usize = 24;

type Step = fn(&mut LiveSession, usize);
type MakeSession = fn(usize) -> LiveSession;

/// One steady-state gallery step: tap the already-selected tile. The
/// display is invalidated and re-rendered, but no subtree changes.
fn gallery_retap(session: &mut LiveSession, _step: usize) {
    session.tap_path(&[1]).expect("tap tile");
}

/// What `STEPS` tap + frame steps cost in work, and whether every frame
/// matched the from-scratch oracle.
#[derive(Debug, Default)]
struct Counters {
    frames: u64,
    layouts: u64,
    boxes: u64,
    cells: u64,
    byte_identity: bool,
}

impl Counters {
    fn to_json(&self, name: &str) -> String {
        let frames = self.frames.max(1) as f64;
        format!(
            concat!(
                "{{\"workload\":\"{}\",\"frames\":{},\"layouts\":{},",
                "\"boxes_per_frame\":{:.1},\"cells_per_frame\":{:.1},\"byte_identity\":{}}}"
            ),
            name,
            self.frames,
            self.layouts,
            self.boxes as f64 / frames,
            self.cells as f64 / frames,
            self.byte_identity,
        )
    }
}

/// Drive `STEPS` tap + frame steps, comparing every frame against a
/// from-scratch layout + paint of the same display.
fn count_steps(session: &mut LiveSession, step_fn: Step) -> Counters {
    session.live_view();
    let start = session.frame_stats();
    let mut counters = Counters {
        byte_identity: true,
        ..Counters::default()
    };
    for step in 0..STEPS {
        step_fn(session, step);
        let view = session.live_view();
        let stats = session.frame_stats();
        let root = session.display_tree().expect("session has a view");
        counters.byte_identity &= view == render_to_text(&layout(&root));
        counters.boxes += stats.nodes_measured;
        counters.cells += stats.cells_repainted;
    }
    let end = session.frame_stats();
    counters.frames = end.frames - start.frames;
    counters.layouts = end.layouts - start.layouts;
    counters
}

fn main() {
    let mut bench = Bench::from_args("frame_pipeline");
    let workloads: [(&str, MakeSession, Step); 2] = [
        ("gallery", gallery_session, gallery_retap),
        ("feed", feed_session, feed_touch),
    ];

    let mut reports = Vec::new();
    let mut diverged = Vec::new();
    for (label, make, step_fn) in workloads {
        let name = format!("{label}/{N}");
        let counters = count_steps(&mut make(N), step_fn);
        if !counters.byte_identity {
            diverged.push(name.clone());
        }
        reports.push(counters.to_json(&name));

        let mut session = make(N);
        session.live_view();
        let mut step = 0usize;
        bench.bench(&format!("tap_frame/plain/{name}"), || {
            step_fn(&mut session, step);
            step += 1;
            black_box(session.live_view())
        });
    }

    // Emit the machine-readable report before `finish` consumes the
    // harness: work counters, oracle verdicts and the timing section.
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let report = format!(
        "{{\"cpus\":{cpus},\"steps\":{STEPS},\"workloads\":[{}],\"timing\":{}}}\n",
        reports.join(","),
        bench.to_json(),
    );
    // Anchor at the workspace root regardless of the invocation CWD.
    let out =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_frame_pipeline.json");
    if let Err(e) = std::fs::write(&out, &report) {
        eprintln!("cannot write {}: {e}", out.display());
        std::process::exit(1);
    }
    if !diverged.is_empty() {
        eprintln!("frames diverged from the from-scratch oracle: {diverged:?}");
        std::process::exit(1);
    }
    bench.finish();
}
