//! The frame pipeline: one layout and one paint per display generation.
//!
//! The paper's §5 optimization — "reuse box tree elements that have not
//! changed" — is implemented for *evaluation* by [`crate::memo`]. Past
//! evaluation, a frame is cheap enough to build from scratch: the
//! pipeline lays the display out with [`alive_ui::layout()`] and paints it
//! with [`alive_ui::render_to_text`], with no cross-frame state beyond
//! two results keyed by
//! [`alive_core::system::System::display_generation`]:
//!
//! * **The layout** of the latest generation asked for. Painting and
//!   hit-testing share it: a tap on the frame just read, or a frame read
//!   after a tap on the same generation, lays the tree out once.
//! * **The view string**, so repeated reads of an unchanged display are
//!   a string clone.
//!
//! A generation names one display for the lifetime of a system, so both
//! results are exactly `render_to_text(&layout(root))` of the current
//! root; the oracle tests in `crates/bench/tests/frame_pipeline.rs`
//! drive random sessions asserting that identity at every step.

use alive_core::boxtree::BoxNode;
use alive_obs::{Clock, MonotonicClock};
use alive_ui::{layout, render_to_text, LayoutTree};
use std::sync::Arc;

/// Observability counters for the frame pipeline. Per-frame fields
/// describe the *last* frame actually rendered; `frames`, `view_hits`
/// and `layouts` accumulate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrameStats {
    /// Frames rendered by the pipeline (view-memo misses).
    pub frames: u64,
    /// View reads answered from the generation-keyed string memo.
    pub view_hits: u64,
    /// Layouts computed: at most one per display generation, shared by
    /// the frame's paint and any hit-test against it.
    pub layouts: u64,
    /// `boxed` evaluations answered from the render memo cache
    /// (lifetime total; zero when the session runs without a memo).
    pub eval_hits: u64,
    /// `boxed` evaluations that ran and populated the memo cache.
    pub eval_misses: u64,
    /// Boxes laid out for the last frame.
    pub nodes_measured: u64,
    /// Boxes whose layout was reused from an earlier frame: always zero,
    /// every frame is laid out from scratch.
    pub nodes_reused: u64,
    /// Screen cells painted last frame: every frame is a full paint, so
    /// this equals [`FrameStats::cells_total`].
    pub cells_repainted: u64,
    /// Total screen cells (width × height) last frame.
    pub cells_total: u64,
    /// Microseconds the RENDER transition that produced the last frame
    /// spent evaluating. Zero here; [`crate::LiveSession`] stamps it,
    /// like the `eval_*` counters.
    pub eval_us: u64,
    /// The slice of [`FrameStats::eval_us`] spent compiling bytecode
    /// (zero once the VM cache is warm). Stamped by
    /// [`crate::LiveSession`].
    pub eval_compile_us: u64,
    /// The slice of [`FrameStats::eval_us`] spent actually executing —
    /// `eval_us` minus the compile slice. Stamped by
    /// [`crate::LiveSession`].
    pub eval_exec_us: u64,
    /// Lifetime VM bytecode-cache hits (dispatches that reused the
    /// already-compiled program). Stamped by [`crate::LiveSession`].
    pub vm_cache_hits: u64,
    /// Microseconds spent laying out the last frame's display.
    pub layout_us: u64,
    /// Microseconds spent painting the last frame.
    pub paint_us: u64,
}

impl FrameStats {
    /// Fraction of `boxed` evaluations served by the memo cache, 0–1.
    pub fn eval_reuse(&self) -> f64 {
        let total = self.eval_hits + self.eval_misses;
        if total == 0 {
            0.0
        } else {
            self.eval_hits as f64 / total as f64
        }
    }
}

/// A layout together with the generation it lays out and its cost.
#[derive(Debug)]
struct Laid {
    generation: u64,
    tree: LayoutTree,
    boxes: u64,
    us: u64,
}

/// The per-generation frame state: the latest layout and the latest
/// view string, each keyed by the display generation it was built for.
#[derive(Debug)]
pub struct FramePipeline {
    laid: Option<Laid>,
    view: Option<(u64, String)>,
    stats: FrameStats,
    /// Stage timings are taken against this clock — the real monotonic
    /// clock by default, an injected [`alive_obs::ManualClock`] in
    /// deterministic metrics tests.
    clock: Arc<dyn Clock>,
}

impl Default for FramePipeline {
    fn default() -> Self {
        FramePipeline {
            laid: None,
            view: None,
            stats: FrameStats::default(),
            clock: Arc::new(MonotonicClock::new()),
        }
    }
}

impl FramePipeline {
    /// An empty pipeline.
    pub fn new() -> Self {
        FramePipeline::default()
    }

    /// Replace the clock the stage timings are taken against.
    pub fn set_clock(&mut self, clock: Arc<dyn Clock>) {
        self.clock = clock;
    }

    /// The observability counters (last frame + lifetime totals). The
    /// `eval_*` fields are zero here; [`crate::LiveSession`] stamps them
    /// from its memo cache.
    pub fn stats(&self) -> FrameStats {
        self.stats
    }

    /// The layout of `root`, the display at `generation`: laid out on
    /// the first call for a generation, returned as-is on later ones.
    pub fn layout(&mut self, generation: u64, root: &BoxNode) -> &LayoutTree {
        let laid = match self.laid.take() {
            Some(laid) if laid.generation == generation => laid,
            _ => {
                let start = self.clock.now_us();
                let tree = layout(root);
                let us = self.clock.now_us().saturating_sub(start);
                self.stats.layouts += 1;
                Laid {
                    generation,
                    boxes: tree.root.box_count() as u64,
                    tree,
                    us,
                }
            }
        };
        &self.laid.insert(laid).tree
    }

    /// Render `root`, the display at `generation`, as text. `generation`
    /// keys the view memo and the layout: pass
    /// [`alive_core::system::System::display_generation`], which changes
    /// whenever the display is reassigned.
    ///
    /// Output is `alive_ui::render_to_text(&alive_ui::layout(root))`.
    pub fn render(&mut self, generation: u64, root: &BoxNode) -> String {
        if let Some((g, text)) = &self.view {
            if *g == generation {
                self.stats.view_hits += 1;
                return text.clone();
            }
        }
        let clock = Arc::clone(&self.clock);
        let tree = self.layout(generation, root);
        let paint_start = clock.now_us();
        let text = render_to_text(tree);
        let paint_us = clock.now_us().saturating_sub(paint_start);
        let size = tree.size();
        let cells = u64::from(size.w.max(0) as u32) * u64::from(size.h.max(0) as u32);

        if let Some(laid) = &self.laid {
            self.stats.nodes_measured = laid.boxes;
            self.stats.layout_us = laid.us;
        }
        self.stats.frames += 1;
        self.stats.cells_repainted = cells;
        self.stats.cells_total = cells;
        self.stats.paint_us = paint_us;
        self.view = Some((generation, text.clone()));
        text
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alive_core::boxtree::{BoxItem, BoxNode};
    use alive_core::Value;
    use alive_ui::{layout, render_to_text};
    use std::sync::Arc;

    fn leaf(text: &str) -> BoxNode {
        let mut b = BoxNode::new(None);
        b.items.push(BoxItem::leaf(Value::str(text)));
        b
    }

    fn root_of(children: Vec<Arc<BoxNode>>) -> BoxNode {
        let mut root = BoxNode::new(None);
        for c in children {
            root.items.push(BoxItem::Child(c));
        }
        root
    }

    #[test]
    fn pipeline_matches_from_scratch_rendering() {
        let shared: Vec<Arc<BoxNode>> = (0..4)
            .map(|i| Arc::new(leaf(&format!("row {i}"))))
            .collect();
        let mut pipeline = FramePipeline::new();

        let frame_a = root_of(shared.clone());
        let out = pipeline.render(1, &frame_a);
        assert_eq!(out, render_to_text(&layout(&frame_a)));

        // Second frame: one row changes, the rest share.
        let mut children = shared.clone();
        children[2] = Arc::new(leaf("row X"));
        let frame_b = root_of(children);
        let out = pipeline.render(2, &frame_b);
        assert_eq!(out, render_to_text(&layout(&frame_b)));
        let stats = pipeline.stats();
        assert_eq!(stats.frames, 2);
        assert_eq!(stats.nodes_measured, 5, "every box is laid out");
        assert_eq!(stats.cells_repainted, stats.cells_total);
    }

    #[test]
    fn unchanged_generation_is_a_string_memo_hit() {
        let frame = root_of(vec![Arc::new(leaf("hello"))]);
        let mut pipeline = FramePipeline::new();
        let first = pipeline.render(7, &frame);
        let again = pipeline.render(7, &frame);
        assert_eq!(first, again);
        let stats = pipeline.stats();
        assert_eq!(stats.frames, 1, "second read never touched the pipeline");
        assert_eq!(stats.view_hits, 1);
        assert_eq!(stats.layouts, 1);
    }

    #[test]
    fn layout_is_shared_within_a_generation() {
        let frame = root_of(vec![Arc::new(leaf("x")), Arc::new(leaf("y"))]);
        let mut pipeline = FramePipeline::new();
        // A hit-test before the first paint lays the tree out; the paint
        // of the same generation reuses it.
        assert_eq!(pipeline.layout(3, &frame), &layout(&frame));
        let out = pipeline.render(3, &frame);
        assert_eq!(out, "x\ny\n");
        assert_eq!(pipeline.stats().layouts, 1);
        // A new generation lays out again, even for an equal tree.
        pipeline.layout(4, &frame);
        assert_eq!(pipeline.stats().layouts, 2);
    }
}
