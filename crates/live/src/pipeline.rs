//! The frame pipeline: layout and paint with cross-frame reuse.
//!
//! The paper's §5 optimization — "reuse box tree elements that have not
//! changed" — is implemented for *evaluation* by [`crate::memo`]. This
//! module extends the same reuse through the rest of the frame:
//!
//! * **Layout** runs through [`alive_ui::layout_incremental`], whose
//!   pointer-keyed [`LayoutCache`] skips the measure pass for subtrees
//!   that are `Arc`-identical to last frame's (exactly the subtrees the
//!   memo cache spliced).
//! * **Paint** runs through a retained [`TextFrame`]: the old and new
//!   displays are diffed, the damage rectangles computed, and only the
//!   damaged cells repainted.
//! * **The whole view** is memoized against
//!   [`alive_core::system::System::display_generation`], so repeated
//!   reads of an unchanged display are a string clone.
//!
//! The invariant that makes all this safe to enable unconditionally is
//! *byte identity*: for every frame, the pipeline's output equals
//! `render_to_text(&layout(root))` computed from scratch. The pipeline
//! only ever updates its retained state (previous root, previous layout
//! tree, retained canvas) together, so the three are always mutually
//! consistent; the cross-check oracle tests in `tests/frame_pipeline.rs`
//! drive random sessions asserting the identity at every step.

use alive_core::boxtree::BoxNode;
use alive_obs::{Clock, MonotonicClock};
use alive_ui::{
    damage_rects, diff_displays, layout_incremental, LayoutCache, LayoutTree, TextFrame,
};
use std::sync::Arc;

/// Observability counters for the frame pipeline, covering every reuse
/// layer: evaluation (memo), layout (measure cache), paint (damage) and
/// the whole-view string memo. Per-frame fields describe the *last*
/// frame actually rendered; `frames` and `view_hits` accumulate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrameStats {
    /// Frames rendered by the pipeline (view-memo misses).
    pub frames: u64,
    /// View reads answered from the generation-keyed string memo.
    pub view_hits: u64,
    /// `boxed` evaluations answered from the render memo cache
    /// (lifetime total; zero when the session runs without a memo).
    pub eval_hits: u64,
    /// `boxed` evaluations that ran and populated the memo cache.
    pub eval_misses: u64,
    /// Layout nodes measured from scratch last frame.
    pub nodes_measured: u64,
    /// Layout nodes skipped via the pointer-keyed cache last frame.
    pub nodes_reused: u64,
    /// Screen cells repainted last frame.
    pub cells_repainted: u64,
    /// Total screen cells (width × height) last frame.
    pub cells_total: u64,
    /// Whether the last frame was a partial (damage-driven) repaint.
    pub partial: bool,
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
    /// Microseconds spent in layout last frame.
    pub layout_us: u64,
    /// Microseconds spent in paint last frame.
    pub paint_us: u64,
}

impl FrameStats {
    /// Fraction of `boxed` evaluations served by the memo cache, 0–1.
    pub fn eval_reuse(&self) -> f64 {
        ratio(self.eval_hits, self.eval_hits + self.eval_misses)
    }

    /// Fraction of layout nodes skipped by the measure cache, 0–1.
    pub fn layout_reuse(&self) -> f64 {
        ratio(self.nodes_reused, self.nodes_reused + self.nodes_measured)
    }

    /// Fraction of screen cells repainted last frame, 0–1.
    pub fn repaint_fraction(&self) -> f64 {
        ratio(self.cells_repainted, self.cells_total)
    }
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// The retained state that carries reuse across frames: the layout
/// cache, the previously painted root and its layout tree (for damage
/// diffing), the retained text canvas, and the generation-keyed view
/// string.
///
/// The previous root, previous tree, and retained canvas are updated
/// atomically by [`FramePipeline::render`], so the canvas content is
/// always the full paint of the previous tree and the previous tree is
/// always the layout of the previous root — the consistency the partial
/// repaint path relies on.
#[derive(Debug)]
pub struct FramePipeline {
    cache: LayoutCache,
    frame: TextFrame,
    prev: Option<(BoxNode, LayoutTree)>,
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
            cache: LayoutCache::default(),
            frame: TextFrame::default(),
            prev: None,
            view: None,
            stats: FrameStats::default(),
            clock: Arc::new(MonotonicClock::new()),
        }
    }
}

impl FramePipeline {
    /// An empty pipeline; the first frame is always rendered in full.
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

    /// Drop all retained state: the next frame is a full layout and a
    /// full repaint. Reuse this when the terminal was disturbed by
    /// output the pipeline did not produce.
    pub fn invalidate(&mut self) {
        self.cache.clear();
        self.frame = TextFrame::new();
        self.prev = None;
        self.view = None;
    }

    /// Render `root` as text, reusing whatever the previous frames make
    /// reusable. `generation` keys the whole-view memo: pass
    /// [`alive_core::system::System::display_generation`], which changes
    /// whenever the display is reassigned.
    ///
    /// Output is byte-identical to
    /// `alive_ui::render_to_text(&alive_ui::layout(root))`.
    pub fn render(&mut self, generation: u64, root: &BoxNode) -> String {
        if let Some((g, text)) = &self.view {
            if *g == generation {
                self.stats.view_hits += 1;
                return text.clone();
            }
        }
        let layout_start = self.clock.now_us();
        let (tree, layout_stats) = layout_incremental(&mut self.cache, root);
        let layout_us = self.clock.now_us().saturating_sub(layout_start);

        let paint_start = self.clock.now_us();
        let mut partial = false;
        let text = match &self.prev {
            Some((prev_root, prev_tree)) => {
                let changes = diff_displays(prev_root, root);
                let damage = damage_rects(prev_tree, &tree, &changes);
                match self.frame.render_damaged(&tree, &damage) {
                    Some(text) => {
                        partial = true;
                        text
                    }
                    // Size changed (or no retained canvas): full paint.
                    None => self.frame.render_full(&tree),
                }
            }
            None => self.frame.render_full(&tree),
        };
        let paint_us = self.clock.now_us().saturating_sub(paint_start);

        let size = tree.size();
        self.stats.frames += 1;
        self.stats.nodes_measured = layout_stats.nodes_measured;
        self.stats.nodes_reused = layout_stats.nodes_reused;
        self.stats.cells_repainted = self.frame.cells_repainted();
        self.stats.cells_total = u64::from(size.w.max(0) as u32) * u64::from(size.h.max(0) as u32);
        self.stats.partial = partial;
        self.stats.layout_us = layout_us;
        self.stats.paint_us = paint_us;

        // Shallow clone: children are `Arc`-shared, so retaining the root
        // costs one item-vector copy, not a deep tree copy.
        self.prev = Some((root.clone(), tree));
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
        assert!(!pipeline.stats().partial, "first frame is full");

        // Second frame: one row changes (same width, so the canvas size
        // is stable and the frame can be patched), the rest share.
        let mut children = shared.clone();
        children[2] = Arc::new(leaf("row X"));
        let frame_b = root_of(children);
        let out = pipeline.render(2, &frame_b);
        assert_eq!(out, render_to_text(&layout(&frame_b)));
        let stats = pipeline.stats();
        assert!(stats.partial, "steady-state frame repaints partially");
        assert!(
            stats.nodes_reused >= 3,
            "shared rows skip the measure pass: {stats:?}"
        );
        assert!(
            stats.cells_repainted < stats.cells_total,
            "only the changed row repaints: {stats:?}"
        );
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
    }

    #[test]
    fn size_change_falls_back_to_a_full_frame() {
        let mut pipeline = FramePipeline::new();
        let small = root_of(vec![Arc::new(leaf("a"))]);
        pipeline.render(1, &small);
        let grown = root_of(vec![Arc::new(leaf("a")), Arc::new(leaf("longer line"))]);
        let out = pipeline.render(2, &grown);
        assert_eq!(out, render_to_text(&layout(&grown)));
        assert!(!pipeline.stats().partial, "resize cannot patch in place");
    }

    #[test]
    fn invalidate_forgets_retained_frames() {
        let frame = root_of(vec![Arc::new(leaf("x"))]);
        let mut pipeline = FramePipeline::new();
        pipeline.render(1, &frame);
        pipeline.invalidate();
        let out = pipeline.render(1, &frame);
        assert_eq!(out, render_to_text(&layout(&frame)));
        assert!(!pipeline.stats().partial, "post-invalidate frame is full");
    }
}
