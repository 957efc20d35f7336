//! Text rendering of a laid-out display.
//!
//! Renders a [`LayoutTree`] onto a character canvas: text leaves are
//! drawn at their rectangles, boxes with a `border` get `+--+` frames,
//! and colored backgrounds get a light shading. This is the
//! screen-substitute for the paper's browser view — deterministic, so
//! tests can assert on it, and human-readable, so the examples can show
//! the mortgage calculator actually rendering.

use crate::geom::Rect;
use crate::layout::{LayoutBox, LayoutItem, LayoutTree};

/// Rendering options.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RenderOptions {
    /// Draw an outline around *every* box (the live view's box
    /// inspection mode), not just boxes with a `border` attribute.
    pub outline_all_boxes: bool,
    /// Character used to shade boxes with a background color.
    pub shade: char,
}

impl Default for RenderOptions {
    fn default() -> Self {
        RenderOptions {
            outline_all_boxes: false,
            shade: '░',
        }
    }
}

/// A character canvas.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Canvas {
    width: usize,
    height: usize,
    cells: Vec<char>,
}

impl Canvas {
    /// A blank canvas of the given size.
    pub fn new(width: usize, height: usize) -> Self {
        Canvas {
            width,
            height,
            cells: vec![' '; width * height],
        }
    }

    /// Canvas width in cells.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Canvas height in cells.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Set one cell, ignoring out-of-bounds writes.
    pub fn put(&mut self, x: i32, y: i32, ch: char) {
        if x >= 0 && y >= 0 && (x as usize) < self.width && (y as usize) < self.height {
            self.cells[y as usize * self.width + x as usize] = ch;
        }
    }

    /// Read one cell (`None` out of bounds).
    pub fn get(&self, x: i32, y: i32) -> Option<char> {
        if x >= 0 && y >= 0 && (x as usize) < self.width && (y as usize) < self.height {
            Some(self.cells[y as usize * self.width + x as usize])
        } else {
            None
        }
    }

    /// The canvas as newline-joined rows, right-trimmed.
    pub fn to_text(&self) -> String {
        let mut out = String::with_capacity(self.cells.len() + self.height);
        for row in 0..self.height {
            let line: String = self.cells[row * self.width..(row + 1) * self.width]
                .iter()
                .collect();
            out.push_str(line.trim_end());
            out.push('\n');
        }
        // Trim fully blank trailing rows.
        while out.ends_with("\n\n") {
            out.pop();
        }
        out
    }
}

/// Render a layout tree to text with default options.
pub fn render_to_text(tree: &LayoutTree) -> String {
    render_with_options(tree, RenderOptions::default())
}

/// Render a layout tree to text.
pub fn render_with_options(tree: &LayoutTree, options: RenderOptions) -> String {
    let size = tree.size();
    let mut canvas = Canvas::new(size.w.max(0) as usize, size.h.max(0) as usize);
    draw_box(&mut canvas, &tree.root, options);
    canvas.to_text()
}

fn draw_box(canvas: &mut Canvas, node: &LayoutBox, options: RenderOptions) {
    let rect = node.rect;
    if node.style.background.is_some() {
        fill(canvas, rect, options.shade);
    }
    if node.style.border > 0 || options.outline_all_boxes {
        frame(canvas, rect);
    }
    for item in &node.items {
        match item {
            LayoutItem::Text {
                rect,
                lines,
                font_size,
            } => {
                draw_text(canvas, *rect, lines, *font_size);
            }
            LayoutItem::Child(child) => draw_box(canvas, child, options),
        }
    }
}

fn fill(canvas: &mut Canvas, rect: Rect, ch: char) {
    for y in rect.top()..rect.bottom() {
        for x in rect.left()..rect.right() {
            canvas.put(x, y, ch);
        }
    }
}

fn frame(canvas: &mut Canvas, rect: Rect) {
    if rect.size.is_empty() {
        return;
    }
    let (l, t, r, b) = (rect.left(), rect.top(), rect.right() - 1, rect.bottom() - 1);
    for x in l..=r {
        canvas.put(x, t, '-');
        canvas.put(x, b, '-');
    }
    for y in t..=b {
        canvas.put(l, y, '|');
        canvas.put(r, y, '|');
    }
    canvas.put(l, t, '+');
    canvas.put(r, t, '+');
    canvas.put(l, b, '+');
    canvas.put(r, b, '+');
}

fn draw_text(canvas: &mut Canvas, rect: Rect, lines: &[String], font_size: i32) {
    let scale = font_size.max(1);
    for (row, line) in lines.iter().enumerate() {
        for (col, ch) in line.chars().enumerate() {
            // Scaled text repeats each character into a scale×scale block,
            // a cheap stand-in for larger fonts.
            for dy in 0..scale {
                for dx in 0..scale {
                    canvas.put(
                        rect.left() + (col as i32) * scale + dx,
                        rect.top() + (row as i32) * scale + dy,
                        ch,
                    );
                }
            }
        }
    }
}

/// Render zoomed out by an integer factor — §5: "The live view is
/// automatically scaled down to fit on a smaller portion of the screen,
/// but we support interactive zooming to allow programmers to inspect
/// the effect of detail adjustments."
///
/// Each `zoom × zoom` cell block collapses to one output cell: box
/// glyphs win over text, text wins over background shading, shading
/// wins over blanks — so the page's *structure* stays legible at a
/// glance even when the text does not.
pub fn render_zoomed_out(tree: &LayoutTree, zoom: usize) -> String {
    let zoom = zoom.max(1);
    let full = {
        let size = tree.size();
        let mut canvas = Canvas::new(size.w.max(0) as usize, size.h.max(0) as usize);
        draw_box(&mut canvas, &tree.root, RenderOptions::default());
        canvas
    };
    let out_w = full.width().div_ceil(zoom);
    let out_h = full.height().div_ceil(zoom);
    let mut out = Canvas::new(out_w, out_h);
    for oy in 0..out_h {
        for ox in 0..out_w {
            let mut best = ' ';
            let mut best_rank = 0u8;
            for dy in 0..zoom {
                for dx in 0..zoom {
                    let ch = full
                        .get((ox * zoom + dx) as i32, (oy * zoom + dy) as i32)
                        .unwrap_or(' ');
                    let rank = match ch {
                        ' ' => 0,
                        '░' => 1,
                        '+' | '-' | '|' => 3,
                        _ => 2,
                    };
                    if rank > best_rank {
                        best_rank = rank;
                        best = match rank {
                            3 => '▫',
                            2 => '▪',
                            _ => ch,
                        };
                    }
                }
            }
            out.put(ox as i32, oy as i32, best);
        }
    }
    out.to_text()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::layout;
    use alive_core::boxtree::{BoxItem, BoxNode};
    use alive_core::{Attr, Value};

    fn render(node: &BoxNode) -> String {
        render_to_text(&layout(node))
    }

    #[test]
    fn renders_stacked_text() {
        let mut root = BoxNode::new(None);
        root.items.push(BoxItem::leaf(Value::str("hello")));
        root.items.push(BoxItem::leaf(Value::str("world")));
        assert_eq!(render(&root), "hello\nworld\n");
    }

    #[test]
    fn renders_border() {
        let mut inner = BoxNode::new(None);
        inner
            .items
            .push(BoxItem::attr(Attr::Border, Value::Number(1.0)));
        inner.items.push(BoxItem::leaf(Value::str("x")));
        let mut root = BoxNode::new(None);
        root.push_child(inner);
        assert_eq!(render(&root), "+-+\n|x|\n+-+\n");
    }

    #[test]
    fn renders_background_shading() {
        let mut inner = BoxNode::new(None);
        inner.items.push(BoxItem::attr(
            Attr::Background,
            Value::Color(alive_core::Color::new(170, 210, 240)),
        ));
        inner
            .items
            .push(BoxItem::attr(Attr::Width, Value::Number(3.0)));
        inner
            .items
            .push(BoxItem::attr(Attr::Height, Value::Number(1.0)));
        let mut root = BoxNode::new(None);
        root.push_child(inner);
        assert_eq!(render(&root), "░░░\n");
    }

    #[test]
    fn scaled_text_doubles_cells() {
        let mut root = BoxNode::new(None);
        root.items
            .push(BoxItem::attr(Attr::FontSize, Value::Number(2.0)));
        root.items.push(BoxItem::leaf(Value::str("a")));
        assert_eq!(render(&root), "aa\naa\n");
    }

    #[test]
    fn outline_all_boxes_mode() {
        let mut inner = BoxNode::new(None);
        inner
            .items
            .push(BoxItem::attr(Attr::Padding, Value::Number(1.0)));
        inner.items.push(BoxItem::leaf(Value::str("x")));
        let mut root = BoxNode::new(None);
        root.push_child(inner);
        let tree = layout(&root);
        let plain = render_with_options(&tree, RenderOptions::default());
        let outlined = render_with_options(
            &tree,
            RenderOptions {
                outline_all_boxes: true,
                ..RenderOptions::default()
            },
        );
        assert!(!plain.contains('+'), "no frames by default: {plain}");
        assert_eq!(outlined, "+-+\n|x|\n+-+\n");
    }

    #[test]
    fn zoomed_out_view_shrinks_but_keeps_structure() {
        // Two bordered boxes stacked; at zoom 2 they remain two distinct
        // structures at half size.
        let mut a = BoxNode::new(None);
        a.items
            .push(BoxItem::attr(Attr::Border, Value::Number(1.0)));
        a.items.push(BoxItem::leaf(Value::str("alpha")));
        let mut b = BoxNode::new(None);
        b.items.push(BoxItem::leaf(Value::str("beta one")));
        b.items.push(BoxItem::leaf(Value::str("beta two")));
        let mut root = BoxNode::new(None);
        root.push_child(a);
        root.push_child(b);
        let tree = layout(&root);
        let full = render_to_text(&tree);
        let zoomed = render_zoomed_out(&tree, 2);
        assert!(zoomed.lines().count() < full.lines().count());
        assert!(zoomed.contains('▫'), "borders survive: {zoomed}");
        assert!(zoomed.contains('▪'), "text survives as blocks: {zoomed}");
        // Zoom 1 == plain text modulo glyph substitution size.
        let zoom1 = render_zoomed_out(&tree, 1);
        assert_eq!(zoom1.lines().count(), full.lines().count());
    }

    #[test]
    fn canvas_bounds_are_safe() {
        let mut c = Canvas::new(2, 2);
        c.put(-1, 0, 'x');
        c.put(5, 5, 'x');
        assert_eq!(c.get(-1, 0), None);
        assert_eq!(c.get(0, 0), Some(' '));
        assert_eq!(c.width(), 2);
        assert_eq!(c.height(), 2);
    }
}
