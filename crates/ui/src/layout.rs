//! Box-tree layout.
//!
//! The paper deliberately does not formalize visual layout ("We do not
//! formalize the visual layout of box trees", §4); this module is the
//! deterministic substrate standing in for TouchDevelop's browser
//! renderer. Boxes stack vertically by default and horizontally when
//! `box.horizontal := true` — "nested boxes, akin to TeX and HTML" (§1).
//!
//! Layout is two-pass over one owned tree: a bottom-up *measure* pass
//! builds every [`LayoutBox`] with its size resolved, then a top-down
//! *place* pass moves each box and text block to its origin in place. Attributes
//! used: `margin`, `padding`, `border`, `width`, `height`, `font_size`,
//! `horizontal`, `background`, `foreground`.

use crate::geom::{Point, Rect, Size};
use alive_core::boxtree::{BoxItem, BoxNode};
use alive_core::expr::BoxSourceId;
use alive_core::value::Color;
use alive_core::{Attr, Value};

/// Visual style resolved from a box's attributes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Style {
    /// Outer spacing.
    pub margin: i32,
    /// Inner spacing.
    pub padding: i32,
    /// Border thickness (0 or 1 in the text backend).
    pub border: i32,
    /// Integer text scale (1 = normal).
    pub font_size: i32,
    /// Horizontal stacking instead of vertical.
    pub horizontal: bool,
    /// Background fill, if set.
    pub background: Option<Color>,
    /// Text color, if set.
    pub foreground: Option<Color>,
    /// Fixed width override.
    pub width: Option<i32>,
    /// Fixed height override.
    pub height: Option<i32>,
    /// Whether the box has a tap handler (hit-testing cares).
    pub tappable: bool,
    /// Whether the box has an edit handler.
    pub editable: bool,
}

impl Default for Style {
    fn default() -> Self {
        Style {
            margin: 0,
            padding: 0,
            border: 0,
            font_size: 1,
            horizontal: false,
            background: None,
            foreground: None,
            width: None,
            height: None,
            tappable: false,
            editable: false,
        }
    }
}

impl Style {
    /// Resolve a style from a box's attribute items in one forward pass:
    /// a later setting of an attribute overwrites an earlier one, so the
    /// rightmost wins, as in [`BoxNode::attr`].
    pub fn from_box(node: &BoxNode) -> Style {
        let num = |v: &Value| match v {
            Value::Number(n) => Some(n.round().max(0.0) as i32),
            _ => None,
        };
        let color = |v: &Value| match v {
            Value::Color(c) => Some(*c),
            _ => None,
        };
        let mut style = Style::default();
        let (mut margin, mut padding, mut border, mut font_size) = (None, None, None, None);
        for item in &node.items {
            let BoxItem::Attr(attr, v, _) = item else {
                continue;
            };
            match attr {
                Attr::Margin => margin = num(v),
                Attr::Padding => padding = num(v),
                Attr::Border => border = num(v),
                Attr::FontSize => font_size = num(v),
                Attr::Width => style.width = num(v),
                Attr::Height => style.height = num(v),
                Attr::Horizontal => style.horizontal = matches!(v, Value::Bool(true)),
                Attr::Background => style.background = color(v),
                Attr::Foreground => style.foreground = color(v),
                Attr::OnTap => style.tappable = true,
                Attr::OnEdit => style.editable = true,
            }
        }
        style.margin = margin.unwrap_or(0);
        style.padding = padding.unwrap_or(0);
        style.border = border.unwrap_or(0).min(1);
        style.font_size = font_size.unwrap_or(1).max(1);
        style
    }
}

/// One laid-out item inside a box.
#[derive(Debug, Clone, PartialEq)]
pub enum LayoutItem {
    /// A posted leaf rendered as text.
    Text {
        /// Where the text sits (border-box of the text block).
        rect: Rect,
        /// The lines of text (pre-split).
        lines: Vec<String>,
        /// Text scale inherited from the box.
        font_size: i32,
    },
    /// A nested box.
    Child(LayoutBox),
}

/// A laid-out box: its rectangle, style, and laid-out contents.
#[derive(Debug, Clone, PartialEq)]
pub struct LayoutBox {
    /// Path of child indices from the root box.
    pub path: Vec<usize>,
    /// The `boxed` statement that created this box, for navigation.
    pub source: Option<BoxSourceId>,
    /// The border box (everything but the margin).
    pub rect: Rect,
    /// Resolved style.
    pub style: Style,
    /// Contents in order.
    pub items: Vec<LayoutItem>,
}

impl LayoutBox {
    /// Total number of boxes in this subtree.
    pub fn box_count(&self) -> usize {
        1 + self
            .items
            .iter()
            .map(|i| match i {
                LayoutItem::Child(c) => c.box_count(),
                LayoutItem::Text { .. } => 0,
            })
            .sum::<usize>()
    }

    /// Visit every box, pre-order.
    pub fn walk(&self, visit: &mut dyn FnMut(&LayoutBox)) {
        visit(self);
        for item in &self.items {
            if let LayoutItem::Child(c) = item {
                c.walk(visit);
            }
        }
    }
}

/// A complete layout of a display.
#[derive(Debug, Clone, PartialEq)]
pub struct LayoutTree {
    /// The laid-out top-level box.
    pub root: LayoutBox,
}

impl LayoutTree {
    /// Overall size of the laid-out display.
    pub fn size(&self) -> Size {
        Size::new(
            self.root.rect.right() + self.root.style.margin,
            self.root.rect.bottom() + self.root.style.margin,
        )
    }

    /// Find the laid-out box for a box-tree path.
    pub fn by_path(&self, path: &[usize]) -> Option<&LayoutBox> {
        let mut node = &self.root;
        for &i in path {
            node = self.nth_child(node, i)?;
        }
        Some(node)
    }

    fn nth_child<'t>(&self, node: &'t LayoutBox, i: usize) -> Option<&'t LayoutBox> {
        node.items
            .iter()
            .filter_map(|item| match item {
                LayoutItem::Child(c) => Some(c),
                LayoutItem::Text { .. } => None,
            })
            .nth(i)
    }
}

/// Lay out a box tree. The root box is placed at the origin (its margin
/// included).
pub fn layout(root: &BoxNode) -> LayoutTree {
    let mut root_box = measure(root, &mut Vec::new());
    let margin = root_box.style.margin;
    place(&mut root_box, Point::new(margin, margin));
    LayoutTree { root: root_box }
}

fn text_lines(value: &Value) -> Vec<String> {
    let text = value.display_text();
    if text.contains('\n') {
        text.split('\n').map(str::to_string).collect()
    } else {
        vec![text]
    }
}

/// The margin-inclusive size a laid-out box takes in its parent.
fn outer_size(node: &LayoutBox) -> Size {
    let m = 2 * node.style.margin;
    Size::new(node.rect.size.w + m, node.rect.size.h + m)
}

/// Bottom-up pass: build the laid-out tree with every size resolved and
/// every origin left at zero for [`place`] to fill in. `path` is the
/// box's path from the root; it is pushed and popped around each child.
fn measure(node: &BoxNode, path: &mut Vec<usize>) -> LayoutBox {
    let style = Style::from_box(node);
    let mut items = Vec::with_capacity(node.items.len());
    let mut children = 0usize;
    let mut main = 0i32; // along the stacking axis
    let mut cross = 0i32;
    for item in &node.items {
        let (laid, size) = match item {
            BoxItem::Attr(..) => continue,
            BoxItem::Leaf(v, _) => {
                let lines = text_lines(v);
                let w = lines
                    .iter()
                    .map(|l| l.chars().count() as i32)
                    .max()
                    .unwrap_or(0)
                    * style.font_size;
                let h = lines.len() as i32 * style.font_size;
                let size = Size::new(w, h);
                let text = LayoutItem::Text {
                    rect: Rect {
                        origin: Point::default(),
                        size,
                    },
                    lines,
                    font_size: style.font_size,
                };
                (text, size)
            }
            BoxItem::Child(child) => {
                path.push(children);
                children += 1;
                let laid = measure(child, path);
                path.pop();
                let size = outer_size(&laid);
                (LayoutItem::Child(laid), size)
            }
        };
        if style.horizontal {
            main += size.w;
            cross = cross.max(size.h);
        } else {
            main += size.h;
            cross = cross.max(size.w);
        }
        items.push(laid);
    }
    let content = if style.horizontal {
        Size::new(main, cross)
    } else {
        Size::new(cross, main)
    };
    let chrome = 2 * (style.padding + style.border);
    let mut size = Size::new(content.w + chrome, content.h + chrome);
    if let Some(w) = style.width {
        size.w = w;
    }
    if let Some(h) = style.height {
        size.h = h;
    }
    LayoutBox {
        path: path.clone(),
        source: node.source,
        rect: Rect {
            origin: Point::default(),
            size,
        },
        style,
        items,
    }
}

/// Top-down pass: move a measured box to `origin` and stack its items
/// from its content corner.
fn place(node: &mut LayoutBox, origin: Point) {
    node.rect.origin = origin;
    let inset = node.style.padding + node.style.border;
    let horizontal = node.style.horizontal;
    let mut cursor = Point::new(origin.x + inset, origin.y + inset);
    for item in &mut node.items {
        let advance = match item {
            LayoutItem::Text { rect, .. } => {
                rect.origin = cursor;
                rect.size
            }
            LayoutItem::Child(child) => {
                let margin = child.style.margin;
                place(child, Point::new(cursor.x + margin, cursor.y + margin));
                outer_size(child)
            }
        };
        if horizontal {
            cursor.x += advance.w;
        } else {
            cursor.y += advance.h;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alive_core::boxtree::BoxItem;

    fn leaf_box(text: &str) -> BoxNode {
        let mut b = BoxNode::new(None);
        b.items.push(BoxItem::leaf(Value::str(text)));
        b
    }

    fn with_attr(mut b: BoxNode, attr: Attr, v: Value) -> BoxNode {
        b.items.insert(0, BoxItem::attr(attr, v));
        b
    }

    #[test]
    fn vertical_stacking_is_default() {
        let mut root = BoxNode::new(None);
        root.push_child(leaf_box("aaaa"));
        root.push_child(leaf_box("bb"));
        let tree = layout(&root);
        let first = tree.by_path(&[0]).expect("first child");
        let second = tree.by_path(&[1]).expect("second child");
        assert_eq!(first.rect, Rect::new(0, 0, 4, 1));
        assert_eq!(second.rect, Rect::new(0, 1, 2, 1));
        assert_eq!(tree.root.rect.size, Size::new(4, 2));
    }

    #[test]
    fn horizontal_attribute_changes_axis() {
        let mut root = BoxNode::new(None);
        root.items
            .push(BoxItem::attr(Attr::Horizontal, Value::Bool(true)));
        root.push_child(leaf_box("aaaa"));
        root.push_child(leaf_box("bb"));
        let tree = layout(&root);
        let first = tree.by_path(&[0]).expect("first");
        let second = tree.by_path(&[1]).expect("second");
        assert_eq!(first.rect.origin, Point::new(0, 0));
        assert_eq!(second.rect.origin, Point::new(4, 0));
        assert_eq!(tree.root.rect.size, Size::new(6, 1));
    }

    #[test]
    fn margin_offsets_and_grows_parent() {
        let mut root = BoxNode::new(None);
        let child = with_attr(leaf_box("xx"), Attr::Margin, Value::Number(2.0));
        root.push_child(child);
        let tree = layout(&root);
        let child = tree.by_path(&[0]).expect("child");
        assert_eq!(child.rect.origin, Point::new(2, 2));
        // Outer size of the child = 2+2 margin on each axis + content.
        assert_eq!(tree.root.rect.size, Size::new(6, 5));
    }

    #[test]
    fn padding_and_border_inset_content() {
        let b = with_attr(
            with_attr(leaf_box("hi"), Attr::Padding, Value::Number(1.0)),
            Attr::Border,
            Value::Number(1.0),
        );
        let mut root = BoxNode::new(None);
        root.push_child(b);
        let tree = layout(&root);
        let child = tree.by_path(&[0]).expect("child");
        // content 2x1 + 2*(padding 1 + border 1) = 6x5.
        assert_eq!(child.rect.size, Size::new(6, 5));
        let LayoutItem::Child(ref c) = tree.root.items[0] else {
            panic!()
        };
        let LayoutItem::Text { rect, .. } = &c.items[0] else {
            panic!()
        };
        assert_eq!(rect.origin, Point::new(2, 2));
    }

    #[test]
    fn font_size_scales_text() {
        let b = with_attr(leaf_box("ab"), Attr::FontSize, Value::Number(2.0));
        let mut root = BoxNode::new(None);
        root.push_child(b);
        let tree = layout(&root);
        assert_eq!(
            tree.by_path(&[0]).expect("child").rect.size,
            Size::new(4, 2)
        );
    }

    #[test]
    fn width_height_overrides() {
        let b = with_attr(
            with_attr(leaf_box("hello"), Attr::Width, Value::Number(3.0)),
            Attr::Height,
            Value::Number(4.0),
        );
        let mut root = BoxNode::new(None);
        root.push_child(b);
        let tree = layout(&root);
        assert_eq!(
            tree.by_path(&[0]).expect("child").rect.size,
            Size::new(3, 4)
        );
    }

    #[test]
    fn style_reads_handlers() {
        let mut b = leaf_box("x");
        b.items.push(BoxItem::attr(
            Attr::OnTap,
            Value::Prim(alive_core::Prim::MathFloor), // any function-ish value
        ));
        let style = Style::from_box(&b);
        assert!(style.tappable);
        assert!(!style.editable);
    }

    #[test]
    fn style_rightmost_setting_wins() {
        let mut b = leaf_box("x");
        b.items
            .push(BoxItem::attr(Attr::Margin, Value::Number(3.0)));
        b.items
            .push(BoxItem::attr(Attr::Border, Value::Number(5.0)));
        // A later non-number setting clears the earlier number, as
        // `BoxNode::attr` would report it.
        b.items
            .push(BoxItem::attr(Attr::Margin, Value::str("wide")));
        b.items
            .push(BoxItem::attr(Attr::Horizontal, Value::Bool(true)));
        b.items
            .push(BoxItem::attr(Attr::Horizontal, Value::Bool(false)));
        let style = Style::from_box(&b);
        assert_eq!(style.margin, 0);
        assert_eq!(style.border, 1, "border clamps to one cell");
        assert!(!style.horizontal);
        assert_eq!(style.font_size, 1);
    }

    #[test]
    fn paths_match_box_tree_indices() {
        let mut inner = BoxNode::new(None);
        inner.push_child(leaf_box("deep"));
        let mut root = BoxNode::new(None);
        root.push_child(leaf_box("a"));
        root.push_child(inner);
        let tree = layout(&root);
        assert_eq!(tree.by_path(&[1, 0]).expect("nested").path, vec![1, 0]);
        assert!(tree.by_path(&[2]).is_none());
        assert_eq!(tree.root.box_count(), 4);
    }

    #[test]
    fn leaves_interleave_with_children() {
        let mut root = BoxNode::new(None);
        root.items.push(BoxItem::leaf(Value::str("top")));
        root.push_child(leaf_box("mid"));
        root.items.push(BoxItem::leaf(Value::str("bottom")));
        let tree = layout(&root);
        let LayoutItem::Text { rect: top, .. } = &tree.root.items[0] else {
            panic!()
        };
        let LayoutItem::Child(mid) = &tree.root.items[1] else {
            panic!()
        };
        let LayoutItem::Text { rect: bottom, .. } = &tree.root.items[2] else {
            panic!()
        };
        assert_eq!(top.origin.y, 0);
        assert_eq!(mid.rect.origin.y, 1);
        assert_eq!(bottom.origin.y, 2);
    }
}
