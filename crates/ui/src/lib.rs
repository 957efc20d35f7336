//! # alive-ui
//!
//! The display substrate for *its-alive*: deterministic layout, text
//! rendering, and hit-testing of the box trees produced by render code.
//!
//! The PLDI 2013 paper runs its system in a browser and explicitly does
//! not formalize layout; this crate is the simulated replacement. It
//! preserves everything the model cares about — the box tree structure,
//! attribute semantics (margins, fonts, colors, stacking direction),
//! and the mapping from user taps to `ontap` handlers — while being
//! fully deterministic and dependency-free.
//!
//! # Example
//!
//! ```
//! use alive_core::compile;
//! use alive_core::system::System;
//! use alive_ui::{layout, render_to_text};
//!
//! let mut system = System::new(compile(r#"
//!     page start() {
//!         render { boxed { post "hello"; } }
//!     }
//! "#).expect("compiles"));
//! let root = system.rendered().expect("renders").clone();
//! let text = render_to_text(&layout(&root));
//! assert_eq!(text, "hello\n");
//! ```

#![warn(missing_docs)]

pub mod geom;
pub mod hittest;
pub mod layout;
pub mod render_ansi;
pub mod render_text;

pub use geom::{Point, Rect, Size};
pub use hittest::{hit_stack, hit_test, hit_test_editable, hit_test_leaf, hit_test_tappable};
pub use layout::{layout, LayoutBox, LayoutItem, LayoutTree, Style};
pub use render_ansi::{render_to_ansi, strip_ansi, AnsiCanvas, AnsiFramebuffer};
pub use render_text::{
    render_to_text, render_with_options, render_zoomed_out, Canvas, RenderOptions,
};
