//! # alive-syntax
//!
//! Surface syntax of the *its-alive* live UI programming language — a Rust
//! reproduction of the language of *"It's Alive! Continuous Feedback in UI
//! Programming"* (PLDI 2013).
//!
//! The surface language has:
//!
//! * `global g : τ = e` definitions (the program's *model* state),
//! * `fun f(x : τ, ...) : τ µ { ... }` functions with an explicit effect
//!   annotation `µ ∈ {pure, state, render}` (defaults to `pure`),
//! * `page p(x : τ, ...) { init { ... } render { ... } }` pages with the
//!   paper's two bodies,
//! * `boxed { ... }`, `post e;`, `box.attr := e;`, and `on event { ... }`
//!   statements for imperative UI construction,
//! * `push p(e, ...);` / `pop;` page-stack navigation,
//! * plus ordinary expressions, `let`, conditionals and loops.
//!
//! # Example
//!
//! ```
//! use alive_syntax::parse_program;
//!
//! let result = parse_program(r#"
//!     global count : number = 0
//!     page start() {
//!         init { count := 1; }
//!         render { boxed { post count; } }
//!     }
//! "#);
//! assert!(result.is_ok());
//! assert_eq!(result.program.pages().count(), 1);
//! ```

#![warn(missing_docs)]

pub mod ast;
pub mod diag;
pub mod edit;
pub mod incremental;
pub mod lexer;
pub mod parser;
pub mod pretty;
pub mod rebase;
pub mod span;
pub mod token;

pub use ast::Program;
pub use diag::{Diagnostic, Diagnostics, Severity};
pub use edit::{apply_edit_batches, apply_edits, EditError, TextEdit};
pub use incremental::{chunk_items, IncrementalParser};
pub use parser::{parse_expr, parse_program, ParseResult, MAX_NESTING, MAX_STATEMENTS};
pub use pretty::{pretty_expr, pretty_program, pretty_stmt, pretty_type};
pub use span::{LineCol, SourceMap, Span};
