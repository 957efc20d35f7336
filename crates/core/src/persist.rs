//! Model persistence — the paper's programs "consist of both code and
//! *persistent* data" (§1), inheriting Smalltalk's image-based
//! persistence through TouchDevelop (§6).
//!
//! The store is serialized as *literal expressions of the language
//! itself*: each global becomes a line `g := <value literal>`, and
//! loading parses the literal with the ordinary expression parser,
//! lowers it, evaluates it (it is closed and pure), and type-checks it
//! against the current program — so a snapshot taken under old code is
//! subjected to exactly the Fig. 12 fix-up discipline when restored
//! under new code: ill-typed entries are dropped, not crashed on.
//!
//! Only →-free values exist in the store (T-C-GLOBAL), so every value
//! has a literal form.

use crate::program::Program;
use crate::store::Store;
use crate::value::{Color, Value};
use std::fmt;
use std::fmt::Write as _;

/// Render a (→-free) value as a parseable literal of the language.
///
/// # Errors
///
/// [`PersistError::Unpersistable`] on closures, primitives, and widget
/// references — those cannot be stored in globals (T-C-GLOBAL), so a
/// store snapshot of a type-checked program never contains them; a
/// corrupted store is reported instead of crashed on.
pub fn value_to_literal(value: &Value) -> Result<String, PersistError> {
    let mut out = String::new();
    write_literal(&mut out, value)
        .map_err(|what| PersistError::Unpersistable { global: None, what })?;
    Ok(out)
}

fn write_literal(out: &mut String, value: &Value) -> Result<(), &'static str> {
    match value {
        Value::Number(n) => {
            if n.is_finite() {
                let _ = write!(out, "{n}");
            } else if n.is_nan() {
                // No NaN literal; 0/0 evaluates to NaN.
                out.push_str("(0 / 0)");
            } else if *n > 0.0 {
                out.push_str("(1 / 0)");
            } else {
                out.push_str("(-1 / 0)");
            }
        }
        Value::Str(s) => {
            out.push('"');
            for ch in s.chars() {
                match ch {
                    '\n' => out.push_str("\\n"),
                    '\t' => out.push_str("\\t"),
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    c => out.push(c),
                }
            }
            out.push('"');
        }
        Value::Bool(b) => {
            let _ = write!(out, "{b}");
        }
        Value::Color(c) => match c.name() {
            Some(name) => {
                let _ = write!(out, "colors.{name}");
            }
            None => {
                // Un-named colors have no literal; snap to the nearest
                // named color (the palette is the language's color space).
                let nearest = nearest_named(*c);
                let _ = write!(out, "colors.{nearest}");
            }
        },
        Value::Tuple(vs) => {
            out.push('(');
            for (i, v) in vs.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_literal(out, v)?;
            }
            out.push(')');
        }
        Value::List(vs) => {
            out.push('[');
            for (i, v) in vs.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_literal(out, v)?;
            }
            out.push(']');
        }
        // Store values are function-free for type-checked programs
        // (T-C-GLOBAL); a corrupted store is a typed error, not a panic.
        Value::Closure(_) => return Err("closure"),
        Value::Prim(_) => return Err("primitive"),
        Value::WidgetRef(_) => return Err("widget reference"),
    }
    Ok(())
}

fn nearest_named(c: Color) -> &'static str {
    Color::NAMED
        .iter()
        .min_by_key(|(_, n)| {
            let dr = i32::from(n.r) - i32::from(c.r);
            let dg = i32::from(n.g) - i32::from(c.g);
            let db = i32::from(n.b) - i32::from(c.b);
            dr * dr + dg * dg + db * db
        })
        .map(|(name, _)| *name)
        .unwrap_or("black")
}

/// Serialize a store snapshot.
///
/// # Errors
///
/// [`PersistError::Unpersistable`] (naming the offending global) if the
/// store holds a value with no literal form — impossible for
/// type-checked programs, reported instead of panicked on otherwise.
pub fn save_store(store: &Store) -> Result<String, PersistError> {
    let mut out = String::from("#alive-store v1\n");
    for (name, value) in store.iter() {
        let literal = value_to_literal(value).map_err(|e| match e {
            PersistError::Unpersistable { what, .. } => PersistError::Unpersistable {
                global: Some(name.to_string()),
                what,
            },
            other => other,
        })?;
        let _ = writeln!(out, "{name} := {literal}");
    }
    Ok(out)
}

/// An error snapshotting or restoring the model.
#[derive(Debug, Clone, PartialEq)]
pub enum PersistError {
    /// Malformed snapshot syntax on load.
    Syntax {
        /// 1-based line of the problem.
        line: usize,
        /// Description.
        message: String,
    },
    /// A store value has no literal form (closures, primitives, widget
    /// references) — the store is corrupted; snapshotting it is refused
    /// rather than aborted.
    Unpersistable {
        /// The global holding the value, when known.
        global: Option<String>,
        /// What kind of value could not be persisted.
        what: &'static str,
    },
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Syntax { line, message } => {
                write!(f, "snapshot error at line {line}: {message}")
            }
            PersistError::Unpersistable { global, what } => match global {
                Some(g) => write!(f, "global `{g}` holds a {what}, which has no literal form"),
                None => write!(f, "a {what} has no literal form"),
            },
        }
    }
}

impl std::error::Error for PersistError {}

/// What happened to each snapshot entry on load.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LoadReport {
    /// Entries restored into the store.
    pub restored: Vec<String>,
    /// Entries skipped (unknown global or type mismatch under the
    /// current program — the persistence analogue of S-SKIP).
    pub skipped: Vec<(String, String)>,
}

/// Restore a snapshot against the current program. Entries that do not
/// type-check under `program` are skipped (reported, not fatal), so old
/// snapshots survive code evolution the same way old stores survive
/// UPDATE.
///
/// # Errors
///
/// [`PersistError`] only for malformed snapshot *syntax*; semantic
/// mismatches are reported in the [`LoadReport`].
pub fn load_store(program: &Program, text: &str) -> Result<(Store, LoadReport), PersistError> {
    let mut lines = text.lines().enumerate();
    match lines.next() {
        Some((_, header)) if header.trim() == "#alive-store v1" => {}
        _ => {
            return Err(PersistError::Syntax {
                line: 1,
                message: "missing `#alive-store v1` header".into(),
            })
        }
    }
    let mut store = Store::new();
    let mut report = LoadReport::default();
    for (i, line) in lines {
        let line_no = i + 1;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let Some((name, literal)) = line.split_once(":=") else {
            return Err(PersistError::Syntax {
                line: line_no,
                message: format!("expected `name := literal`, found {line:?}"),
            });
        };
        let name = name.trim();
        let literal = literal.trim();
        let value = match parse_literal(literal) {
            Ok(v) => v,
            Err(message) => {
                return Err(PersistError::Syntax {
                    line: line_no,
                    message,
                })
            }
        };
        match program.global(name) {
            None => report.skipped.push((
                name.to_string(),
                "no such global in the current code".into(),
            )),
            Some(def) if !value.has_type(&def.ty) => report.skipped.push((
                name.to_string(),
                format!("value is not a `{}` anymore", def.ty),
            )),
            Some(_) => {
                report.restored.push(name.to_string());
                store.set(name, value);
            }
        }
    }
    Ok((store, report))
}

/// Parse a value literal back into a value: parse with the ordinary
/// expression parser and build the value straight from the literal
/// forms (numbers, strings, bools, named colors, tuples, lists, and the
/// negations and quotients that spell negative and non-finite numbers).
fn parse_literal(src: &str) -> Result<Value, String> {
    let expr = alive_syntax::parse_expr(src).map_err(|d| d.to_string())?;
    literal_value(&expr)
}

fn literal_value(expr: &alive_syntax::ast::Expr) -> Result<Value, String> {
    use alive_syntax::ast::{ExprKind as S, UnOp};
    let all = |es: &[alive_syntax::ast::Expr]| {
        es.iter().map(literal_value).collect::<Result<Vec<_>, _>>()
    };
    Ok(match &expr.kind {
        S::Number(n) => Value::Number(*n),
        S::Str(s) => Value::str(s),
        S::Bool(b) => Value::Bool(*b),
        S::Tuple(es) => Value::tuple(all(es)?),
        S::ListLit(es) => Value::list(all(es)?),
        S::Qualified { ns, name } if ns.text == "colors" => match Color::by_name(&name.text) {
            Some(c) => Value::Color(c),
            None => return Err(format!("unknown color `{}`", name.text)),
        },
        S::Unary {
            op: UnOp::Neg,
            expr,
        } => match literal_value(expr)? {
            Value::Number(n) => Value::Number(-n),
            other => return Err(format!("cannot negate {other}")),
        },
        S::Binary { op, lhs, rhs } => {
            crate::vm::apply_binop(*op, &literal_value(lhs)?, &literal_value(rhs)?)
                .map_err(|e| e.to_string())?
        }
        other => return Err(format!("not a value literal: {other:?}")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile;

    fn sample_store() -> Store {
        let mut s = Store::new();
        s.set("count", Value::Number(42.5));
        s.set("name", Value::str("ada \"quoted\"\nline2"));
        s.set("flag", Value::Bool(true));
        s.set(
            "hue",
            Value::Color(Color::by_name("light_blue").expect("known")),
        );
        s.set(
            "pairs",
            Value::list(vec![
                Value::tuple(vec![Value::str("a"), Value::Number(1.0)]),
                Value::tuple(vec![Value::str("b"), Value::Number(-2.0)]),
            ]),
        );
        s
    }

    fn matching_program() -> Program {
        compile(
            "global count : number = 0
             global name : string = \"\"
             global flag : bool = false
             global hue : color = colors.black
             global pairs : list (string, number) = []
             page start() { render { } }",
        )
        .expect("compiles")
    }

    #[test]
    fn corrupted_store_is_a_typed_error_not_a_panic() {
        let mut s = Store::new();
        s.set("f", Value::Prim(crate::prim::Prim::MathFloor));
        let err = save_store(&s).expect_err("unpersistable");
        assert_eq!(
            err,
            PersistError::Unpersistable {
                global: Some("f".into()),
                what: "primitive",
            }
        );
        assert!(err.to_string().contains("`f`"), "{err}");
    }

    #[test]
    fn store_roundtrips_through_literals() {
        let original = sample_store();
        let text = save_store(&original).expect("saves");
        let (restored, report) = load_store(&matching_program(), &text).expect("loads");
        assert_eq!(restored, original);
        assert_eq!(report.restored.len(), 5);
        assert!(report.skipped.is_empty());
    }

    #[test]
    fn snapshot_survives_code_evolution_like_fixup() {
        let text = save_store(&sample_store()).expect("saves");
        // New code: `count` retyped, `flag` gone, the rest unchanged.
        let evolved = compile(
            "global count : string = \"zero\"
             global name : string = \"\"
             global hue : color = colors.black
             global pairs : list (string, number) = []
             page start() { render { } }",
        )
        .expect("compiles");
        let (restored, report) = load_store(&evolved, &text).expect("loads");
        assert_eq!(report.restored, vec!["hue", "name", "pairs"]);
        assert_eq!(report.skipped.len(), 2);
        assert!(!restored.contains("count"));
        assert!(!restored.contains("flag"));
    }

    #[test]
    fn special_numbers_roundtrip() {
        let mut s = Store::new();
        s.set("inf", Value::Number(f64::INFINITY));
        s.set("ninf", Value::Number(f64::NEG_INFINITY));
        let p = compile(
            "global inf : number = 0
             global ninf : number = 0
             page start() { render { } }",
        )
        .expect("compiles");
        let (restored, _) = load_store(&p, &save_store(&s).expect("saves")).expect("loads");
        assert_eq!(restored.get("inf"), Some(&Value::Number(f64::INFINITY)));
        assert_eq!(
            restored.get("ninf"),
            Some(&Value::Number(f64::NEG_INFINITY))
        );
    }

    #[test]
    fn malformed_snapshots_are_syntax_errors() {
        let p = matching_program();
        assert!(load_store(&p, "").is_err());
        assert!(load_store(&p, "#alive-store v1\ncount 42").is_err());
        assert!(load_store(&p, "#alive-store v1\ncount := fn() -> 1").is_err());
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let p = matching_program();
        let text = "#alive-store v1\n\n# a comment\ncount := 7\n";
        let (restored, report) = load_store(&p, text).expect("loads");
        assert_eq!(restored.get("count"), Some(&Value::Number(7.0)));
        assert_eq!(report.restored, vec!["count"]);
    }

    #[test]
    fn unnamed_colors_snap_to_palette() {
        assert_eq!(
            value_to_literal(&Value::Color(Color::new(172, 208, 238))).expect("persistable"),
            "colors.light_blue"
        );
    }
}
