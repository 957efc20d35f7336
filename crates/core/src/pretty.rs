//! Pretty-printing of *core* expressions (post-lowering).
//!
//! Used by the stepper (`smallstep` traces rendered as readable
//! reduction sequences), the REPL, and diagnostics. The output is
//! surface-like but not necessarily re-parseable (core constructs such
//! as resolved primitives print as their qualified names).

use crate::expr::{Expr, ExprKind};
use std::fmt::Write as _;

/// Render a core expression on one line, eliding deep subterms with
/// `…` beyond `max_depth`.
pub fn pretty_expr(expr: &Expr, max_depth: usize) -> String {
    let mut out = String::new();
    write_expr(&mut out, expr, max_depth);
    out
}

fn write_expr(out: &mut String, expr: &Expr, depth: usize) {
    if depth == 0 {
        out.push('…');
        return;
    }
    let d = depth - 1;
    match &expr.kind {
        ExprKind::Num(n) => {
            out.push_str(&crate::value::fmt_number(*n));
        }
        ExprKind::Str(s) => {
            let _ = write!(out, "{s:?}");
        }
        ExprKind::Bool(b) => {
            let _ = write!(out, "{b}");
        }
        ExprKind::ColorLit(c) => {
            let _ = write!(out, "colors.{c}");
        }
        ExprKind::Local(n) => out.push_str(n),
        ExprKind::Global(g) => out.push_str(g),
        ExprKind::FunRef(f) => out.push_str(f),
        ExprKind::PrimRef(p) => {
            let _ = write!(out, "{p}");
        }
        ExprKind::Tuple(es) => {
            out.push('(');
            for (i, e) in es.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_expr(out, e, d);
            }
            out.push(')');
        }
        ExprKind::ListLit(es) => {
            out.push('[');
            for (i, e) in es.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_expr(out, e, d);
            }
            out.push(']');
        }
        ExprKind::Proj(e, i) => {
            write_expr(out, e, d);
            let _ = write!(out, ".{i}");
        }
        ExprKind::Call(f, args) => {
            write_expr(out, f, d);
            out.push('(');
            for (i, a) in args.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_expr(out, a, d);
            }
            out.push(')');
        }
        ExprKind::Lambda(lam) => {
            out.push_str("fn(");
            for (i, p) in lam.params.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "{}: {}", p.name, p.ty);
            }
            out.push_str(") -> ");
            write_expr(out, &lam.body, d);
        }
        ExprKind::Let {
            name, value, body, ..
        } => {
            let _ = write!(out, "let {name} = ");
            write_expr(out, value, d);
            out.push_str("; ");
            write_expr(out, body, d);
        }
        ExprKind::Seq(a, b) => {
            write_expr(out, a, d);
            out.push_str("; ");
            write_expr(out, b, d);
        }
        ExprKind::If(c, t, e) => {
            out.push_str("if ");
            write_expr(out, c, d);
            out.push_str(" { ");
            write_expr(out, t, d);
            out.push_str(" } else { ");
            write_expr(out, e, d);
            out.push_str(" }");
        }
        ExprKind::While(c, b) => {
            out.push_str("while ");
            write_expr(out, c, d);
            out.push_str(" { ");
            write_expr(out, b, d);
            out.push_str(" }");
        }
        ExprKind::ForRange { var, lo, hi, body } => {
            let _ = write!(out, "for {var} in ");
            write_expr(out, lo, d);
            out.push_str(" .. ");
            write_expr(out, hi, d);
            out.push_str(" { ");
            write_expr(out, body, d);
            out.push_str(" }");
        }
        ExprKind::Foreach { var, list, body } => {
            let _ = write!(out, "foreach {var} in ");
            write_expr(out, list, d);
            out.push_str(" { ");
            write_expr(out, body, d);
            out.push_str(" }");
        }
        ExprKind::LocalAssign(n, e) | ExprKind::WidgetWrite(n, e) => {
            let _ = write!(out, "{n} := ");
            write_expr(out, e, d);
        }
        ExprKind::WidgetRead(n) => out.push_str(n),
        ExprKind::Remember {
            name,
            ty,
            init,
            body,
            ..
        } => {
            let _ = write!(out, "remember {name} : {ty} = ");
            write_expr(out, init, d);
            out.push_str("; ");
            write_expr(out, body, d);
        }
        ExprKind::GlobalAssign(g, e) => {
            let _ = write!(out, "{g} := ");
            write_expr(out, e, d);
        }
        ExprKind::PushPage(p, args) => {
            let _ = write!(out, "push {p}(");
            for (i, a) in args.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_expr(out, a, d);
            }
            out.push(')');
        }
        ExprKind::PopPage => out.push_str("pop"),
        ExprKind::Boxed(_, body) => {
            out.push_str("boxed { ");
            write_expr(out, body, d);
            out.push_str(" }");
        }
        ExprKind::Post(e) => {
            out.push_str("post ");
            write_expr(out, e, d);
        }
        ExprKind::SetAttr(a, e) => {
            let _ = write!(out, "box.{a} := ");
            write_expr(out, e, d);
        }
        ExprKind::Binary(op, l, r) => {
            out.push('(');
            write_expr(out, l, d);
            let _ = write!(out, " {} ", op.text());
            write_expr(out, r, d);
            out.push(')');
        }
        ExprKind::Unary(op, e) => {
            out.push_str(op.text());
            write_expr(out, e, d);
        }
        ExprKind::Val(v) => match v {
            crate::value::Value::Str(s) => {
                let _ = write!(out, "{s:?}");
            }
            v => out.push_str(&v.display_text()),
        },
        ExprKind::Capture(lam, env) => {
            out.push('[');
            for (i, (name, value)) in env.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "{name} := ");
                write_expr(out, value, d);
            }
            out.push_str("] ");
            write_expr(
                out,
                &Expr::new(ExprKind::Lambda(lam.clone()), expr.span),
                depth,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile;

    #[test]
    fn prints_core_forms() {
        let p = compile(
            "global g : number = 1
             fun f(x: number): number pure { x + g }
             page start() {
                 init { g := f(2); push start(); }
                 render { boxed { post g; box.margin := 1; } }
             }",
        )
        .expect("compiles");
        let init = pretty_expr(&p.page("start").expect("page").init, 10);
        assert_eq!(init, "g := f(2); push start(); ()");
        let render = pretty_expr(&p.page("start").expect("page").render, 10);
        assert_eq!(render, "boxed { post g; box.margin := 1; () }");
        let body = pretty_expr(&p.fun("f").expect("f").body, 10);
        assert_eq!(body, "(x + g)");
    }

    #[test]
    fn elides_beyond_depth() {
        let p = compile(
            "fun f(): number pure { ((1 + 2) + 3) + 4 }
             page start() { render { } }",
        )
        .expect("compiles");
        let shallow = pretty_expr(&p.fun("f").expect("f").body, 2);
        assert!(shallow.contains('…'), "{shallow}");
        let deep = pretty_expr(&p.fun("f").expect("f").body, 10);
        assert_eq!(deep, "(((1 + 2) + 3) + 4)");
    }
}
