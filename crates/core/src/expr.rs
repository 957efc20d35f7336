//! Core expressions — the paper's Figure 6 expression grammar after
//! lowering (names resolved, attributes and primitives identified).
//!
//! The kernel constructs of Fig. 6 are all present: values, application,
//! global function references, tuples and projection, global reads and
//! writes, `push`/`pop`, `boxed`, `post`, and `box.a := e`. The extended
//! constructs (`let`, `if`, loops, operators, local assignment) are the
//! conservative extensions discussed in DESIGN.md; [`crate::smallstep`]
//! shows how each reduces within the paper's evaluation framework.
//!
//! Two forms never come out of lowering: [`ExprKind::Val`] and
//! [`ExprKind::Capture`] are the small-step machine's runtime terms (an
//! evaluated value, and a λ collecting its delayed substitution). They
//! live here because the machine reduces by rewriting this same tree,
//! as Fig. 8 rewrites source terms, so its pretty-printed steps and
//! provenance re-evaluation work on one term type; the type checker and
//! the VM compiler refuse them as malformed input.

use crate::attr::Attr;
use crate::prim::Prim;
use crate::types::{Effect, Name, Type};
use crate::value::{Color, Value};
pub use alive_syntax::ast::{BinOp, UnOp};
use alive_syntax::Span;
use std::sync::Arc;

/// A typed parameter of a function, page, or lambda.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamSig {
    /// Parameter name.
    pub name: Name,
    /// Declared type.
    pub ty: Type,
}

impl ParamSig {
    /// Construct a parameter signature.
    pub fn new(name: impl AsRef<str>, ty: Type) -> Self {
        ParamSig {
            name: Arc::from(name.as_ref()),
            ty,
        }
    }
}

/// Identity of a `remember` statement in the program source. Together
/// with an occurrence counter it keys per-box-instance view state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RememberId(pub u32);

/// Identity of a `boxed` statement in the program source.
///
/// Each syntactic `boxed` gets one id at lowering time; every box the
/// statement creates at run time records it, which is what makes the
/// paper's bidirectional UI↔code navigation (Fig. 2) possible — including
/// the one-to-many case where a `boxed` inside a loop produces many boxes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BoxSourceId(pub u32);

/// A lambda: parameters, latent effect, body.
#[derive(Debug, Clone, PartialEq)]
pub struct LambdaExpr {
    /// Parameters.
    pub params: Arc<[ParamSig]>,
    /// Latent effect of the body.
    pub effect: Effect,
    /// Body expression.
    pub body: Arc<Expr>,
}

/// A core expression with its source span.
#[derive(Debug, Clone, PartialEq)]
pub struct Expr {
    /// Shape of the expression.
    pub kind: ExprKind,
    /// Source span (dummy for synthesized nodes).
    pub span: Span,
}

/// The shape of a core [`Expr`].
#[derive(Debug, Clone, PartialEq)]
pub enum ExprKind {
    /// Number literal.
    Num(f64),
    /// String literal.
    Str(Arc<str>),
    /// Boolean literal.
    Bool(bool),
    /// Color literal (`colors.light_blue` resolves to this).
    ColorLit(Color),
    /// A local variable.
    Local(Name),
    /// Read a global variable (Fig. 6 `g`).
    Global(Name),
    /// Reference a global function (Fig. 6 `f`).
    FunRef(Name),
    /// Reference a primitive.
    PrimRef(Prim),
    /// Tuple construction.
    Tuple(Vec<Expr>),
    /// List construction.
    ListLit(Vec<Expr>),
    /// 1-based tuple projection (Fig. 6 `e.n`).
    Proj(Box<Expr>, u32),
    /// Application `e(e1, ..., en)`.
    Call(Box<Expr>, Vec<Expr>),
    /// Lambda abstraction.
    Lambda(Arc<LambdaExpr>),
    /// `let x = e1; e2` — scoped binding.
    Let {
        /// Bound name.
        name: Name,
        /// Declared type, if annotated.
        ty: Option<Type>,
        /// Bound value.
        value: Box<Expr>,
        /// Scope of the binding.
        body: Box<Expr>,
    },
    /// Sequencing `e1; e2` (value of `e2`).
    Seq(Box<Expr>, Box<Expr>),
    /// Conditional.
    If(Box<Expr>, Box<Expr>, Box<Expr>),
    /// While loop; evaluates to unit.
    While(Box<Expr>, Box<Expr>),
    /// `for var in lo .. hi { body }`; evaluates to unit.
    ForRange {
        /// Loop variable.
        var: Name,
        /// Inclusive lower bound.
        lo: Box<Expr>,
        /// Exclusive upper bound.
        hi: Box<Expr>,
        /// Body.
        body: Box<Expr>,
    },
    /// `foreach var in list { body }`; evaluates to unit.
    Foreach {
        /// Loop variable.
        var: Name,
        /// List expression.
        list: Box<Expr>,
        /// Body.
        body: Box<Expr>,
    },
    /// Assign a local variable (extension; not in the substitution kernel).
    LocalAssign(Name, Box<Expr>),
    /// Write a global variable (Fig. 6 `g := e`; state effect).
    GlobalAssign(Name, Box<Expr>),
    /// `push p e` (state effect).
    PushPage(Name, Vec<Expr>),
    /// `pop` (state effect).
    PopPage,
    /// `boxed e` — create a nested box (render effect).
    Boxed(BoxSourceId, Box<Expr>),
    /// `remember x : τ = e1; e2` — bind a per-box-instance view-state
    /// slot over the rest of the block (render effect; §7 extension).
    Remember {
        /// Slot identity in the source.
        id: RememberId,
        /// Bound name.
        name: Name,
        /// Declared →-free slot type.
        ty: Type,
        /// Initializer, evaluated only when the slot is new.
        init: Box<Expr>,
        /// Scope of the binding.
        body: Box<Expr>,
    },
    /// Read a `remember` slot through its bound name (any mode).
    WidgetRead(Name),
    /// Write a `remember` slot (state effect — handlers only).
    WidgetWrite(Name, Box<Expr>),
    /// `post e` — append content to the current box (render effect).
    Post(Box<Expr>),
    /// `box.a := e` — set an attribute of the current box (render effect).
    SetAttr(Attr, Box<Expr>),
    /// Binary operator.
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// Unary operator.
    Unary(UnOp, Box<Expr>),
    /// A runtime value embedded in a term (Fig. 6 `v`): closures, view
    /// slot references and compound values as the small-step machine
    /// produces them. Never produced by lowering.
    Val(Value),
    /// A λ under substitution in the small-step machine: the source
    /// lambda plus the bindings substituted into it so far, outermost
    /// first. Reducing it closes over their current values. Never
    /// produced by lowering.
    Capture(Arc<LambdaExpr>, Vec<(Name, Expr)>),
}

impl Expr {
    /// Construct an expression.
    pub fn new(kind: ExprKind, span: Span) -> Expr {
        Expr { kind, span }
    }

    /// The unit expression `()`.
    pub fn unit(span: Span) -> Expr {
        Expr::new(ExprKind::Tuple(Vec::new()), span)
    }

    /// Whether the expression is the unit literal.
    pub fn is_unit(&self) -> bool {
        matches!(&self.kind, ExprKind::Tuple(es) if es.is_empty())
    }

    /// Sequence a list of expressions; empty list is unit.
    pub fn seq(exprs: Vec<Expr>, span: Span) -> Expr {
        let mut iter = exprs.into_iter();
        match iter.next() {
            None => Expr::unit(span),
            Some(first) => iter.fold(first, |acc, next| {
                let span = acc.span.merge(next.span);
                Expr::new(ExprKind::Seq(Box::new(acc), Box::new(next)), span)
            }),
        }
    }

    /// Visit this expression and all sub-expressions, outside-in.
    pub fn walk(&self, visit: &mut dyn FnMut(&Expr)) {
        visit(self);
        match &self.kind {
            ExprKind::Num(_)
            | ExprKind::Str(_)
            | ExprKind::Bool(_)
            | ExprKind::ColorLit(_)
            | ExprKind::Local(_)
            | ExprKind::Global(_)
            | ExprKind::FunRef(_)
            | ExprKind::PrimRef(_)
            | ExprKind::WidgetRead(_)
            | ExprKind::Val(_)
            | ExprKind::PopPage => {}
            ExprKind::Capture(lam, env) => {
                for (_, e) in env {
                    e.walk(visit);
                }
                lam.body.walk(visit);
            }
            ExprKind::Tuple(es) | ExprKind::ListLit(es) => {
                for e in es {
                    e.walk(visit);
                }
            }
            ExprKind::Proj(e, _)
            | ExprKind::Unary(_, e)
            | ExprKind::LocalAssign(_, e)
            | ExprKind::GlobalAssign(_, e)
            | ExprKind::WidgetWrite(_, e)
            | ExprKind::Boxed(_, e)
            | ExprKind::Post(e)
            | ExprKind::SetAttr(_, e) => e.walk(visit),
            ExprKind::Remember { init, body, .. } => {
                init.walk(visit);
                body.walk(visit);
            }
            ExprKind::Call(callee, args) => {
                callee.walk(visit);
                for a in args {
                    a.walk(visit);
                }
            }
            ExprKind::PushPage(_, args) => {
                for a in args {
                    a.walk(visit);
                }
            }
            ExprKind::Lambda(lam) => lam.body.walk(visit),
            ExprKind::Let { value, body, .. } => {
                value.walk(visit);
                body.walk(visit);
            }
            ExprKind::Seq(a, b) | ExprKind::While(a, b) | ExprKind::Binary(_, a, b) => {
                a.walk(visit);
                b.walk(visit);
            }
            ExprKind::If(c, t, e) => {
                c.walk(visit);
                t.walk(visit);
                e.walk(visit);
            }
            ExprKind::ForRange { lo, hi, body, .. } => {
                lo.walk(visit);
                hi.walk(visit);
                body.walk(visit);
            }
            ExprKind::Foreach { list, body, .. } => {
                list.walk(visit);
                body.walk(visit);
            }
        }
    }

    /// Whether the expression assigns local `name` anywhere inside it
    /// (shadowing ignored, so the answer errs towards `true`).
    pub fn assigns(&self, name: &Name) -> bool {
        let mut found = false;
        self.walk(&mut |e| {
            if let ExprKind::LocalAssign(n, _) = &e.kind {
                found |= Arc::ptr_eq(n, name) || **n == **name;
            }
        });
        found
    }

    /// Count all nodes in the expression tree (a size metric for benches).
    pub fn node_count(&self) -> usize {
        let mut count = 0;
        self.walk(&mut |_| count += 1);
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn num(n: f64) -> Expr {
        Expr::new(ExprKind::Num(n), Span::DUMMY)
    }

    #[test]
    fn seq_construction() {
        assert!(Expr::seq(vec![], Span::DUMMY).is_unit());
        assert_eq!(Expr::seq(vec![num(1.0)], Span::DUMMY), num(1.0));
        let two = Expr::seq(vec![num(1.0), num(2.0)], Span::DUMMY);
        assert!(matches!(two.kind, ExprKind::Seq(..)));
    }

    #[test]
    fn walk_and_node_count() {
        let e = Expr::new(
            ExprKind::Binary(BinOp::Add, Box::new(num(1.0)), Box::new(num(2.0))),
            Span::DUMMY,
        );
        assert_eq!(e.node_count(), 3);
        let nested = Expr::new(ExprKind::Boxed(BoxSourceId(0), Box::new(e)), Span::DUMMY);
        assert_eq!(nested.node_count(), 4);
    }
}
