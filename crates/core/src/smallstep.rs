//! The faithful small-step substitution machine — the paper's Figure 8,
//! extended to the whole checked language. It is the reference
//! semantics the production VM ([`crate::vm`]) is tested against.
//!
//! Expressions reduce by substitution exactly as in the calculus:
//!
//! * `→p` (pure): EP-FUN (global function unfolding), EP-APP (β by
//!   substitution), EP-TUPLE (projection), EP-GLOBAL-1/2 (global reads);
//! * `→s` (standard): ES-PURE, ES-ASSIGN, ES-PUSH, ES-POP;
//! * `→r` (render): ER-PURE, ER-POST, ER-ATTR, ER-BOXED (which performs
//!   the nested `→r*` reduction of the box body).
//!
//! The conservative extensions (`X-*` rules) cover the rest of the
//! language:
//!
//! * **Control** — `if` on a boolean value (X-IF), `while` by unfolding
//!   to `if` (X-WHILE), `let` by substitution (X-LET), loops by
//!   unrolling (X-FOR, X-FOREACH), `&&`/`||` (X-SHORTCIRCUIT) and the
//!   operators (X-OP).
//! * **Mutable locals** — a binder whose scope assigns it (a `let`, a
//!   parameter, a loop variable, a captured binding) is bound to a
//!   fresh local location `ℓn` holding its value, instead of to the
//!   value itself. X-LOCAL reads a location and X-ASSIGN-LOCAL writes
//!   it. No source identifier can spell `ℓ`, so locations never clash
//!   with program names.
//! * **Closures** — substituting into a λ leaves its body alone and
//!   records the binding instead (the λ becomes an
//!   [`ExprKind::Capture`]), also past a binder that shadows the name,
//!   so it collects every binding in scope, outermost first. X-CLOSURE
//!   closes over their current values, giving the closure value `(λ,
//!   env)`; EP-APP substitutes its captured bindings, then the
//!   arguments, into the body.
//! * **View state** — X-REMEMBER allocates a `remember` statement's
//!   occurrence key, initializes a new slot by a nested reduction of
//!   its pure initializer (as ER-BOXED reduces its body), and binds the
//!   name to a slot location; X-WIDGET-READ reads the slot and
//!   X-WIDGET-WRITE (state mode) writes it.
//! * **Primitives** apply through [`PrimCtx`] and consult the optional
//!   [`FaultInjector`] first, so prim accounting and injected prim
//!   faults line up with the VM call for call.
//!
//! Handler thunks run through [`apply`] (EP-APP in state mode), and
//! page bodies through [`run`] with the page parameters substituted.
//! The machine counts one step per rule, the VM one per instruction, so
//! step and fuel counts are the one thing the two do not share.

use crate::boxtree::{BoxItem, BoxNode};
use crate::error::RuntimeError;
use crate::event::{Event, EventQueue};
use crate::expr::{Expr, ExprKind, LambdaExpr};
use crate::fault::FaultInjector;
use crate::prim::PrimCtx;
use crate::program::Program;
use crate::store::Store;
use crate::types::{Effect, Name};
use crate::value::{Closure, Value};
use crate::widget::{WidgetKey, WidgetStore};
use alive_syntax::ast::{BinOp, UnOp};
use alive_syntax::Span;
use std::sync::Arc;

/// Per-mode step counters, for the ablation bench and for tests that
/// assert e.g. "render evaluation performs no state steps".
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StepCounts {
    /// `→p` steps (EP-* rules and pure extension rules).
    pub pure: u64,
    /// `→s`-only steps (ES-ASSIGN, ES-PUSH, ES-POP, X-WIDGET-WRITE).
    pub state: u64,
    /// `→r`-only steps (ER-POST, ER-ATTR, ER-BOXED, X-REMEMBER).
    pub render: u64,
}

impl StepCounts {
    /// Total steps across all modes.
    pub fn total(&self) -> u64 {
        self.pure + self.state + self.render
    }
}

/// The reduction rule applied by one small step, for tracing
/// derivations. The `Ep*`/`Es*`/`Er*` rules are the paper's Figure 8
/// verbatim; the `X*` rules are the documented conservative extensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum Rule {
    EpFun,
    EpApp,
    EpTuple,
    EpGlobal1,
    EpGlobal2,
    EsAssign,
    EsPush,
    EsPop,
    ErPost,
    ErAttr,
    ErBoxed,
    XLet,
    XSeq,
    XIf,
    XWhile,
    XFor,
    XForeach,
    XShortCircuit,
    XOp,
    XLocal,
    XAssignLocal,
    XClosure,
    XRemember,
    XWidgetRead,
    XWidgetWrite,
}

impl Rule {
    /// The rule's name as written in the paper (or `X-*` for
    /// extensions).
    pub fn name(self) -> &'static str {
        match self {
            Rule::EpFun => "EP-FUN",
            Rule::EpApp => "EP-APP",
            Rule::EpTuple => "EP-TUPLE",
            Rule::EpGlobal1 => "EP-GLOBAL-1",
            Rule::EpGlobal2 => "EP-GLOBAL-2",
            Rule::EsAssign => "ES-ASSIGN",
            Rule::EsPush => "ES-PUSH",
            Rule::EsPop => "ES-POP",
            Rule::ErPost => "ER-POST",
            Rule::ErAttr => "ER-ATTR",
            Rule::ErBoxed => "ER-BOXED",
            Rule::XLet => "X-LET",
            Rule::XSeq => "X-SEQ",
            Rule::XIf => "X-IF",
            Rule::XWhile => "X-WHILE",
            Rule::XFor => "X-FOR",
            Rule::XForeach => "X-FOREACH",
            Rule::XShortCircuit => "X-SHORTCIRCUIT",
            Rule::XOp => "X-OP",
            Rule::XLocal => "X-LOCAL",
            Rule::XAssignLocal => "X-ASSIGN-LOCAL",
            Rule::XClosure => "X-CLOSURE",
            Rule::XRemember => "X-REMEMBER",
            Rule::XWidgetRead => "X-WIDGET-READ",
            Rule::XWidgetWrite => "X-WIDGET-WRITE",
        }
    }
}

impl std::fmt::Display for Rule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Result of a small-step run.
#[derive(Debug, Clone, PartialEq)]
pub struct SmallStepOutput {
    /// The final value.
    pub value: Value,
    /// Steps taken, by mode.
    pub steps: StepCounts,
    /// Box content built (render runs only).
    pub root: Option<BoxNode>,
    /// The rules applied, in order (traced runs only).
    pub trace: Option<Vec<Rule>>,
    /// Simulated latency and request counts charged by primitives.
    pub prim: PrimCtx,
}

/// What a reduction may touch besides the store: the event queue
/// (state mode), the `remember` slots, a fault injector consulted
/// before every primitive application, and the code version stamped
/// into the closures it builds.
#[derive(Default)]
pub struct Host<'a> {
    /// The event queue `Q` (ES-PUSH / ES-POP).
    pub queue: Option<&'a mut EventQueue>,
    /// The `remember` view-state slots.
    pub widgets: Option<&'a mut WidgetStore>,
    /// Deterministic primitive-failure injection.
    pub faults: Option<&'a mut (dyn FaultInjector + 'static)>,
    /// The code version stamped into closures.
    pub version: u64,
}

/// Reduce `expr` to a value in `mode`, with `bindings` (outermost
/// first, e.g. page parameters) substituted for its free locals. A
/// render run builds box content into a fresh root box.
///
/// # Errors
///
/// [`RuntimeError::FuelExhausted`] on divergence, partial primitives,
/// injected faults, or — for programs that bypassed the type checker —
/// stuck terms (wrong-mode effects, unbound names).
pub fn run<'a>(
    program: &'a Program,
    store: &'a mut Store,
    mode: Effect,
    host: Host<'a>,
    fuel: u64,
    bindings: &[(Name, Value)],
    expr: &Expr,
) -> Result<SmallStepOutput, RuntimeError> {
    let mut machine = Machine::new(program, store, mode, host, fuel, false);
    let term = machine.bind(bindings, expr, expr.span);
    machine.finish(term)
}

/// Apply a handler `thunk` to `args` in state mode — the body of the
/// THUNK transition (EP-APP).
///
/// # Errors
///
/// See [`run`]; a non-callable thunk is [`RuntimeError::NotAFunction`].
pub fn apply<'a>(
    program: &'a Program,
    store: &'a mut Store,
    host: Host<'a>,
    fuel: u64,
    thunk: &Value,
    args: &[Value],
) -> Result<SmallStepOutput, RuntimeError> {
    let span = Span::DUMMY;
    let call = Expr::new(
        ExprKind::Call(
            Box::new(value_to_expr(thunk, span)),
            args.iter().map(|a| value_to_expr(a, span)).collect(),
        ),
        span,
    );
    let machine = Machine::new(program, store, Effect::State, host, fuel, false);
    machine.finish(call)
}

/// Reduce `expr` to a value in state mode (`→s*`).
///
/// # Errors
///
/// See [`run`].
pub fn eval_state(
    program: &Program,
    store: &mut Store,
    queue: &mut EventQueue,
    fuel: u64,
    expr: &Expr,
) -> Result<SmallStepOutput, RuntimeError> {
    let host = Host {
        queue: Some(queue),
        ..Host::default()
    };
    run(program, store, Effect::State, host, fuel, &[], expr)
}

/// Reduce `expr` to a value in render mode (`→r*`), building box content.
///
/// # Errors
///
/// See [`run`].
pub fn eval_render(
    program: &Program,
    store: &mut Store,
    fuel: u64,
    expr: &Expr,
) -> Result<SmallStepOutput, RuntimeError> {
    run(
        program,
        store,
        Effect::Render,
        Host::default(),
        fuel,
        &[],
        expr,
    )
}

/// Reduce `expr` to a value in pure mode (`→p*`).
///
/// # Errors
///
/// See [`run`].
pub fn eval_pure(
    program: &Program,
    store: &mut Store,
    fuel: u64,
    expr: &Expr,
) -> Result<SmallStepOutput, RuntimeError> {
    run(
        program,
        store,
        Effect::Pure,
        Host::default(),
        fuel,
        &[],
        expr,
    )
}

/// Like [`eval_state`], but records the [`Rule`] applied by every step
/// — a machine-checked derivation of the Fig. 8 reduction sequence.
///
/// # Errors
///
/// See [`run`].
pub fn eval_state_traced(
    program: &Program,
    store: &mut Store,
    queue: &mut EventQueue,
    fuel: u64,
    expr: &Expr,
) -> Result<SmallStepOutput, RuntimeError> {
    let host = Host {
        queue: Some(queue),
        ..Host::default()
    };
    let machine = Machine::new(program, store, Effect::State, host, fuel, true);
    machine.finish(expr.clone())
}

/// Like [`eval_render`], but records the [`Rule`] applied by every step.
///
/// # Errors
///
/// See [`run`].
pub fn eval_render_traced(
    program: &Program,
    store: &mut Store,
    fuel: u64,
    expr: &Expr,
) -> Result<SmallStepOutput, RuntimeError> {
    let machine = Machine::new(program, store, Effect::Render, Host::default(), fuel, true);
    machine.finish(expr.clone())
}

/// An interactive single-stepper over the substitution machine — the
/// §5 "future work" debugger angle made concrete: watch a batch
/// computation reduce rule by rule, with the intermediate expressions
/// visible ([`crate::pretty::pretty_expr`] renders them).
pub struct Stepper<'a> {
    machine: Machine<'a>,
    current: Expr,
}

impl<'a> Stepper<'a> {
    /// A stepper over `expr` in pure mode.
    pub fn new_pure(program: &'a Program, store: &'a mut Store, fuel: u64, expr: Expr) -> Self {
        Stepper {
            machine: Machine::new(program, store, Effect::Pure, Host::default(), fuel, true),
            current: expr,
        }
    }

    /// The expression as reduced so far.
    pub fn current(&self) -> &Expr {
        &self.current
    }

    /// Whether the expression is fully reduced to a value.
    pub fn is_done(&self) -> bool {
        is_value(&self.current)
    }

    /// The final value, once done.
    pub fn value(&self) -> Option<Value> {
        if self.is_done() {
            expr_to_value(&self.current).ok()
        } else {
            None
        }
    }

    /// Take one small step; returns the rule applied, or `None` if the
    /// expression was already a value. (A congruence descent may apply
    /// several inner rules in one visible rewrite — e.g. ER-BOXED fully
    /// reduces its body — in which case the *last* rule is reported and
    /// the full sequence is available from [`Stepper::trace`].)
    ///
    /// # Errors
    ///
    /// See [`run`].
    pub fn step(&mut self) -> Result<Option<Rule>, RuntimeError> {
        if self.is_done() {
            return Ok(None);
        }
        let expr = std::mem::replace(&mut self.current, Expr::unit(Span::DUMMY));
        self.current = self.machine.step(expr)?;
        Ok(self.machine.trace.as_ref().and_then(|t| t.last()).copied())
    }

    /// All rules applied so far.
    pub fn trace(&self) -> &[Rule] {
        self.machine.trace.as_deref().unwrap_or(&[])
    }

    /// Per-mode step counts so far.
    pub fn counts(&self) -> StepCounts {
        self.machine.steps
    }
}

/// Is this expression a value of the calculus (Fig. 6 `v`)? A λ is not:
/// it reduces to a closure value by X-CLOSURE.
pub fn is_value(expr: &Expr) -> bool {
    match &expr.kind {
        ExprKind::Num(_)
        | ExprKind::Str(_)
        | ExprKind::Bool(_)
        | ExprKind::ColorLit(_)
        | ExprKind::PrimRef(_)
        | ExprKind::Val(_) => true,
        ExprKind::Tuple(elems) | ExprKind::ListLit(elems) => elems.iter().all(is_value),
        _ => false,
    }
}

/// Convert a value-expression to a [`Value`].
///
/// # Errors
///
/// [`RuntimeError::NotInKernel`] if the expression is not a value.
pub fn expr_to_value(expr: &Expr) -> Result<Value, RuntimeError> {
    match &expr.kind {
        ExprKind::Num(n) => Ok(Value::Number(*n)),
        ExprKind::Str(s) => Ok(Value::Str(s.clone())),
        ExprKind::Bool(b) => Ok(Value::Bool(*b)),
        ExprKind::ColorLit(c) => Ok(Value::Color(*c)),
        ExprKind::PrimRef(p) => Ok(Value::Prim(*p)),
        ExprKind::Val(v) => Ok(v.clone()),
        ExprKind::Tuple(elems) => {
            let vs: Result<Vec<Value>, _> = elems.iter().map(expr_to_value).collect();
            Ok(Value::tuple(vs?))
        }
        ExprKind::ListLit(elems) => {
            let vs: Result<Vec<Value>, _> = elems.iter().map(expr_to_value).collect();
            Ok(Value::list(vs?))
        }
        _ => Err(RuntimeError::NotInKernel("non-value expression")),
    }
}

/// Convert a [`Value`] to a value-expression: scalars and unit become
/// their literal forms, everything else is embedded as-is
/// ([`ExprKind::Val`]) — a closure value is closed, so substitution
/// never enters it.
pub fn value_to_expr(value: &Value, span: Span) -> Expr {
    let kind = match value {
        Value::Number(n) => ExprKind::Num(*n),
        Value::Str(s) => ExprKind::Str(s.clone()),
        Value::Bool(b) => ExprKind::Bool(*b),
        Value::Color(c) => ExprKind::ColorLit(*c),
        Value::Prim(p) => ExprKind::PrimRef(*p),
        v if v.is_unit() => ExprKind::Tuple(Vec::new()),
        v => ExprKind::Val(v.clone()),
    };
    Expr::new(kind, span)
}

/// Capture-avoiding substitution `e[v/x]` where `v` is a closed value
/// expression or a location. A λ in `e` records the binding rather
/// than rewriting its body (see the module docs).
pub fn subst(expr: &Expr, name: &Name, replacement: &Expr) -> Expr {
    subst_in(expr, name, replacement, false)
}

/// [`subst`], where `shadowed` means an inner binder of `name` encloses
/// this point: occurrences are left alone, but λs in scope still record
/// the binding, exactly as a closure captures shadowed bindings too.
fn subst_in(expr: &Expr, name: &Name, rep: &Expr, shadowed: bool) -> Expr {
    let go = |e: &Expr| subst_in(e, name, rep, shadowed);
    let under = |bound: &Name, e: &Expr| subst_in(e, name, rep, shadowed || bound == name);
    let all = |es: &[Expr]| es.iter().map(go).collect::<Vec<_>>();
    // A name under substitution by a location is renamed wherever it is
    // assigned or names a view slot.
    let renamed = |n: &Name| -> Name {
        match &rep.kind {
            ExprKind::Local(location) if !shadowed && n == name => location.clone(),
            _ => n.clone(),
        }
    };
    let kind = match &expr.kind {
        ExprKind::Local(n) if n == name && !shadowed => return rep.clone(),
        ExprKind::Num(_)
        | ExprKind::Str(_)
        | ExprKind::Bool(_)
        | ExprKind::ColorLit(_)
        | ExprKind::Local(_)
        | ExprKind::Global(_)
        | ExprKind::FunRef(_)
        | ExprKind::PrimRef(_)
        | ExprKind::Val(_)
        | ExprKind::PopPage => expr.kind.clone(),
        ExprKind::Tuple(es) => ExprKind::Tuple(all(es)),
        ExprKind::ListLit(es) => ExprKind::ListLit(all(es)),
        ExprKind::Proj(e, i) => ExprKind::Proj(Box::new(go(e)), *i),
        ExprKind::Call(f, args) => ExprKind::Call(Box::new(go(f)), all(args)),
        ExprKind::Lambda(lam) => ExprKind::Capture(lam.clone(), vec![(name.clone(), rep.clone())]),
        ExprKind::Capture(lam, env) => {
            let mut env = env.clone();
            env.push((name.clone(), rep.clone()));
            ExprKind::Capture(lam.clone(), env)
        }
        ExprKind::Let {
            name: bound,
            ty,
            value,
            body,
        } => ExprKind::Let {
            name: bound.clone(),
            ty: ty.clone(),
            value: Box::new(go(value)),
            body: Box::new(under(bound, body)),
        },
        ExprKind::Seq(a, b) => ExprKind::Seq(Box::new(go(a)), Box::new(go(b))),
        ExprKind::If(c, t, e) => ExprKind::If(Box::new(go(c)), Box::new(go(t)), Box::new(go(e))),
        ExprKind::While(c, b) => ExprKind::While(Box::new(go(c)), Box::new(go(b))),
        ExprKind::ForRange { var, lo, hi, body } => ExprKind::ForRange {
            var: var.clone(),
            lo: Box::new(go(lo)),
            hi: Box::new(go(hi)),
            body: Box::new(under(var, body)),
        },
        ExprKind::Foreach { var, list, body } => ExprKind::Foreach {
            var: var.clone(),
            list: Box::new(go(list)),
            body: Box::new(under(var, body)),
        },
        ExprKind::LocalAssign(n, e) => ExprKind::LocalAssign(renamed(n), Box::new(go(e))),
        ExprKind::WidgetRead(n) => ExprKind::WidgetRead(renamed(n)),
        ExprKind::WidgetWrite(n, e) => ExprKind::WidgetWrite(renamed(n), Box::new(go(e))),
        ExprKind::Remember {
            id,
            name: bound,
            ty,
            init,
            body,
        } => ExprKind::Remember {
            id: *id,
            name: bound.clone(),
            ty: ty.clone(),
            init: Box::new(go(init)),
            body: Box::new(under(bound, body)),
        },
        ExprKind::GlobalAssign(g, e) => ExprKind::GlobalAssign(g.clone(), Box::new(go(e))),
        ExprKind::PushPage(p, args) => ExprKind::PushPage(p.clone(), all(args)),
        ExprKind::Boxed(id, e) => ExprKind::Boxed(*id, Box::new(go(e))),
        ExprKind::Post(e) => ExprKind::Post(Box::new(go(e))),
        ExprKind::SetAttr(a, e) => ExprKind::SetAttr(*a, Box::new(go(e))),
        ExprKind::Binary(op, l, r) => ExprKind::Binary(*op, Box::new(go(l)), Box::new(go(r))),
        ExprKind::Unary(op, e) => ExprKind::Unary(*op, Box::new(go(e))),
    };
    Expr::new(kind, expr.span)
}

/// What a location `ℓn` holds.
enum Location {
    /// A mutable local's current value.
    Local(Value),
    /// A `remember` slot, with the surface name bound to it.
    Slot(WidgetKey, Name),
}

/// The prefix of location names; no source identifier can start with it.
const LOCATION: char = 'ℓ';

struct Machine<'a> {
    program: &'a Program,
    store: &'a mut Store,
    host: Host<'a>,
    mode: Effect,
    boxes: Vec<BoxNode>,
    fuel: u64,
    steps: StepCounts,
    prim: PrimCtx,
    /// When present, every applied rule is appended here.
    trace: Option<Vec<Rule>>,
    /// Locations allocated so far; `ℓn` is `locations[n]`.
    locations: Vec<Location>,
}

impl<'a> Machine<'a> {
    fn new(
        program: &'a Program,
        store: &'a mut Store,
        mode: Effect,
        host: Host<'a>,
        fuel: u64,
        traced: bool,
    ) -> Self {
        Machine {
            program,
            store,
            host,
            mode,
            boxes: if mode == Effect::Render {
                vec![BoxNode::new(None)]
            } else {
                Vec::new()
            },
            fuel,
            steps: StepCounts::default(),
            prim: PrimCtx::default(),
            trace: traced.then(Vec::new),
            locations: Vec::new(),
        }
    }

    /// Reduce `term` to a value and package the run's output.
    fn finish(mut self, term: Expr) -> Result<SmallStepOutput, RuntimeError> {
        let value = self.reduce_to_value(term)?;
        let root = match self.mode {
            Effect::Render => Some(
                self.boxes
                    .pop()
                    .ok_or(RuntimeError::Internal("no open box frame in render"))?,
            ),
            _ => None,
        };
        Ok(SmallStepOutput {
            value,
            steps: self.steps,
            root,
            trace: self.trace,
            prim: self.prim,
        })
    }

    fn tick(&mut self, class: Effect, rule: Rule) -> Result<(), RuntimeError> {
        match class {
            Effect::Pure => self.steps.pure += 1,
            Effect::State => self.steps.state += 1,
            Effect::Render => self.steps.render += 1,
        }
        if let Some(trace) = self.trace.as_mut() {
            trace.push(rule);
        }
        if self.fuel == 0 {
            return Err(RuntimeError::FuelExhausted);
        }
        self.fuel -= 1;
        Ok(())
    }

    /// The innermost open box frame; a missing frame is an interpreter
    /// invariant breach surfaced as a contained runtime error rather
    /// than a panic.
    fn current_box(&mut self) -> Result<&mut BoxNode, RuntimeError> {
        self.boxes
            .last_mut()
            .ok_or(RuntimeError::Internal("no open box frame in render"))
    }

    fn reduce_to_value(&mut self, mut expr: Expr) -> Result<Value, RuntimeError> {
        while !is_value(&expr) {
            expr = self.step(expr)?;
        }
        expr_to_value(&expr)
    }

    /// Allocate a fresh location and return the term naming it.
    fn alloc(&mut self, location: Location, span: Span) -> Expr {
        let name: Name = Arc::from(format!("{LOCATION}{}", self.locations.len()));
        self.locations.push(location);
        Expr::new(ExprKind::Local(name), span)
    }

    /// The location a name denotes, if it is one.
    fn location(&mut self, name: &str) -> Option<&mut Location> {
        let index: usize = name.strip_prefix(LOCATION)?.parse().ok()?;
        self.locations.get_mut(index)
    }

    /// Substitute `bindings` (outermost first) into `body`: by value,
    /// or by a fresh location when `body` assigns the name (X-LOC). A
    /// binding shadowed by a later one only reaches the λs in `body`.
    fn bind(&mut self, bindings: &[(Name, Value)], body: &Expr, span: Span) -> Expr {
        let mut body = body.clone();
        for (i, (name, value)) in bindings.iter().enumerate() {
            let shadowed = bindings[i + 1..].iter().any(|(n, _)| n == name);
            let rep = match value {
                Value::WidgetRef(key) => self.alloc(Location::Slot(*key, name.clone()), span),
                _ if !shadowed && body.assigns(name) => {
                    self.alloc(Location::Local(value.clone()), span)
                }
                _ => value_to_expr(value, span),
            };
            body = subst_in(&body, name, &rep, shadowed);
        }
        body
    }

    /// The current value a closure captures for one recorded binding.
    fn captured(&mut self, term: &Expr) -> Result<Value, RuntimeError> {
        if let ExprKind::Local(name) = &term.kind {
            return match self.location(name) {
                Some(Location::Local(v)) => Ok(v.clone()),
                Some(Location::Slot(key, _)) => Ok(Value::WidgetRef(*key)),
                None => Err(RuntimeError::UnknownLocal(name.clone())),
            };
        }
        expr_to_value(term)
    }

    fn closure(&self, lam: &LambdaExpr, env: Vec<(Name, Value)>, span: Span) -> Expr {
        let closure = Closure {
            params: lam.params.clone(),
            effect: lam.effect,
            body: lam.body.clone(),
            env: Arc::from(env),
            version: self.host.version,
        };
        Expr::new(ExprKind::Val(Value::Closure(Arc::new(closure))), span)
    }

    /// EP-APP on evaluated operands (the caller ticked the rule).
    fn apply_value(
        &mut self,
        f: Value,
        args: Vec<Value>,
        span: Span,
    ) -> Result<Expr, RuntimeError> {
        match f {
            Value::Closure(c) => {
                if c.params.len() != args.len() {
                    return Err(RuntimeError::ArityMismatch {
                        expected: c.params.len(),
                        found: args.len(),
                    });
                }
                let mut bindings = c.env.to_vec();
                bindings.extend(c.params.iter().map(|p| p.name.clone()).zip(args));
                Ok(self.bind(&bindings, &c.body, span))
            }
            Value::Prim(p) => {
                if let Some(injector) = self.host.faults.as_deref_mut() {
                    if let Some(err) = injector.before_prim(p) {
                        return Err(err.into());
                    }
                }
                let result = p.apply(&args, &mut self.prim)?;
                Ok(value_to_expr(&result, span))
            }
            other => Err(RuntimeError::NotAFunction(other.display_text())),
        }
    }

    /// Refuse `op` outside `mode`: its rule has no instance in the
    /// current mode, so the term is stuck.
    fn require(&self, mode: Effect, op: &'static str) -> Result<(), RuntimeError> {
        if self.mode == mode {
            Ok(())
        } else {
            Err(RuntimeError::EffectViolation {
                op,
                mode: self.mode,
            })
        }
    }

    fn queue(&mut self, op: &'static str) -> Result<&mut EventQueue, RuntimeError> {
        self.host
            .queue
            .as_deref_mut()
            .ok_or(RuntimeError::EffectViolation {
                op,
                mode: Effect::Render,
            })
    }

    fn widgets(&mut self, op: &'static str) -> Result<&mut WidgetStore, RuntimeError> {
        let mode = self.mode;
        self.host
            .widgets
            .as_deref_mut()
            .ok_or(RuntimeError::EffectViolation { op, mode })
    }

    /// The `remember` slot a (renamed) widget name denotes.
    fn slot(&mut self, name: &Name) -> Result<(WidgetKey, Name), RuntimeError> {
        match self.location(name) {
            Some(Location::Slot(key, surface)) => Ok((*key, surface.clone())),
            _ => Err(RuntimeError::UnknownLocal(name.clone())),
        }
    }

    /// One small step of `→µ`. The congruence traversal implements the
    /// evaluation contexts `E` of Fig. 6: leftmost-innermost reduction.
    fn step(&mut self, expr: Expr) -> Result<Expr, RuntimeError> {
        let span = expr.span;
        let unit = || Expr::unit(span);
        match expr.kind {
            // -- congruence / redexes for the kernel forms ---------------
            ExprKind::Tuple(elems) => {
                let elems = self.step_first_non_value(elems)?;
                Ok(Expr::new(ExprKind::Tuple(elems), span))
            }
            ExprKind::ListLit(elems) => {
                let elems = self.step_first_non_value(elems)?;
                Ok(Expr::new(ExprKind::ListLit(elems), span))
            }
            ExprKind::Proj(base, index) => {
                if !is_value(&base) {
                    let base = self.step(*base)?;
                    return Ok(Expr::new(ExprKind::Proj(Box::new(base), index), span));
                }
                // (EP-TUPLE)
                self.tick(Effect::Pure, Rule::EpTuple)?;
                match expr_to_value(&base)? {
                    Value::Tuple(vs) => {
                        match (index as usize).checked_sub(1).and_then(|i| vs.get(i)) {
                            Some(v) => Ok(value_to_expr(v, span)),
                            None => Err(RuntimeError::ProjOutOfRange {
                                index,
                                len: vs.len(),
                            }),
                        }
                    }
                    other => Err(RuntimeError::TypeMismatch {
                        expected: "tuple",
                        found: other.display_text(),
                    }),
                }
            }
            ExprKind::FunRef(name) => {
                // (EP-FUN): unfold the definition to its (closed) λ.
                self.tick(Effect::Pure, Rule::EpFun)?;
                let f = self
                    .program
                    .fun(&name)
                    .ok_or_else(|| RuntimeError::UnknownFun(name.clone()))?;
                let lam = LambdaExpr {
                    params: f.params.clone(),
                    effect: f.effect,
                    body: f.body.clone(),
                };
                Ok(self.closure(&lam, Vec::new(), span))
            }
            ExprKind::Lambda(lam) => {
                // (X-CLOSURE) with nothing substituted into the λ.
                self.tick(Effect::Pure, Rule::XClosure)?;
                Ok(self.closure(&lam, Vec::new(), span))
            }
            ExprKind::Capture(lam, env) => {
                // (X-CLOSURE): close over the recorded bindings' values.
                self.tick(Effect::Pure, Rule::XClosure)?;
                let mut captured = Vec::with_capacity(env.len());
                for (name, term) in &env {
                    captured.push((name.clone(), self.captured(term)?));
                }
                Ok(self.closure(&lam, captured, span))
            }
            ExprKind::Global(name) => {
                if let Some(v) = self.store.get(&name).cloned() {
                    // (EP-GLOBAL-1)
                    self.tick(Effect::Pure, Rule::EpGlobal1)?;
                    Ok(value_to_expr(&v, span))
                } else {
                    // (EP-GLOBAL-2)
                    self.tick(Effect::Pure, Rule::EpGlobal2)?;
                    let g = self
                        .program
                        .global(&name)
                        .ok_or_else(|| RuntimeError::UnknownGlobal(name.clone()))?;
                    Ok((*g.init).clone())
                }
            }
            ExprKind::Call(callee, args) => {
                if !is_value(&callee) {
                    let callee = self.step(*callee)?;
                    return Ok(Expr::new(ExprKind::Call(Box::new(callee), args), span));
                }
                if args.iter().any(|a| !is_value(a)) {
                    let args = self.step_first_non_value(args)?;
                    return Ok(Expr::new(ExprKind::Call(callee, args), span));
                }
                // (EP-APP): β-reduce by substitution.
                self.tick(Effect::Pure, Rule::EpApp)?;
                let f = expr_to_value(&callee)?;
                let argv: Result<Vec<Value>, _> = args.iter().map(expr_to_value).collect();
                self.apply_value(f, argv?, span)
            }
            ExprKind::GlobalAssign(name, value) => {
                if !is_value(&value) {
                    let value = self.step(*value)?;
                    return Ok(Expr::new(
                        ExprKind::GlobalAssign(name, Box::new(value)),
                        span,
                    ));
                }
                // (ES-ASSIGN)
                self.require(Effect::State, "g := e")?;
                self.tick(Effect::State, Rule::EsAssign)?;
                if self.program.global(&name).is_none() {
                    return Err(RuntimeError::UnknownGlobal(name));
                }
                let v = expr_to_value(&value)?;
                self.store.set(&*name, v);
                Ok(unit())
            }
            ExprKind::PushPage(name, args) => {
                if args.iter().any(|a| !is_value(a)) {
                    let args = self.step_first_non_value(args)?;
                    return Ok(Expr::new(ExprKind::PushPage(name, args), span));
                }
                // (ES-PUSH)
                self.require(Effect::State, "push")?;
                self.tick(Effect::State, Rule::EsPush)?;
                let argv: Result<Vec<Value>, _> = args.iter().map(expr_to_value).collect();
                self.queue("push")?
                    .enqueue(Event::Push(name, Value::tuple(argv?)));
                Ok(unit())
            }
            ExprKind::PopPage => {
                // (ES-POP)
                self.require(Effect::State, "pop")?;
                self.tick(Effect::State, Rule::EsPop)?;
                self.queue("pop")?.enqueue(Event::Pop);
                Ok(unit())
            }
            ExprKind::Post(value) => {
                if !is_value(&value) {
                    let value = self.step(*value)?;
                    return Ok(Expr::new(ExprKind::Post(Box::new(value)), span));
                }
                // (ER-POST)
                self.require(Effect::Render, "post")?;
                self.tick(Effect::Render, Rule::ErPost)?;
                let v = expr_to_value(&value)?;
                self.current_box()?.items.push(BoxItem::Leaf(v, None));
                Ok(unit())
            }
            ExprKind::SetAttr(attr, value) => {
                if !is_value(&value) {
                    let value = self.step(*value)?;
                    return Ok(Expr::new(ExprKind::SetAttr(attr, Box::new(value)), span));
                }
                // (ER-ATTR)
                self.require(Effect::Render, "box.a := e")?;
                self.tick(Effect::Render, Rule::ErAttr)?;
                let v = expr_to_value(&value)?;
                self.current_box()?.items.push(BoxItem::Attr(attr, v, None));
                Ok(unit())
            }
            ExprKind::Boxed(id, body) => {
                // (ER-BOXED): fully reduce the body with a fresh box
                // content B′, then append ⟨B′⟩ and yield the body value.
                self.require(Effect::Render, "boxed")?;
                self.tick(Effect::Render, Rule::ErBoxed)?;
                self.boxes.push(BoxNode::new(Some(id)));
                let result = self.reduce_to_value(*body);
                let node = self
                    .boxes
                    .pop()
                    .ok_or(RuntimeError::Internal("no open box frame in render"))?;
                let value = result?;
                self.current_box()?
                    .items
                    .push(BoxItem::Child(Arc::new(node)));
                Ok(value_to_expr(&value, span))
            }
            // -- conservative extensions --------------------------------
            ExprKind::Let {
                name,
                ty,
                value,
                body,
            } => {
                if !is_value(&value) {
                    let value = self.step(*value)?;
                    return Ok(Expr::new(
                        ExprKind::Let {
                            name,
                            ty,
                            value: Box::new(value),
                            body,
                        },
                        span,
                    ));
                }
                // (X-LET), binding a location when the body assigns it.
                self.tick(Effect::Pure, Rule::XLet)?;
                let rep = if body.assigns(&name) {
                    let v = expr_to_value(&value)?;
                    self.alloc(Location::Local(v), span)
                } else {
                    *value
                };
                Ok(subst(&body, &name, &rep))
            }
            ExprKind::Local(name) => {
                // (X-LOCAL): read a location.
                self.tick(Effect::Pure, Rule::XLocal)?;
                match self.location(&name) {
                    Some(Location::Local(v)) => Ok(value_to_expr(&v.clone(), span)),
                    Some(Location::Slot(key, _)) => {
                        Ok(Expr::new(ExprKind::Val(Value::WidgetRef(*key)), span))
                    }
                    None => Err(RuntimeError::UnknownLocal(name)),
                }
            }
            ExprKind::LocalAssign(name, value) => {
                if !is_value(&value) {
                    let value = self.step(*value)?;
                    return Ok(Expr::new(
                        ExprKind::LocalAssign(name, Box::new(value)),
                        span,
                    ));
                }
                // (X-ASSIGN-LOCAL): local mutation is mode-agnostic.
                self.tick(Effect::Pure, Rule::XAssignLocal)?;
                let v = expr_to_value(&value)?;
                match self.location(&name) {
                    Some(Location::Local(slot)) => {
                        *slot = v;
                        Ok(unit())
                    }
                    _ => Err(RuntimeError::UnknownLocal(name)),
                }
            }
            ExprKind::Remember {
                id,
                name,
                init,
                body,
                ..
            } => {
                // (X-REMEMBER)
                self.require(Effect::Render, "remember")?;
                self.tick(Effect::Render, Rule::XRemember)?;
                let widgets = self.widgets("remember (no widget store)")?;
                let key = widgets.next_key(id);
                if !widgets.contains(key) {
                    let initial = self.reduce_to_value(*init)?;
                    self.widgets("remember (no widget store)")?
                        .set(key, initial);
                }
                let rep = self.alloc(Location::Slot(key, name.clone()), span);
                Ok(subst(&body, &name, &rep))
            }
            ExprKind::WidgetRead(name) => {
                // (X-WIDGET-READ)
                self.tick(Effect::Pure, Rule::XWidgetRead)?;
                let (key, surface) = self.slot(&name)?;
                let widgets = self.widgets("widget read (no widget store)")?;
                match widgets.get(key) {
                    Some(v) => Ok(value_to_expr(v, span)),
                    None => Err(RuntimeError::UnknownLocal(surface)),
                }
            }
            ExprKind::WidgetWrite(name, value) => {
                if !is_value(&value) {
                    let value = self.step(*value)?;
                    return Ok(Expr::new(
                        ExprKind::WidgetWrite(name, Box::new(value)),
                        span,
                    ));
                }
                // (X-WIDGET-WRITE): state mode only.
                self.require(Effect::State, "widget write")?;
                self.tick(Effect::State, Rule::XWidgetWrite)?;
                let (key, _) = self.slot(&name)?;
                let v = expr_to_value(&value)?;
                self.widgets("widget write (no widget store)")?.set(key, v);
                Ok(unit())
            }
            ExprKind::Seq(a, b) => {
                if is_value(&a) {
                    self.tick(Effect::Pure, Rule::XSeq)?;
                    Ok(*b)
                } else {
                    let a = self.step(*a)?;
                    Ok(Expr::new(ExprKind::Seq(Box::new(a), b), span))
                }
            }
            ExprKind::If(c, t, e) => {
                if !is_value(&c) {
                    let c = self.step(*c)?;
                    return Ok(Expr::new(ExprKind::If(Box::new(c), t, e), span));
                }
                self.tick(Effect::Pure, Rule::XIf)?;
                match expr_to_value(&c)? {
                    Value::Bool(true) => Ok(*t),
                    Value::Bool(false) => Ok(*e),
                    other => Err(RuntimeError::TypeMismatch {
                        expected: "bool",
                        found: other.display_text(),
                    }),
                }
            }
            ExprKind::While(c, body) => {
                // while c { b }  →p  if c { b; while c { b } } else { () }
                self.tick(Effect::Pure, Rule::XWhile)?;
                let unrolled = Expr::new(
                    ExprKind::Seq(
                        body.clone(),
                        Box::new(Expr::new(ExprKind::While(c.clone(), body), span)),
                    ),
                    span,
                );
                Ok(Expr::new(
                    ExprKind::If(c, Box::new(unrolled), Box::new(unit())),
                    span,
                ))
            }
            ExprKind::ForRange { var, lo, hi, body } => {
                if !is_value(&lo) {
                    let lo = self.step(*lo)?;
                    return Ok(Expr::new(
                        ExprKind::ForRange {
                            var,
                            lo: Box::new(lo),
                            hi,
                            body,
                        },
                        span,
                    ));
                }
                if !is_value(&hi) {
                    let hi = self.step(*hi)?;
                    return Ok(Expr::new(
                        ExprKind::ForRange {
                            var,
                            lo,
                            hi: Box::new(hi),
                            body,
                        },
                        span,
                    ));
                }
                self.tick(Effect::Pure, Rule::XFor)?;
                let (Value::Number(lo_n), Value::Number(hi_n)) =
                    (expr_to_value(&lo)?, expr_to_value(&hi)?)
                else {
                    return Err(RuntimeError::TypeMismatch {
                        expected: "number",
                        found: "non-number loop bound".to_string(),
                    });
                };
                if lo_n >= hi_n {
                    return Ok(unit());
                }
                let iteration = self.bind(&[(var.clone(), Value::Number(lo_n))], &body, span);
                let next = Expr::new(
                    ExprKind::ForRange {
                        var,
                        lo: Box::new(Expr::new(ExprKind::Num(lo_n + 1.0), span)),
                        hi,
                        body,
                    },
                    span,
                );
                Ok(Expr::new(
                    ExprKind::Seq(Box::new(iteration), Box::new(next)),
                    span,
                ))
            }
            ExprKind::Foreach { var, list, body } => {
                if !is_value(&list) {
                    let list = self.step(*list)?;
                    return Ok(Expr::new(
                        ExprKind::Foreach {
                            var,
                            list: Box::new(list),
                            body,
                        },
                        span,
                    ));
                }
                self.tick(Effect::Pure, Rule::XForeach)?;
                let items = match expr_to_value(&list)? {
                    Value::List(items) => items,
                    other => {
                        return Err(RuntimeError::TypeMismatch {
                            expected: "list",
                            found: other.display_text(),
                        })
                    }
                };
                let Some((head, rest)) = items.split_first() else {
                    return Ok(unit());
                };
                let iteration = self.bind(&[(var.clone(), head.clone())], &body, span);
                let rest = Expr::new(ExprKind::Val(Value::list(rest.to_vec())), span);
                let next = Expr::new(
                    ExprKind::Foreach {
                        var,
                        list: Box::new(rest),
                        body,
                    },
                    span,
                );
                Ok(Expr::new(
                    ExprKind::Seq(Box::new(iteration), Box::new(next)),
                    span,
                ))
            }
            ExprKind::Binary(op, l, r) => {
                if !is_value(&l) {
                    let l = self.step(*l)?;
                    return Ok(Expr::new(ExprKind::Binary(op, Box::new(l), r), span));
                }
                // Short-circuit before reducing the right operand.
                if matches!(op, BinOp::And | BinOp::Or) {
                    self.tick(Effect::Pure, Rule::XShortCircuit)?;
                    return match (expr_to_value(&l)?, op) {
                        (Value::Bool(false), BinOp::And) => {
                            Ok(Expr::new(ExprKind::Bool(false), span))
                        }
                        (Value::Bool(true), BinOp::Or) => Ok(Expr::new(ExprKind::Bool(true), span)),
                        (Value::Bool(_), _) => Ok(*r),
                        (other, _) => Err(RuntimeError::TypeMismatch {
                            expected: "bool",
                            found: other.display_text(),
                        }),
                    };
                }
                if !is_value(&r) {
                    let r = self.step(*r)?;
                    return Ok(Expr::new(ExprKind::Binary(op, l, Box::new(r)), span));
                }
                self.tick(Effect::Pure, Rule::XOp)?;
                let lv = expr_to_value(&l)?;
                let rv = expr_to_value(&r)?;
                let result = crate::vm::apply_binop(op, &lv, &rv)?;
                Ok(value_to_expr(&result, span))
            }
            ExprKind::Unary(op, e) => {
                if !is_value(&e) {
                    let e = self.step(*e)?;
                    return Ok(Expr::new(ExprKind::Unary(op, Box::new(e)), span));
                }
                self.tick(Effect::Pure, Rule::XOp)?;
                match (op, expr_to_value(&e)?) {
                    (UnOp::Neg, Value::Number(n)) => Ok(Expr::new(ExprKind::Num(-n), span)),
                    (UnOp::Not, Value::Bool(b)) => Ok(Expr::new(ExprKind::Bool(!b), span)),
                    (UnOp::Neg, other) => Err(RuntimeError::TypeMismatch {
                        expected: "number",
                        found: other.display_text(),
                    }),
                    (UnOp::Not, other) => Err(RuntimeError::TypeMismatch {
                        expected: "bool",
                        found: other.display_text(),
                    }),
                }
            }
            // Values never reach `step`.
            ExprKind::Num(_)
            | ExprKind::Str(_)
            | ExprKind::Bool(_)
            | ExprKind::ColorLit(_)
            | ExprKind::PrimRef(_)
            | ExprKind::Val(_) => Err(RuntimeError::Internal("step called on a value")),
        }
    }

    fn step_first_non_value(&mut self, elems: Vec<Expr>) -> Result<Vec<Expr>, RuntimeError> {
        let mut out = Vec::with_capacity(elems.len());
        let mut stepped = false;
        for e in elems {
            if !stepped && !is_value(&e) {
                out.push(self.step(e)?);
                stepped = true;
            } else {
                out.push(e);
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::Attr;
    use crate::compile;

    const START: &str = "page start() { render { } }";
    const FUEL: u64 = 10_000_000;

    fn compiled(src: &str) -> Program {
        compile(src).expect("compiles")
    }

    /// Cross-check against the VM: a nullary function `f`'s result,
    /// stored by a page init, and the final store agree.
    fn agree_on_fun(src: &str, expected: &Value) {
        let (ty, zero) = match expected {
            Value::Str(_) => ("string", "\"\""),
            Value::Bool(_) => ("bool", "false"),
            _ => ("number", "0"),
        };
        let full = format!(
            "{src}\nglobal out__ : {ty} = {zero}\n\
             page start() {{ init {{ out__ := f(); }} render {{ }} }}"
        );
        let p = compiled(&full);
        let init = p.page("start").expect("page").init.clone();

        let mut ss_store = Store::new();
        let mut ss_queue = EventQueue::new();
        eval_state(&p, &mut ss_store, &mut ss_queue, FUEL, &init).expect("small-step evaluates");

        let vmp = p.vm().expect("compiles to bytecode");
        let mut vm_store = Store::new();
        let mut vm_queue = EventQueue::new();
        let run = crate::vm::transition_page_init(
            &vmp,
            &mut crate::vm::Scratch::new(),
            &mut vm_store,
            &mut vm_queue,
            0,
            FUEL,
            "start",
            &[],
            None,
            None,
        );
        run.result.expect("vm evaluates");

        assert_eq!(ss_store.get("out__"), Some(expected), "{src}");
        assert_eq!(ss_store, vm_store, "stores agree with the VM: {src}");
    }

    #[test]
    fn functions_agree_with_the_vm() {
        let cases: &[(&str, Value)] = &[
            // Arithmetic.
            (
                "fun f(): number pure { 1 + 2 * 3 - 4 / 2 }",
                Value::Number(5.0),
            ),
            // EP-FUN unfolding through recursion.
            (
                "fun fib(n: number): number pure {
                     if n < 2 { n } else { fib(n - 1) + fib(n - 2) }
                 }
                 fun f(): number pure { fib(12) }",
                Value::Number(144.0),
            ),
            // X-LET and λs capturing λs.
            (
                "fun f(): number pure {
                     let add = fn(a: number, b: number) -> a + b;
                     let inc = fn(x: number) -> add(x, 1);
                     inc(inc(40))
                 }",
                Value::Number(42.0),
            ),
            // X-WHILE unfolding over globals.
            (
                "global acc : number = 0
                 global i : number = 1
                 fun f(): number state {
                     while i <= 10 { acc := acc + i; i := i + 1; }
                     acc
                 }",
                Value::Number(55.0),
            ),
            // X-FOR and X-FOREACH.
            (
                "global acc : number = 0
                 fun f(): number state {
                     for i in 0 .. 5 { acc := acc + i; }
                     foreach x in [10, 20] { acc := acc + x; }
                     acc
                 }",
                Value::Number(40.0),
            ),
            // Mutable locals through locations.
            (
                "fun f(): number pure {
                     let acc = 0;
                     let i = 1;
                     while i <= 100 { acc := acc + i; i := i + 1; }
                     acc
                 }",
                Value::Number(5050.0),
            ),
            // Closures capture by value: the closure sees x = 1, and its
            // own copy is a fresh location per call.
            (
                "fun f(): number pure {
                     let x = 1;
                     let add_x = fn(y: number) { x := x + y; x };
                     x := 100;
                     add_x(10) + add_x(10) + x
                 }",
                Value::Number(122.0),
            ),
            // Parameters and loop variables are assignable; assigning
            // the loop variable does not change the iteration.
            (
                "fun down(n: number): number pure {
                     let steps = 0;
                     while n > 0 { n := n - 1; steps := steps + 1; }
                     for i in 0 .. 3 { i := i * 10; steps := steps + i; }
                     steps
                 }
                 fun f(): number pure { down(4) }",
                Value::Number(34.0),
            ),
            // `++` coerces numbers and booleans.
            (
                "fun f(): string pure { \"n=\" ++ 42 ++ \", b=\" ++ true }",
                Value::str("n=42, b=true"),
            ),
            // Short-circuit: without it, list.nth would raise
            // IndexOutOfRange.
            (
                "fun f(): bool pure {
                     let xs : list number = [];
                     list.is_empty(xs) || list.nth(xs, 0) > 0
                 }",
                Value::Bool(true),
            ),
        ];
        for (src, expected) in cases {
            agree_on_fun(src, expected);
        }
    }

    #[test]
    fn render_box_trees_agree() {
        let p = compiled(
            "global items : list string = [\"a\", \"b\"]
             fun pick(): number render { boxed { post 1; 42 } }
             page start() {
                 render {
                     boxed {
                         box.margin := 3;
                         post \"hdr\";
                     }
                     foreach x in items {
                         boxed { post x; }
                     }
                     post pick();
                 }
             }",
        );
        let page = p.page("start").expect("page");
        let mut store = Store::new();
        let small = eval_render(&p, &mut store, FUEL, &page.render).expect("small-step renders");
        let vmp = p.vm().expect("compiles to bytecode");
        let vm_root = crate::vm::transition_page_render(
            &vmp,
            &mut crate::vm::Scratch::new(),
            &store,
            0,
            FUEL,
            "start",
            &[],
            None,
            None,
        )
        .result
        .expect("vm renders");
        let root = small.root.as_ref().expect("box content");
        assert_eq!(root, &vm_root.without_provenance());
        assert_eq!(root.box_count(), 5);
        let header = root.descendant(&[0]).expect("header box");
        assert_eq!(header.attr(Attr::Margin), Some(&Value::Number(3.0)));
        // `boxed` passes its body's value through.
        assert_eq!(root.leaves().next(), Some(&Value::Number(42.0)));
        assert!(small.steps.render >= 3, "boxed/post/attr steps counted");
        assert_eq!(small.steps.state, 0, "render takes no state steps");
    }

    #[test]
    fn state_steps_enqueue_events() {
        let p = compiled(
            "global n : number = 0
             page start() {
                 init { n := 7; push start(); pop; }
                 render { }
             }",
        );
        let page = p.page("start").expect("page");
        let mut store = Store::new();
        let mut queue = EventQueue::new();
        let out = eval_state(&p, &mut store, &mut queue, 1_000_000, &page.init).expect("evaluates");
        assert!(out.value.is_unit());
        assert_eq!(store.get("n"), Some(&Value::Number(7.0)));
        assert_eq!(queue.len(), 2);
        assert!(matches!(queue.dequeue(), Some(Event::Push(..))));
        assert!(out.steps.state >= 3, "assign + push + pop are state steps");
    }

    #[test]
    fn global_read_uses_store_then_init() {
        let p = compiled(&format!("global g : number = 5 {START}"));
        let read = Expr::new(ExprKind::Global(Arc::from("g")), Span::DUMMY);
        // EP-GLOBAL-2: not in store → initializer.
        let mut store = Store::new();
        let out = eval_pure(&p, &mut store, 1000, &read).expect("evaluates");
        assert_eq!(out.value, Value::Number(5.0));
        // EP-GLOBAL-1: store wins.
        let mut store = Store::new();
        store.set("g", Value::Number(9.0));
        let out = eval_pure(&p, &mut store, 1000, &read).expect("evaluates");
        assert_eq!(out.value, Value::Number(9.0));
    }

    #[test]
    fn local_assignment_reduces_through_a_location() {
        let p = compiled(&format!(
            "fun f(): number pure {{ let x = 1; x := 2; x }} {START}"
        ));
        let f = p.fun("f").expect("fun");
        let mut store = Store::new();
        let mut queue = EventQueue::new();
        let out = eval_state_traced(&p, &mut store, &mut queue, 1_000_000, &f.body)
            .expect("local assignment is in the extended machine");
        assert_eq!(out.value, Value::Number(2.0));
        let trace = out.trace.expect("traced");
        assert!(trace.contains(&Rule::XAssignLocal));
        assert!(trace.contains(&Rule::XLocal));
    }

    #[test]
    fn effects_are_stuck_outside_their_mode() {
        // Ill-effected terms built directly (bypassing the checker).
        let p = compiled(&format!("global g : number = 0 {START}"));
        let one = || Box::new(Expr::new(ExprKind::Num(1.0), Span::DUMMY));
        let assign = Expr::new(ExprKind::GlobalAssign(Arc::from("g"), one()), Span::DUMMY);
        let post = Expr::new(ExprKind::Post(one()), Span::DUMMY);
        let mut store = Store::new();
        let mut queue = EventQueue::new();
        // ES-ASSIGN has no pure or render instance, ER-POST no state one.
        let errors = [
            eval_pure(&p, &mut store, 1000, &assign).expect_err("stuck"),
            eval_render(&p, &mut store, 1000, &assign).expect_err("stuck"),
            eval_state(&p, &mut store, &mut queue, 1000, &post).expect_err("stuck"),
        ];
        for err in errors {
            assert!(
                matches!(err, RuntimeError::EffectViolation { .. }),
                "{err:?}"
            );
        }
        assert_eq!(store.get("g"), None, "the store is untouched");
    }

    #[test]
    fn divergence_exhausts_fuel() {
        let p = compiled(&format!(
            "fun spin(): () pure {{ while true {{ }} }} {START}"
        ));
        let f = p.fun("spin").expect("fun");
        let mut store = Store::new();
        let mut queue = EventQueue::new();
        let err = eval_state(&p, &mut store, &mut queue, 10_000, &f.body).expect_err("diverges");
        assert_eq!(err, RuntimeError::FuelExhausted);
    }

    #[test]
    fn handlers_capture_loop_variables_and_view_state() {
        // Each entry's tap handler sees its own loop variable and its own
        // `remember` slot; applying it writes both through EP-APP.
        let p = compiled(
            "global picked : string = \"\"
             global items : list string = [\"a\", \"b\"]
             page start() {
                 render {
                     foreach x in items {
                         boxed {
                             remember taps : number = 0;
                             post x ++ taps;
                             on tap { picked := x; taps := taps + 1; }
                         }
                     }
                 }
             }",
        );
        let page = p.page("start").expect("page");
        let mut store = Store::new();
        let mut widgets = WidgetStore::new();
        let host = Host {
            widgets: Some(&mut widgets),
            ..Host::default()
        };
        let out = run(
            &p,
            &mut store,
            Effect::Render,
            host,
            FUEL,
            &[],
            &page.render,
        )
        .expect("render");
        let root = out.root.expect("content");
        let second = root.descendant(&[1]).expect("second box");
        let handler = second.attr(Attr::OnTap).expect("handler").clone();
        let Value::Closure(c) = &handler else {
            panic!("handler is a closure");
        };
        assert_eq!(c.env.len(), 2, "captures x and taps: {:?}", c.env);
        let mut queue = EventQueue::new();
        let host = Host {
            queue: Some(&mut queue),
            widgets: Some(&mut widgets),
            ..Host::default()
        };
        apply(&p, &mut store, host, FUEL, &handler, &[]).expect("tap runs");
        assert_eq!(store.get("picked"), Some(&Value::str("b")));
        let key = WidgetKey {
            id: crate::expr::RememberId(0),
            occurrence: 1,
        };
        assert_eq!(widgets.get(key), Some(&Value::Number(1.0)));
    }

    #[test]
    fn stepper_walks_a_reduction_sequence() {
        let p = compiled(&format!("global g : number = 40 {START}"));
        // g + (1 + 1) reduces: EP-GLOBAL-2, X-OP, X-OP.
        let expr = Expr::new(
            ExprKind::Binary(
                BinOp::Add,
                Box::new(Expr::new(ExprKind::Global(Arc::from("g")), Span::DUMMY)),
                Box::new(Expr::new(
                    ExprKind::Binary(
                        BinOp::Add,
                        Box::new(Expr::new(ExprKind::Num(1.0), Span::DUMMY)),
                        Box::new(Expr::new(ExprKind::Num(1.0), Span::DUMMY)),
                    ),
                    Span::DUMMY,
                )),
            ),
            Span::DUMMY,
        );
        let mut store = Store::new();
        let mut stepper = Stepper::new_pure(&p, &mut store, 1000, expr);
        let mut rules = Vec::new();
        while !stepper.is_done() {
            rules.push(stepper.step().expect("steps").expect("applied a rule"));
        }
        assert_eq!(rules, vec![Rule::EpGlobal2, Rule::XOp, Rule::XOp]);
        assert_eq!(stepper.value(), Some(Value::Number(42.0)));
        assert_eq!(stepper.trace(), &rules[..]);
        assert_eq!(stepper.counts().total(), 3);
        // Stepping a finished expression is a no-op.
        let mut done = stepper;
        assert_eq!(done.step().expect("fine"), None);
    }

    #[test]
    fn subst_respects_shadowing() {
        let x: Name = Arc::from("x");
        let replacement = Expr::new(ExprKind::Num(9.0), Span::DUMMY);
        let lam = Arc::new(LambdaExpr {
            params: Arc::from(vec![crate::expr::ParamSig::new("x", crate::Type::Number)]),
            effect: Effect::Pure,
            body: Arc::new(Expr::new(ExprKind::Local(x.clone()), Span::DUMMY)),
        });
        // Substituting into a λ records the binding and leaves the body
        // alone; the parameter shadows it when the closure is applied.
        let substituted = subst(
            &Expr::new(ExprKind::Lambda(lam.clone()), Span::DUMMY),
            &x,
            &replacement,
        );
        assert_eq!(
            substituted.kind,
            ExprKind::Capture(lam, vec![(x.clone(), replacement.clone())])
        );
        // let x = 1; x — inner x shadowed by the binder.
        let let_expr = Expr::new(
            ExprKind::Let {
                name: x.clone(),
                ty: None,
                value: Box::new(Expr::new(ExprKind::Num(1.0), Span::DUMMY)),
                body: Box::new(Expr::new(ExprKind::Local(x.clone()), Span::DUMMY)),
            },
            Span::DUMMY,
        );
        let substituted = subst(&let_expr, &x, &replacement);
        assert_eq!(substituted, let_expr);
    }

    #[test]
    fn closure_roundtrips_through_value_conversion() {
        // A closure capturing `k` is the value `(λ, [k = 32])`, exactly as
        // the VM builds it; applying it substitutes the capture back.
        let p = compiled(&format!(
            "fun make(): number pure {{
                 let k = 32;
                 let f = fn(x: number) -> x + k;
                 f(10)
             }} {START}"
        ));
        let f = p.fun("make").expect("fun");
        let mut store = Store::new();
        let mut q = EventQueue::new();
        let out = eval_state(&p, &mut store, &mut q, 1_000_000, &f.body).expect("evaluates");
        assert_eq!(out.value, Value::Number(42.0));
        let closure = Value::Closure(Arc::new(Closure {
            params: Arc::from(Vec::new()),
            effect: Effect::Pure,
            body: Arc::new(Expr::unit(Span::DUMMY)),
            env: Arc::from(vec![(Arc::from("k"), Value::Number(32.0))]),
            version: 3,
        }));
        let term = value_to_expr(&closure, Span::DUMMY);
        assert!(is_value(&term));
        assert_eq!(expr_to_value(&term), Ok(closure));
    }
}
