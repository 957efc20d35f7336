//! The production evaluator: a register-based bytecode VM.
//!
//! This module compiles a checked [`Program`] once into a compact
//! register-based bytecode ([`VmProgram`]) and executes every INIT,
//! HANDLER, RENDER and example transition on a pooled register stack
//! ([`Scratch`]):
//!
//! * **Interning** — global names, page names, and every local binding
//!   name are interned into `u32` symbol IDs at compile time; the
//!   instruction stream carries only integers.
//! * **Slot resolution** — local variable lookups are resolved to frame
//!   slot indices by the compiler. The compile-time binding stack is
//!   the flattened scope chain (shadowed entries included), so a
//!   closure captures every visible binding, outermost first.
//! * **Arena frames** — per-frame `Value`s live in one contiguous
//!   register stack with an epoch reset per transition
//!   (`Scratch::begin`); the render spine (`Vec<BoxNode>`) is pooled
//!   the same way.
//! * **One allocation per value** — a maximal `++` chain compiles to
//!   one `Concat` instruction that builds its text in a pooled buffer
//!   and copies it out once; a closure environment or provenance
//!   snapshot is one `Arc<[(Name, Value)]>`.
//! * **Budgets** — fuel bounds the work of one transition, and
//!   [`MAX_CALL_DEPTH`] bounds its native call nesting: a run over
//!   either budget ends in a typed [`RuntimeError`], which the system
//!   contains as a `Fault` with rollback.
//!
//! # Relationship to the reference semantics
//!
//! The VM is the only production evaluator. Its reference is the
//! paper's Fig. 8 small-step machine in [`crate::smallstep`]: for every
//! transition the two must produce the same `Result`, the same
//! store/queue/widget effects, and the same rendered frames (provenance
//! aside, which the substitution machine does not track; it is checked
//! by re-evaluating each tagged expression instead). Only step and fuel
//! counts differ — the VM ticks per instruction, the machine per rule.
//! `tests/vm_differential.rs` holds the differential walks.

mod arena;
mod compile;
mod exec;

pub use arena::Scratch;
pub use compile::CompileError;
pub(crate) use compile::{frame_bound, FRAME_LIMIT};
pub use exec::{
    run_example, transition_page_init, transition_page_render, transition_thunk, RunStats, VmRun,
};

use std::collections::HashMap;
use std::sync::Arc;

use alive_syntax::ast::BinOp;
use alive_syntax::Span;

use crate::attr::Attr;
use crate::error::RuntimeError;
use crate::expr::Expr;
use crate::prim::PrimCtx;
use crate::program::Program;
use crate::types::{Effect, Name};
use crate::value::Value;

/// Default step budget for one transition's worth of evaluation.
pub const DEFAULT_FUEL: u64 = 50_000_000;

/// Stack size, in bytes, of every thread that evaluates user code in a
/// host (the serve crate's workers spawn with exactly this). The VM
/// recurses natively once per call, so this is what
/// [`MAX_CALL_DEPTH`] is derived from.
pub const EVAL_STACK_BYTES: usize = 64 << 20;

/// An upper bound on the native stack one VM call level uses: about
/// 24 KiB measured on unoptimized builds, rounded up for headroom
/// (optimized builds use about 1.2 KiB).
const CALL_FRAME_BYTES: usize = 32 << 10;

/// Call-nesting budget of one transition (1,536 calls): a run that
/// nests deeper ends in [`RuntimeError::CallDepthExceeded`] (a contained
/// fault), never a stack overflow. Derived from [`EVAL_STACK_BYTES`],
/// keeping a quarter of the stack for the host's own frames, so a chain
/// at the budget runs on a thread of that size in debug and release
/// builds alike.
pub const MAX_CALL_DEPTH: u32 = (EVAL_STACK_BYTES / 4 * 3 / CALL_FRAME_BYTES) as u32;

/// Deterministic cost accounting for one or more evaluation runs.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Cost {
    /// Evaluation steps taken (VM instructions that burn fuel).
    pub steps: u64,
    /// Boxes created by `boxed`.
    pub boxes_created: u64,
    /// Leaves posted by `post`.
    pub posts: u64,
    /// Simulated external latency and request counts.
    pub prim: PrimCtx,
}

impl Cost {
    /// Merge another cost record into this one.
    pub fn absorb(&mut self, other: Cost) {
        self.steps += other.steps;
        self.boxes_created += other.boxes_created;
        self.posts += other.posts;
        self.prim.simulated_ms += other.prim.simulated_ms;
        self.prim.web_requests += other.prim.web_requests;
    }
}

/// Apply a (non-short-circuit) binary operator to values — shared by
/// the VM and the small-step machine's X-OP rule.
///
/// # Errors
///
/// [`RuntimeError::TypeMismatch`] on operands of the wrong kind.
pub fn apply_binop(op: BinOp, l: &Value, r: &Value) -> Result<Value, RuntimeError> {
    use BinOp::*;
    let num = |v: &Value| match v {
        Value::Number(n) => Ok(*n),
        other => Err(RuntimeError::TypeMismatch {
            expected: "number",
            found: other.display_text(),
        }),
    };
    Ok(match op {
        Add => Value::Number(num(l)? + num(r)?),
        Sub => Value::Number(num(l)? - num(r)?),
        Mul => Value::Number(num(l)? * num(r)?),
        Div => Value::Number(num(l)? / num(r)?),
        Mod => Value::Number(num(l)?.rem_euclid(num(r)?)),
        Concat => {
            let mut text = String::new();
            push_concat_text(&mut text, l)?;
            push_concat_text(&mut text, r)?;
            Value::Str(Arc::from(text))
        }
        Eq => Value::Bool(l == r),
        Ne => Value::Bool(l != r),
        Lt | Le | Gt | Ge => {
            let ordering = match (l, r) {
                (Value::Number(a), Value::Number(b)) => a.partial_cmp(b),
                (Value::Str(a), Value::Str(b)) => Some(a.cmp(b)),
                _ => {
                    return Err(RuntimeError::TypeMismatch {
                        expected: "two numbers or two strings",
                        found: format!("{} and {}", l.display_text(), r.display_text()),
                    })
                }
            };
            // NaN comparisons are false, as in IEEE.
            let Some(ordering) = ordering else {
                return Ok(Value::Bool(false));
            };
            Value::Bool(match op {
                Lt => ordering.is_lt(),
                Le => ordering.is_le(),
                Gt => ordering.is_gt(),
                _ => ordering.is_ge(),
            })
        }
        And | Or => {
            let (Value::Bool(a), Value::Bool(b)) = (l, r) else {
                return Err(RuntimeError::TypeMismatch {
                    expected: "bool",
                    found: format!("{} and {}", l.display_text(), r.display_text()),
                });
            };
            Value::Bool(if op == And { *a && *b } else { *a || *b })
        }
    })
}

/// Append one `++` operand's text to `out`: strings bare, numbers as
/// [`crate::value::fmt_number`] formats them, bools and colors by name.
/// The one definition of concat text — the VM's fused `Concat`
/// instruction and [`apply_binop`] (the small-step machine, `persist`)
/// both build their strings with it.
///
/// # Errors
///
/// [`RuntimeError::TypeMismatch`] on any other kind of value.
pub(crate) fn push_concat_text(out: &mut String, v: &Value) -> Result<(), RuntimeError> {
    match v {
        Value::Str(s) => out.push_str(s),
        Value::Number(n) => crate::value::write_number(out, *n),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Color(c) => {
            use std::fmt::Write;
            // Writing into a `String` cannot fail.
            let _ = write!(out, "{c}");
        }
        other => {
            return Err(RuntimeError::TypeMismatch {
                expected: "string, number, bool, or color",
                found: other.display_text(),
            })
        }
    }
    Ok(())
}

/// A register index within the current frame window.
pub(crate) type Reg = u16;

/// One bytecode instruction. Register operands are frame-relative; the
/// executor adds the window base. Jump targets are absolute pcs within
/// the chunk.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Instr {
    /// `dst = consts[k]`.
    Const { dst: Reg, k: u32 },
    /// `dst = src`.
    Move { dst: Reg, src: Reg },
    /// `dst = store[globals[g]]`, running the interned initializer
    /// chunk on a store miss (EP-GLOBAL-2).
    Global { dst: Reg, g: u32 },
    /// `store[globals[g]] = src` (guarded by [`GuardOp::AssignGlobal`]).
    SetGlobal { g: u32, src: Reg },
    /// `dst = closure(lambdas[l])`, capturing registers listed in the
    /// lambda's capture set.
    MakeClosure { dst: Reg, l: u32 },
    /// `dst = (r[base], …, r[base+len-1])`.
    MakeTuple { dst: Reg, base: Reg, len: u16 },
    /// `dst = [r[base], …, r[base+len-1]]`.
    MakeList { dst: Reg, base: Reg, len: u16 },
    /// `dst = r[base] ++ … ++ r[base+len-1]`: one maximal `++` chain,
    /// fused, its text built in the pooled buffer and copied out once.
    Concat { dst: Reg, base: Reg, len: u16 },
    /// `dst = src.index` (1-based tuple projection).
    Proj { dst: Reg, src: Reg, index: u32 },
    /// `dst = r[callee](r[base] … r[base+argc-1])`.
    Call {
        dst: Reg,
        callee: Reg,
        base: Reg,
        argc: u16,
    },
    /// Direct call of a statically resolved function — no intermediate
    /// closure value is allocated.
    CallFun {
        dst: Reg,
        l: u32,
        base: Reg,
        argc: u16,
    },
    /// Unconditional jump (fuel-free; cannot loop without a ticking
    /// condition instruction in between).
    Jump { to: u32 },
    /// Jump if `cond` is `false`; errors like `eval_bool` on non-bools.
    JumpIfFalse { cond: Reg, to: u32 },
    /// Jump if `cond` is `true`; errors like `eval_bool` on non-bools.
    JumpIfTrue { cond: Reg, to: u32 },
    /// Assert `src` is a bool (the `&&`/`||` right operand check).
    CheckBool { src: Reg },
    /// Assert `src` is a number (`for` bound checks).
    CheckNum { src: Reg },
    /// `dst = a op b` for non-short-circuit operators other than `++`
    /// (which compiles to [`Instr::Concat`]).
    Bin { op: BinOp, dst: Reg, a: Reg, b: Reg },
    /// `dst = -src` (number-checked).
    Neg { dst: Reg, src: Reg },
    /// `dst = !src` (bool-checked).
    Not { dst: Reg, src: Reg },
    /// Foreach step: if `idx < len(list)` then `var = list[idx]; idx += 1`
    /// else jump to `exit`. Errors with `TypeMismatch` on non-lists.
    IterNext {
        list: Reg,
        idx: Reg,
        var: Reg,
        exit: u32,
    },
    /// Effect-mode check, emitted *before* operand evaluation
    /// (check-then-evaluate order).
    Guard { op: GuardOp },
    /// Widget-write guard: state-mode check plus `src` must hold a
    /// `WidgetRef`, which is copied to `key` so the slot key is pinned
    /// before the value expression runs.
    GuardWidget { src: Reg, key: Reg },
    /// Enqueue `Event::Push(pages[page], (args…))`.
    PushEvent { page: u32, base: Reg, argc: u16 },
    /// Enqueue `Event::Pop` (carries its own mode/queue checks).
    PopEvent,
    /// Open `boxed` frame `id`.
    BoxEnter { id: u32 },
    /// Close the current `boxed` frame.
    BoxExit,
    /// `post` the value in `src` as a leaf of the open box. `prov`
    /// indexes the program's [`ProvSpec`] table; the executor
    /// materializes it into a [`crate::provenance::Provenance`] by
    /// reading the listed registers *at this instruction* — after the
    /// operand ran (a lookup-after-eval snapshot).
    PostLeaf { src: Reg, prov: u32 },
    /// `box.attr := src` on the open box (`prov` as in `PostLeaf`).
    SetAttr { attr: Attr, src: Reg, prov: u32 },
    /// `remember` slot bind: allocate the occurrence key for `id`, put
    /// its `WidgetRef` in `dst`, and jump `done` if the slot already
    /// holds a value (skipping the initializer).
    RememberBind { dst: Reg, id: u32, done: u32 },
    /// Store `src` into the widget slot referenced by `key` (the
    /// `remember` initializer commit).
    RememberInit { key: Reg, src: Reg },
    /// `dst = widgets[r[src]]`; `name` is the surface binding for the
    /// `UnknownLocal` error on a missing slot.
    WidgetGet { dst: Reg, src: Reg, name: u32 },
    /// `widgets[r[key]] = r[val]`.
    WidgetSet { key: Reg, val: Reg },
    /// Return `src` from the current chunk (fuel-free).
    Ret { src: Reg },
}

/// Mode checks hoisted before operand evaluation (ES-ASSIGN, ES-PUSH,
/// ER-POST, ER-ATTR).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum GuardOp {
    /// `g := e` requires state mode.
    AssignGlobal,
    /// `push p(…)` requires state mode (page existence is compile-time).
    Push,
    /// `post e` requires render mode with an open box.
    Post,
    /// `box.a := e` requires render mode with an open box.
    Attr,
}

/// Compile-time provenance for one `post`/`box.a :=` operand: the
/// literal's span, or the expression span plus its free locals resolved
/// to `(symbol, register)` pairs in [`crate::provenance::free_locals`]
/// order, read at the `PostLeaf`/`SetAttr` instruction.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum ProvSpec {
    /// The operand is a literal occurrence.
    Literal(Span),
    /// The operand is a computed expression with the given free locals.
    Expr {
        /// Span of the operand expression.
        span: Span,
        /// Free locals as `(symbol, frame register)`.
        free: Arc<[(u32, Reg)]>,
    },
}

/// One compiled body: a straight-line instruction vector plus its frame
/// shape. Frame layout is `[captured env | params | lets and temps]`.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Chunk {
    pub code: Vec<Instr>,
    /// Registers the frame window needs.
    pub regs: u16,
    /// Leading registers filled from a closure environment.
    pub env_len: u16,
    /// Registers after the environment filled from call arguments.
    pub params: u16,
}

/// Compile-time metadata for one lambda or named function.
#[derive(Debug, Clone)]
pub(crate) struct LambdaInfo {
    pub chunk: u32,
    pub params: Arc<[crate::expr::ParamSig]>,
    pub effect: Effect,
    /// The source body — closures built by the VM share this `Arc`, so
    /// the executor can recognize its own closures by pointer.
    pub body: Arc<Expr>,
    /// `(symbol, register)` pairs to capture: every visible binding,
    /// outermost first, shadowed entries included.
    pub captures: Arc<[(u32, Reg)]>,
}

/// One interned global: its name and initializer chunk.
#[derive(Debug, Clone)]
pub(crate) struct GlobalSlot {
    pub name: Name,
    pub init_chunk: u32,
}

/// One compiled live example: its pure body chunk (slot order matches
/// `Program::examples()`, so names live on the `Program` side).
#[derive(Debug, Clone)]
pub(crate) struct ExampleSlot {
    pub body_chunk: u32,
    /// The `expect` clause's chunk, when the example is self-checking.
    pub expect_chunk: Option<u32>,
}

/// Compiled entry points for one page.
#[derive(Debug, Clone)]
pub(crate) struct PageEntry {
    pub init_chunk: u32,
    pub render_chunk: u32,
    pub params: Arc<[crate::expr::ParamSig]>,
}

/// A whole program compiled to bytecode. Immutable and `Arc`-shared;
/// built once per program version via [`Program::vm`].
#[derive(Debug)]
pub struct VmProgram {
    pub(crate) chunks: Vec<Chunk>,
    pub(crate) consts: Vec<Value>,
    pub(crate) lambdas: Vec<LambdaInfo>,
    /// Constant-provenance table indexed by the `prov` operand of
    /// `PostLeaf`/`SetAttr`.
    pub(crate) provs: Vec<ProvSpec>,
    pub(crate) globals: Vec<GlobalSlot>,
    pub(crate) examples: Vec<ExampleSlot>,
    pub(crate) page_names: Vec<Name>,
    /// The intern table: symbol ID → name.
    pub(crate) syms: Vec<Name>,
    pub(crate) pages: HashMap<Name, PageEntry>,
    /// `Arc::as_ptr` of a lambda/function body → lambda index, for
    /// dispatching closure calls without comparing expressions.
    pub(crate) by_body: HashMap<usize, u32>,
    compile_us: u64,
}

impl VmProgram {
    /// Compile `program` to bytecode. A checked program always
    /// compiles (the checker also rejects register frames over the
    /// compiler's capacity); an error means the program bypassed the
    /// checker, and the system reports it as a contained fault.
    ///
    /// # Errors
    ///
    /// [`CompileError`] on unresolvable names or over-capacity frames.
    pub fn compile(program: &Program) -> Result<VmProgram, CompileError> {
        let start = std::time::Instant::now();
        let mut vmp = compile::compile_program(program)?;
        vmp.compile_us = start.elapsed().as_micros() as u64;
        Ok(vmp)
    }

    pub(crate) fn new_empty() -> VmProgram {
        VmProgram {
            chunks: Vec::new(),
            consts: Vec::new(),
            lambdas: Vec::new(),
            provs: Vec::new(),
            globals: Vec::new(),
            examples: Vec::new(),
            page_names: Vec::new(),
            syms: Vec::new(),
            pages: HashMap::new(),
            by_body: HashMap::new(),
            compile_us: 0,
        }
    }

    /// Wall-clock microseconds the bytecode compile took.
    pub fn compile_us(&self) -> u64 {
        self.compile_us
    }

    /// Number of interned symbols (names).
    pub fn symbol_count(&self) -> usize {
        self.syms.len()
    }

    /// The lambda index for a closure body created by this program
    /// version, if any.
    pub(crate) fn lambda_for(&self, body: &Arc<Expr>) -> Option<u32> {
        self.by_body.get(&(Arc::as_ptr(body) as usize)).copied()
    }
}
