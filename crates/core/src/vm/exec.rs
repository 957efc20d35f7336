//! The bytecode executor: a register machine over [`Scratch`] windows.
//!
//! Each entry point runs one transition body (page `init`, handler
//! thunk, page `render`, live example) and must agree with the
//! small-step reference machine ([`crate::smallstep`]): same `Result`,
//! same store/queue/widget effects in the same order, same rendered
//! frames. Only `cost.steps`/fuel accounting differs — the VM ticks per
//! instruction rather than per reduction rule — which is why fault
//! injection for differential testing uses `before_prim`, never fuel
//! throttling.
//!
//! Every refusal is a typed [`RuntimeError`] that the system contains
//! as a fault: an unknown page, page arguments that do not fit the
//! compiled parameter slots, a closure from another program version
//! (which the §4.2 no-stale-code invariant rules out), fuel exhaustion,
//! or a call chain deeper than [`MAX_CALL_DEPTH`].

use std::sync::Arc;

use super::{apply_binop, Cost, MAX_CALL_DEPTH};
use crate::boxtree::{BoxItem, BoxNode};
use crate::error::RuntimeError;
use crate::event::{Event, EventQueue};
use crate::expr::{BoxSourceId, RememberId};
use crate::fault::FaultInjector;
use crate::store::Store;
use crate::types::{Effect, Name};
use crate::value::{CapturedEnv, Closure, Value};
use crate::widget::WidgetStore;

use crate::provenance::Provenance;

use super::arena::Scratch;
use super::{GuardOp, Instr, ProvSpec, Reg, VmProgram};

/// Execution statistics for one VM run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Instructions dispatched (every opcode, including fuel-free ones).
    pub instructions: u64,
    /// High-water register-arena bytes on the scratch pool.
    pub arena_bytes: u64,
}

/// Result of one VM transition: the outcome plus cost and VM stats.
#[derive(Debug)]
pub struct VmRun<T> {
    /// The transition result.
    pub result: Result<T, RuntimeError>,
    /// Semantic cost accounting (see [`Cost`]).
    pub cost: Cost,
    /// VM-only execution statistics.
    pub stats: RunStats,
}

/// Store access for one run: mutable in state mode, shared otherwise.
/// Render and pure code hold only a shared reference, so immutability
/// of the model during rendering is enforced by the borrow checker on
/// top of the dynamic mode checks.
enum StoreView<'a> {
    Mut(&'a mut Store),
    Ref(&'a Store),
}

impl StoreView<'_> {
    fn get(&self, name: &str) -> Option<&Value> {
        match self {
            StoreView::Mut(s) => s.get(name),
            StoreView::Ref(s) => s.get(name),
        }
    }

    fn set(&mut self, name: &str, value: Value) -> Result<(), ()> {
        match self {
            StoreView::Mut(s) => {
                s.set(name, value);
                Ok(())
            }
            StoreView::Ref(_) => Err(()),
        }
    }
}

/// One in-flight VM run.
struct Vm<'a> {
    vmp: &'a VmProgram,
    scratch: &'a mut Scratch,
    store: StoreView<'a>,
    queue: Option<&'a mut EventQueue>,
    mode: Effect,
    /// Render frames; `boxes[0]` is the implicit top-level box.
    boxes: Vec<BoxNode>,
    fuel: u64,
    version: u64,
    cost: Cost,
    instructions: u64,
    /// Native call nesting of this run (see [`MAX_CALL_DEPTH`]).
    depth: u32,
    widgets: Option<&'a mut WidgetStore>,
    faults: Option<&'a mut (dyn FaultInjector + 'static)>,
}

const BAD_CODE: RuntimeError = RuntimeError::Internal("vm: malformed bytecode");

/// A closure whose body this program version did not compile — only
/// possible for one from another version, which the §4.2 no-stale-code
/// invariant rules out for checked systems.
const FOREIGN: RuntimeError = RuntimeError::Internal("vm: closure from another program version");

impl<'a> Vm<'a> {
    /// A run in `mode` over `store`, with no queue, widget store
    /// or fault injector (entry points add theirs).
    fn base(
        vmp: &'a VmProgram,
        scratch: &'a mut Scratch,
        store: StoreView<'a>,
        mode: Effect,
        fuel: u64,
        version: u64,
    ) -> Self {
        Vm {
            vmp,
            scratch,
            store,
            queue: None,
            mode,
            boxes: Vec::new(),
            fuel,
            version,
            cost: Cost::default(),
            instructions: 0,
            depth: 0,
            widgets: None,
            faults: None,
        }
    }

    fn tick(&mut self) -> Result<(), RuntimeError> {
        self.cost.steps += 1;
        if self.fuel == 0 {
            return Err(RuntimeError::FuelExhausted);
        }
        self.fuel -= 1;
        Ok(())
    }

    fn parent_frame(&mut self) -> Result<&mut BoxNode, RuntimeError> {
        self.boxes
            .last_mut()
            .ok_or(RuntimeError::Internal("render frame missing"))
    }

    fn get_bool(&self, i: usize) -> Result<bool, RuntimeError> {
        match self.scratch.get(i)? {
            Value::Bool(b) => Ok(*b),
            v => Err(RuntimeError::TypeMismatch {
                expected: "bool",
                found: v.display_text(),
            }),
        }
    }

    fn sym_name(&self, sym: u32) -> Result<&Name, RuntimeError> {
        self.vmp.syms.get(sym as usize).ok_or(BAD_CODE)
    }

    /// Snapshot the registers of a compile-time `(symbol, register)`
    /// set, relative to the window at `base`, in one allocation: a
    /// closure environment or a provenance record's free locals. Every
    /// index is checked first, so the collect runs over an exact-size
    /// iterator and allocates once.
    fn snapshot(&self, base: usize, set: &[(u32, Reg)]) -> Result<CapturedEnv, RuntimeError> {
        let syms = &self.vmp.syms;
        let regs = self.scratch.window(base)?;
        if set
            .iter()
            .any(|&(sym, r)| sym as usize >= syms.len() || r as usize >= regs.len())
        {
            return Err(BAD_CODE);
        }
        // Indexing cannot fail: every index was checked above.
        Ok(set
            .iter()
            .map(|&(sym, r)| (syms[sym as usize].clone(), regs[r as usize].clone()))
            .collect())
    }

    /// Materialize a compile-time [`ProvSpec`] into a runtime
    /// [`Provenance`], reading the free-local registers *now* — after
    /// the operand evaluated (a lookup-after-eval snapshot).
    fn materialize_prov(&self, base: usize, prov: u32) -> Result<Option<Provenance>, RuntimeError> {
        let spec = self.vmp.provs.get(prov as usize).ok_or(BAD_CODE)?;
        Ok(Some(match spec {
            ProvSpec::Literal(span) => Provenance::Literal(*span),
            ProvSpec::Expr { span, free } => Provenance::Expr {
                span: *span,
                env: self.snapshot(base, free)?,
            },
        }))
    }

    /// Run one chunk in the window at `base` until its `Ret`.
    fn exec(&mut self, chunk_idx: u32, base: usize) -> Result<Value, RuntimeError> {
        let vmp = self.vmp;
        let chunk = vmp.chunks.get(chunk_idx as usize).ok_or(BAD_CODE)?;
        let code = &chunk.code;
        let mut pc = 0usize;
        loop {
            let instr = *code.get(pc).ok_or(BAD_CODE)?;
            pc += 1;
            self.instructions += 1;
            // `Ret` and unconditional `Jump` are fuel-free: neither can
            // form a loop on its own, so charging only value-producing
            // instructions still bounds every run.
            if !matches!(instr, Instr::Ret { .. } | Instr::Jump { .. }) {
                self.tick()?;
            }
            match instr {
                Instr::Const { dst, k } => {
                    let v = vmp.consts.get(k as usize).ok_or(BAD_CODE)?.clone();
                    self.scratch.set(base + dst as usize, v)?;
                }
                Instr::Move { dst, src } => {
                    let v = self.scratch.get(base + src as usize)?.clone();
                    self.scratch.set(base + dst as usize, v)?;
                }
                Instr::Global { dst, g } => {
                    let slot = vmp.globals.get(g as usize).ok_or(BAD_CODE)?;
                    let v = match self.store.get(&slot.name) {
                        Some(v) => v.clone(),
                        // EP-GLOBAL-2: fall back to the initializer in
                        // the code, evaluated in an empty scope (a
                        // fresh window).
                        None => self.run_init(slot.init_chunk)?,
                    };
                    self.scratch.set(base + dst as usize, v)?;
                }
                Instr::SetGlobal { g, src } => {
                    let v = self.scratch.get(base + src as usize)?.clone();
                    let slot = vmp.globals.get(g as usize).ok_or(BAD_CODE)?;
                    self.store
                        .set(&slot.name, v)
                        .map_err(|()| RuntimeError::EffectViolation {
                            op: "g := e",
                            mode: self.mode,
                        })?;
                }
                Instr::MakeClosure { dst, l } => {
                    let info = vmp.lambdas.get(l as usize).ok_or(BAD_CODE)?;
                    let v = Value::Closure(Arc::new(Closure {
                        params: info.params.clone(),
                        effect: info.effect,
                        body: info.body.clone(),
                        env: self.snapshot(base, &info.captures)?,
                        version: self.version,
                    }));
                    self.scratch.set(base + dst as usize, v)?;
                }
                Instr::MakeTuple { dst, base: b, len } => {
                    let vs = self
                        .scratch
                        .slice(base + b as usize, len as usize)?
                        .to_vec();
                    self.scratch.set(base + dst as usize, Value::tuple(vs))?;
                }
                Instr::MakeList { dst, base: b, len } => {
                    let vs = self
                        .scratch
                        .slice(base + b as usize, len as usize)?
                        .to_vec();
                    self.scratch.set(base + dst as usize, Value::list(vs))?;
                }
                Instr::Concat { dst, base: b, len } => {
                    let v = self.scratch.concat(base + b as usize, len as usize)?;
                    self.scratch.set(base + dst as usize, v)?;
                }
                Instr::Proj { dst, src, index } => {
                    let v = match self.scratch.get(base + src as usize)? {
                        Value::Tuple(vs) => {
                            let i = index as usize;
                            match vs.get(i.wrapping_sub(1)) {
                                Some(v) if i >= 1 => v.clone(),
                                _ => {
                                    return Err(RuntimeError::ProjOutOfRange {
                                        index,
                                        len: vs.len(),
                                    })
                                }
                            }
                        }
                        v => {
                            return Err(RuntimeError::TypeMismatch {
                                expected: "tuple",
                                found: v.display_text(),
                            })
                        }
                    };
                    self.scratch.set(base + dst as usize, v)?;
                }
                Instr::Call {
                    dst,
                    callee,
                    base: b,
                    argc,
                } => {
                    let f = self.scratch.get(base + callee as usize)?.clone();
                    let v = self.call_value(f, base + b as usize, argc)?;
                    self.scratch.set(base + dst as usize, v)?;
                }
                Instr::CallFun {
                    dst,
                    l,
                    base: b,
                    argc,
                } => {
                    let v = self.call_lambda(l, base + b as usize, argc, None)?;
                    self.scratch.set(base + dst as usize, v)?;
                }
                Instr::Jump { to } => pc = to as usize,
                Instr::JumpIfFalse { cond, to } => {
                    if !self.get_bool(base + cond as usize)? {
                        pc = to as usize;
                    }
                }
                Instr::JumpIfTrue { cond, to } => {
                    if self.get_bool(base + cond as usize)? {
                        pc = to as usize;
                    }
                }
                Instr::CheckBool { src } => {
                    self.get_bool(base + src as usize)?;
                }
                Instr::CheckNum { src } => match self.scratch.get(base + src as usize)? {
                    Value::Number(_) => {}
                    v => {
                        return Err(RuntimeError::TypeMismatch {
                            expected: "number",
                            found: v.display_text(),
                        })
                    }
                },
                Instr::Bin { op, dst, a, b } => {
                    let v = {
                        let av = self.scratch.get(base + a as usize)?;
                        let bv = self.scratch.get(base + b as usize)?;
                        apply_binop(op, av, bv)?
                    };
                    self.scratch.set(base + dst as usize, v)?;
                }
                Instr::Neg { dst, src } => {
                    let v = match self.scratch.get(base + src as usize)? {
                        Value::Number(n) => Value::Number(-n),
                        v => {
                            return Err(RuntimeError::TypeMismatch {
                                expected: "number",
                                found: v.display_text(),
                            })
                        }
                    };
                    self.scratch.set(base + dst as usize, v)?;
                }
                Instr::Not { dst, src } => {
                    let v = Value::Bool(!self.get_bool(base + src as usize)?);
                    self.scratch.set(base + dst as usize, v)?;
                }
                Instr::IterNext {
                    list,
                    idx,
                    var,
                    exit,
                } => {
                    let i = match self.scratch.get(base + idx as usize)? {
                        Value::Number(n) => *n,
                        _ => return Err(BAD_CODE),
                    };
                    let item = match self.scratch.get(base + list as usize)? {
                        Value::List(items) => items.get(i as usize).cloned(),
                        v => {
                            return Err(RuntimeError::TypeMismatch {
                                expected: "list",
                                found: v.display_text(),
                            })
                        }
                    };
                    match item {
                        Some(v) => {
                            self.scratch.set(base + var as usize, v)?;
                            self.scratch
                                .set(base + idx as usize, Value::Number(i + 1.0))?;
                        }
                        None => pc = exit as usize,
                    }
                }
                Instr::Guard { op } => self.guard(op)?,
                Instr::GuardWidget { src, key } => {
                    if self.mode != Effect::State {
                        return Err(RuntimeError::EffectViolation {
                            op: "widget write",
                            mode: self.mode,
                        });
                    }
                    let k = match self.scratch.get(base + src as usize)? {
                        Value::WidgetRef(k) => *k,
                        other => {
                            return Err(RuntimeError::TypeMismatch {
                                expected: "widget slot reference",
                                found: other.display_text(),
                            })
                        }
                    };
                    self.scratch.set(base + key as usize, Value::WidgetRef(k))?;
                }
                Instr::PushEvent {
                    page,
                    base: b,
                    argc,
                } => {
                    let name = vmp.page_names.get(page as usize).ok_or(BAD_CODE)?.clone();
                    let argv = self
                        .scratch
                        .slice(base + b as usize, argc as usize)?
                        .to_vec();
                    let queue = self
                        .queue
                        .as_deref_mut()
                        .ok_or(RuntimeError::EffectViolation {
                            op: "push",
                            mode: Effect::Render,
                        })?;
                    queue.enqueue(Event::Push(name, Value::tuple(argv)));
                }
                Instr::PopEvent => {
                    if self.mode != Effect::State {
                        return Err(RuntimeError::EffectViolation {
                            op: "pop",
                            mode: self.mode,
                        });
                    }
                    let queue = self
                        .queue
                        .as_deref_mut()
                        .ok_or(RuntimeError::EffectViolation {
                            op: "pop",
                            mode: Effect::Render,
                        })?;
                    queue.enqueue(Event::Pop);
                }
                Instr::BoxEnter { id } => {
                    // ER-BOXED.
                    if self.mode != Effect::Render || self.boxes.is_empty() {
                        return Err(RuntimeError::EffectViolation {
                            op: "boxed",
                            mode: self.mode,
                        });
                    }
                    self.cost.boxes_created += 1;
                    self.boxes.push(BoxNode::new(Some(BoxSourceId(id))));
                }
                Instr::BoxExit => {
                    let node = self
                        .boxes
                        .pop()
                        .ok_or(RuntimeError::Internal("boxed frame missing"))?;
                    self.parent_frame()?
                        .items
                        .push(BoxItem::Child(Arc::new(node)));
                }
                Instr::PostLeaf { src, prov } => {
                    let v = self.scratch.get(base + src as usize)?.clone();
                    let p = self.materialize_prov(base, prov)?;
                    self.cost.posts += 1;
                    self.parent_frame()?.items.push(BoxItem::Leaf(v, p));
                }
                Instr::SetAttr { attr, src, prov } => {
                    let v = self.scratch.get(base + src as usize)?.clone();
                    let p = self.materialize_prov(base, prov)?;
                    self.parent_frame()?.items.push(BoxItem::Attr(attr, v, p));
                }
                Instr::RememberBind { dst, id, done } => {
                    if self.mode != Effect::Render {
                        return Err(RuntimeError::EffectViolation {
                            op: "remember",
                            mode: self.mode,
                        });
                    }
                    let mode = self.mode;
                    let widgets =
                        self.widgets
                            .as_deref_mut()
                            .ok_or(RuntimeError::EffectViolation {
                                op: "remember (no widget store)",
                                mode,
                            })?;
                    let key = widgets.next_key(RememberId(id));
                    let exists = widgets.contains(key);
                    self.scratch
                        .set(base + dst as usize, Value::WidgetRef(key))?;
                    if exists {
                        pc = done as usize;
                    }
                }
                Instr::RememberInit { key, src } => {
                    let k = match self.scratch.get(base + key as usize)? {
                        Value::WidgetRef(k) => *k,
                        _ => return Err(BAD_CODE),
                    };
                    let v = self.scratch.get(base + src as usize)?.clone();
                    if let Some(widgets) = self.widgets.as_deref_mut() {
                        widgets.set(k, v);
                    }
                }
                Instr::WidgetGet { dst, src, name } => {
                    let k = match self.scratch.get(base + src as usize)? {
                        Value::WidgetRef(k) => *k,
                        other => {
                            return Err(RuntimeError::TypeMismatch {
                                expected: "widget slot reference",
                                found: other.display_text(),
                            })
                        }
                    };
                    let mode = self.mode;
                    let widgets = self
                        .widgets
                        .as_deref()
                        .ok_or(RuntimeError::EffectViolation {
                            op: "widget read (no widget store)",
                            mode,
                        })?;
                    let v = match widgets.get(k) {
                        Some(v) => v.clone(),
                        None => {
                            let n = self.sym_name(name)?.clone();
                            return Err(RuntimeError::UnknownLocal(n));
                        }
                    };
                    self.scratch.set(base + dst as usize, v)?;
                }
                Instr::WidgetSet { key, val } => {
                    let k = match self.scratch.get(base + key as usize)? {
                        Value::WidgetRef(k) => *k,
                        _ => return Err(BAD_CODE),
                    };
                    let v = self.scratch.get(base + val as usize)?.clone();
                    let mode = self.mode;
                    let widgets =
                        self.widgets
                            .as_deref_mut()
                            .ok_or(RuntimeError::EffectViolation {
                                op: "widget write (no widget store)",
                                mode,
                            })?;
                    widgets.set(k, v);
                }
                Instr::Ret { src } => {
                    return Ok(self.scratch.get(base + src as usize)?.clone());
                }
            }
        }
    }

    /// Hoisted effect-mode checks (run before operand evaluation).
    fn guard(&mut self, op: GuardOp) -> Result<(), RuntimeError> {
        let violation = |op| RuntimeError::EffectViolation {
            op,
            mode: self.mode,
        };
        match op {
            GuardOp::AssignGlobal => {
                if self.mode != Effect::State {
                    return Err(violation("g := e"));
                }
            }
            GuardOp::Push => {
                if self.mode != Effect::State {
                    return Err(violation("push"));
                }
            }
            GuardOp::Post => {
                if self.mode != Effect::Render || self.boxes.is_empty() {
                    return Err(violation("post"));
                }
            }
            GuardOp::Attr => {
                if self.mode != Effect::Render || self.boxes.is_empty() {
                    return Err(violation("box.a := e"));
                }
            }
        }
        Ok(())
    }

    /// Run a global's initializer chunk in an empty scope.
    fn run_init(&mut self, init_chunk: u32) -> Result<Value, RuntimeError> {
        let chunk = self.vmp.chunks.get(init_chunk as usize).ok_or(BAD_CODE)?;
        let regs = chunk.regs;
        self.enter()?;
        let b = self.scratch.push_window(regs);
        let r = self.exec(init_chunk, b);
        self.scratch.pop_window(b);
        self.depth -= 1;
        r
    }

    /// Open one native call level, refusing past [`MAX_CALL_DEPTH`].
    fn enter(&mut self) -> Result<(), RuntimeError> {
        if self.depth >= MAX_CALL_DEPTH {
            return Err(RuntimeError::CallDepthExceeded(MAX_CALL_DEPTH));
        }
        self.depth += 1;
        Ok(())
    }

    /// Apply a first-class callable to `argc` arguments already
    /// evaluated into registers `args_at..` (EP-APP).
    fn call_value(&mut self, f: Value, args_at: usize, argc: u16) -> Result<Value, RuntimeError> {
        self.tick()?;
        match f {
            Value::Closure(c) => {
                if c.params.len() != argc as usize {
                    return Err(RuntimeError::ArityMismatch {
                        expected: c.params.len(),
                        found: argc as usize,
                    });
                }
                // Closures made by this program version always resolve
                // (every lambda body is registered at compile time).
                let l = self.vmp.lambda_for(&c.body).ok_or(FOREIGN)?;
                self.call_lambda(l, args_at, argc, Some(&c.env[..]))
            }
            Value::Prim(p) => {
                if let Some(injector) = self.faults.as_deref_mut() {
                    if let Some(err) = injector.before_prim(p) {
                        return Err(err.into());
                    }
                }
                let args = self.scratch.slice(args_at, argc as usize)?;
                let v = p.apply(args, &mut self.cost.prim)?;
                Ok(v)
            }
            other => Err(RuntimeError::NotAFunction(other.display_text())),
        }
    }

    /// Invoke compiled lambda `l`: new window, env then args, run, pop.
    fn call_lambda(
        &mut self,
        l: u32,
        args_at: usize,
        argc: u16,
        env: Option<&[(Name, Value)]>,
    ) -> Result<Value, RuntimeError> {
        let vmp = self.vmp;
        let info = vmp.lambdas.get(l as usize).ok_or(BAD_CODE)?;
        let chunk_idx = info.chunk;
        let chunk = vmp.chunks.get(chunk_idx as usize).ok_or(BAD_CODE)?;
        let (regs, env_len, params) = (chunk.regs, chunk.env_len as usize, chunk.params);
        let got_env = env.map(|e| e.len()).unwrap_or(0);
        if got_env != env_len || argc != params {
            // The chunk's frame layout disagrees with the closure —
            // only possible for a foreign (cross-version) closure whose
            // captured environment has a different shape.
            return Err(FOREIGN);
        }
        self.enter()?;
        let nbase = self.scratch.push_window(regs);
        let r = self.fill_and_exec(chunk_idx, nbase, env, args_at, argc, env_len);
        self.scratch.pop_window(nbase);
        self.depth -= 1;
        r
    }

    /// Copy the closure environment and arguments into the fresh window
    /// at `nbase`, then run the chunk there.
    fn fill_and_exec(
        &mut self,
        chunk_idx: u32,
        nbase: usize,
        env: Option<&[(Name, Value)]>,
        args_at: usize,
        argc: u16,
        env_len: usize,
    ) -> Result<Value, RuntimeError> {
        if let Some(env) = env {
            for (i, (_, v)) in env.iter().enumerate() {
                self.scratch.set(nbase + i, v.clone())?;
            }
        }
        for i in 0..argc as usize {
            let v = self.scratch.get(args_at + i)?.clone();
            self.scratch.set(nbase + env_len + i, v)?;
        }
        self.exec(chunk_idx, nbase)
    }

    /// Seed a window with entry bindings and run a root chunk.
    fn run_entry(
        &mut self,
        chunk_idx: u32,
        bindings: &[(Name, Value)],
    ) -> Result<Value, RuntimeError> {
        let chunk = self.vmp.chunks.get(chunk_idx as usize).ok_or(BAD_CODE)?;
        let regs = chunk.regs;
        let base = self.scratch.push_window(regs);
        for (i, (_, v)) in bindings.iter().enumerate() {
            self.scratch.set(base + i, v.clone())?;
        }
        let r = self.exec(chunk_idx, base);
        self.scratch.pop_window(base);
        r
    }

    /// Apply a handler thunk at the THUNK boundary (EP-APP in state
    /// mode).
    fn run_thunk(&mut self, thunk: &Value, args: &[Value]) -> Result<Value, RuntimeError> {
        self.tick()?;
        match thunk {
            Value::Closure(c) => {
                if c.params.len() != args.len() {
                    return Err(RuntimeError::ArityMismatch {
                        expected: c.params.len(),
                        found: args.len(),
                    });
                }
                let l = self.vmp.lambda_for(&c.body).ok_or(FOREIGN)?;
                let argc = args.len() as u16;
                let sbase = self.scratch.push_window(argc);
                for (i, v) in args.iter().enumerate() {
                    self.scratch.set(sbase + i, v.clone())?;
                }
                let r = self.call_lambda(l, sbase, argc, Some(&c.env[..]));
                self.scratch.pop_window(sbase);
                r
            }
            Value::Prim(p) => {
                if let Some(injector) = self.faults.as_deref_mut() {
                    if let Some(err) = injector.before_prim(*p) {
                        return Err(err.into());
                    }
                }
                Ok(p.apply(args, &mut self.cost.prim)?)
            }
            other => Err(RuntimeError::NotAFunction(other.display_text())),
        }
    }

    fn stats(&self) -> RunStats {
        RunStats {
            instructions: self.instructions,
            arena_bytes: self.scratch.hiwater_bytes(),
        }
    }
}

/// Look up a compiled page whose parameter slots fit `bindings` (same
/// names, same order).
fn page_entry<'v>(
    vmp: &'v VmProgram,
    page: &str,
    bindings: &[(Name, Value)],
) -> Result<&'v super::PageEntry, RuntimeError> {
    let entry = vmp
        .pages
        .get(page)
        .ok_or_else(|| RuntimeError::UnknownPage(Arc::from(page)))?;
    if !bindings_match(&entry.params, bindings) {
        return Err(RuntimeError::Internal(
            "vm: page arguments do not fit the page",
        ));
    }
    Ok(entry)
}

/// A run refused before it started: no state touched, nothing spent.
fn refused<T>(error: RuntimeError) -> VmRun<T> {
    VmRun {
        result: Err(error),
        cost: Cost::default(),
        stats: RunStats::default(),
    }
}

/// Do the entry bindings line up with the compiled page's parameter
/// slots (same names, same order)?
fn bindings_match(params: &[crate::expr::ParamSig], bindings: &[(Name, Value)]) -> bool {
    params.len() == bindings.len()
        && params
            .iter()
            .zip(bindings)
            .all(|(p, (n, _))| Arc::ptr_eq(&p.name, n) || *p.name == **n)
}

/// The THUNK transition body: apply a handler `thunk` to `args` in
/// state mode. A closure from another program version (ruled out for
/// checked systems by the §4.2 no-stale-code invariant) is refused
/// with [`RuntimeError::Internal`] before any state is touched.
#[allow(clippy::too_many_arguments)] // mirrors the σ components + extras
pub fn transition_thunk(
    vmp: &VmProgram,
    scratch: &mut Scratch,
    store: &mut Store,
    queue: &mut EventQueue,
    version: u64,
    fuel: u64,
    thunk: &Value,
    args: &[Value],
    widgets: Option<&mut WidgetStore>,
    faults: Option<&mut (dyn FaultInjector + 'static)>,
) -> VmRun<Value> {
    if args.len() > usize::from(u16::MAX) {
        return refused(RuntimeError::Internal("vm: too many handler arguments"));
    }
    scratch.begin();
    let mut vm = Vm {
        queue: Some(queue),
        widgets,
        faults,
        ..Vm::base(
            vmp,
            scratch,
            StoreView::Mut(store),
            Effect::State,
            fuel,
            version,
        )
    };
    let result = vm.run_thunk(thunk, args);
    let (cost, stats) = (vm.cost, vm.stats());
    VmRun {
        result,
        cost,
        stats,
    }
}

/// The PUSH transition body: run page `page`'s `init` in state mode
/// with its parameters bound. An unknown page, or bindings that do not
/// fit its parameters, is refused with no state touched.
#[allow(clippy::too_many_arguments)] // mirrors the σ components + extras
pub fn transition_page_init(
    vmp: &VmProgram,
    scratch: &mut Scratch,
    store: &mut Store,
    queue: &mut EventQueue,
    version: u64,
    fuel: u64,
    page: &str,
    bindings: &[(Name, Value)],
    widgets: Option<&mut WidgetStore>,
    faults: Option<&mut (dyn FaultInjector + 'static)>,
) -> VmRun<Value> {
    let init_chunk = match page_entry(vmp, page, bindings) {
        Ok(entry) => entry.init_chunk,
        Err(error) => return refused(error),
    };
    scratch.begin();
    let mut vm = Vm {
        queue: Some(queue),
        widgets,
        faults,
        ..Vm::base(
            vmp,
            scratch,
            StoreView::Mut(store),
            Effect::State,
            fuel,
            version,
        )
    };
    let result = vm.run_entry(init_chunk, bindings);
    let (cost, stats) = (vm.cost, vm.stats());
    VmRun {
        result,
        cost,
        stats,
    }
}

/// Run a live example chunk: evaluate example `index`'s body (or, with `expect` set, its
/// `expect` clause) in pure mode against a read-only store. Returns
/// `None` — with no state touched — when the index is out of range or
/// the example has no `expect` clause.
pub fn run_example(
    vmp: &VmProgram,
    scratch: &mut Scratch,
    store: &Store,
    version: u64,
    fuel: u64,
    index: usize,
    expect: bool,
) -> Option<VmRun<Value>> {
    let slot = vmp.examples.get(index)?;
    let chunk = if expect {
        slot.expect_chunk?
    } else {
        slot.body_chunk
    };
    scratch.begin();
    let mut vm = Vm::base(
        vmp,
        scratch,
        StoreView::Ref(store),
        Effect::Pure,
        fuel,
        version,
    );
    let result = vm.run_entry(chunk, &[]);
    let (cost, stats) = (vm.cost, vm.stats());
    Some(VmRun {
        result,
        cost,
        stats,
    })
}

/// The RENDER transition body: run page `page`'s `render` in render
/// mode, building the box tree. Refused like
/// [`transition_page_init`]. The widget store's occurrence counters
/// must be reset (`begin_render`) by the caller.
#[allow(clippy::too_many_arguments)] // mirrors the σ components + extras
pub fn transition_page_render(
    vmp: &VmProgram,
    scratch: &mut Scratch,
    store: &Store,
    version: u64,
    fuel: u64,
    page: &str,
    bindings: &[(Name, Value)],
    widgets: Option<&mut WidgetStore>,
    faults: Option<&mut (dyn FaultInjector + 'static)>,
) -> VmRun<BoxNode> {
    let render_chunk = match page_entry(vmp, page, bindings) {
        Ok(entry) => entry.render_chunk,
        Err(error) => return refused(error),
    };
    scratch.begin();
    let mut spine = scratch.take_box_spine();
    spine.push(BoxNode::new(None));
    let run = {
        let mut vm = Vm {
            boxes: spine,
            widgets,
            faults,
            ..Vm::base(
                vmp,
                scratch,
                StoreView::Ref(store),
                Effect::Render,
                fuel,
                version,
            )
        };
        let result = vm.run_entry(render_chunk, bindings).and_then(|_| {
            vm.boxes
                .pop()
                .ok_or(RuntimeError::Internal("top-level box frame missing"))
        });
        let (cost, stats) = (vm.cost, vm.stats());
        let spine = std::mem::take(&mut vm.boxes);
        (result, cost, stats, spine)
    };
    let (result, cost, stats, spine) = run;
    scratch.return_box_spine(spine);
    VmRun {
        result,
        cost,
        stats,
    }
}
