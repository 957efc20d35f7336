//! Differential testing of the bytecode VM against the small-step
//! reference semantics (`smallstep`, the paper's Fig. 8 extended to the
//! whole language) on randomly generated well-typed programs and on
//! the whole scenario corpus:
//!
//! 1. **Bodies** — page init/render bodies evaluate to the same values,
//!    stores, queues, view state, box trees (closures included, byte
//!    for byte) and prim-call accounting under both machines.
//! 2. **Systems** — a 256-step random walk (taps, backs, cascades)
//!    drives one VM `System`; before every transition the reference
//!    machine runs the same transition from the pre-state the system's
//!    accessors expose, and the outcome, store, queue, page stack, view
//!    state and rendered frame must agree.
//! 3. **Faults** — the same walk under a deterministically injected
//!    prim-fault schedule, replayed in lockstep into the reference: both
//!    fault on the same calls and roll back to the same state.
//! 4. **Corpus** — every scenario program walked the same way, with its
//!    example probes compared value for value.
//!
//! Provenance is not compared (the substitution machine does not track
//! it; `tests/repair_roundtrip.rs` re-evaluates it instead), nor are
//! step and fuel counts, which the machines count differently. Every
//! case is seed-replayable: a failure prints the seed and
//! `ALIVE_TESTKIT_SEED=<seed>` reruns it, fault schedule included.

use std::sync::Arc;

use alive_core::boxtree::{BoxNode, Display};
use alive_core::event::{Event, EventQueue};
use alive_core::fault::{Fault, FaultInjector};
use alive_core::prim::Prim;
use alive_core::program::Program;
use alive_core::smallstep::{self, Host};
use alive_core::store::Store;
use alive_core::system::{StepKind, System, SystemConfig};
use alive_core::types::Name;
use alive_core::widget::WidgetStore;
use alive_core::{compile, vm, Effect, RuntimeError, Value, START_PAGE};
use alive_testkit::{prop, prop_assert, prop_assert_eq, FaultPlan, NoShrink, Rng};

const FUEL: u64 = 5_000_000;

/// The reference machine's budget: it counts one step per rule, so it
/// gets ample fuel; the walks never come near it.
const REFERENCE_FUEL: u64 = 500_000_000;

// ---------------------------------------------------------------------
// Program generator
// ---------------------------------------------------------------------

/// A well-typed numeric expression over globals `ga`/`gb`, the pure
/// helper `inc`, and whatever `let`-bound names are in scope.
fn num_expr(rng: &mut Rng, vars: &[&str], depth: usize) -> String {
    if depth == 0 || rng.chance(2, 5) {
        match rng.below(4) {
            0 => rng.below(100).to_string(),
            1 => "ga".to_string(),
            2 => "gb".to_string(),
            _ => {
                let mut pool: Vec<&str> = vars.to_vec();
                pool.push("ga");
                rng.choose(&pool).to_string()
            }
        }
    } else {
        match rng.below(8) {
            0 => {
                let op = *rng.choose(&["+", "-", "*"]);
                format!(
                    "({} {op} {})",
                    num_expr(rng, vars, depth - 1),
                    num_expr(rng, vars, depth - 1)
                )
            }
            1 => format!("inc({})", num_expr(rng, vars, depth - 1)),
            2 => format!("math.abs({})", num_expr(rng, vars, depth - 1)),
            3 => format!(
                "(if ({}) > 10 {{ {} }} else {{ {} }})",
                num_expr(rng, vars, depth - 1),
                num_expr(rng, vars, depth - 1),
                num_expr(rng, vars, depth - 1)
            ),
            4 => format!(
                "({}, {}).2",
                num_expr(rng, vars, depth - 1),
                num_expr(rng, vars, depth - 1)
            ),
            5 => format!("list.nth([{}], 0)", num_expr(rng, vars, depth - 1)),
            6 => format!(
                "(fn(k: number) -> k + {})({})",
                rng.below(10),
                num_expr(rng, vars, depth - 1)
            ),
            _ => format!(
                "(fn(k: number, j: number) -> k * j)({}, {})",
                num_expr(rng, vars, depth - 1),
                num_expr(rng, vars, depth - 1)
            ),
        }
    }
}

/// One `++` operand of every kind the checker admits: a string (a
/// literal, the string global `gs`, or a call of the pure `label`), an
/// integer, negative, fractional or ≥1e15 number, a bool or a color.
/// `nums` are the numeric locals in scope; `label` is left out of the
/// body of `label` itself. No operand reads `gt`, the global that
/// chains are assigned to, so no string grows over a walk.
fn concat_operand(rng: &mut Rng, nums: &[&str], label: bool) -> String {
    match rng.below(if label { 9 } else { 8 }) {
        0 => format!("\"{}\"", rng.choose(&["a", "", " / ", "x=", "[", "-"])),
        1 => "gs".to_string(),
        2 => num_expr(rng, nums, 2),
        3 => format!("-{}", rng.below(1000)),
        4 => rng
            .choose(&["2.5", "0.1", "(0.1 + 0.2)", "(1 / 3)", "(0 - 7.25)"])
            .to_string(),
        5 => rng
            .choose(&[
                "1000000000000000",
                "123456789012345678",
                "(ga * 1000000000000000)",
                "(0 - 1000000000000000)",
            ])
            .to_string(),
        6 => rng.choose(&["true", "false", "(ga > gb)"]).to_string(),
        7 => rng
            .choose(&["colors.red", "colors.light_blue", "colors.transparent"])
            .to_string(),
        _ => format!("label({})", num_expr(rng, nums, 1)),
    }
}

/// A `++` chain of 2–6 operands: left-nested as written
/// (`a ++ b ++ c`), or parenthesised right-nested
/// (`a ++ (b ++ (c ++ d))`) — the compiler must fuse both into one
/// instruction with the reference's text.
fn concat_chain(rng: &mut Rng, nums: &[&str], label: bool) -> String {
    let operands: Vec<String> = (0..2 + rng.below(5))
        .map(|_| concat_operand(rng, nums, label))
        .collect();
    if rng.chance(1, 2) {
        return operands.join(" ++ ");
    }
    let mut rest = operands.into_iter().rev();
    let last = rest.next().unwrap_or_default();
    rest.fold(last, |acc, op| format!("{op} ++ ({acc})"))
}

/// A random sequence of init statements: lets, global writes, bounded
/// while loops over a mutable local, foreach over a literal list,
/// lambda binding and calls.
fn init_stmts(rng: &mut Rng) -> String {
    let mut out = String::new();
    let e1 = num_expr(rng, &[], 3);
    let e2 = num_expr(rng, &["x1"], 3);
    out.push_str(&format!("let x1 = {e1};\nlet x2 = {e2};\n"));
    for _ in 0..rng.below(3) {
        match rng.below(5) {
            0 => out.push_str(&format!("ga := {};\n", num_expr(rng, &["x1", "x2"], 3))),
            1 => out.push_str(&format!(
                "let i = 0;\nwhile i < {} {{ gb := gb + inc(i); i := i + 1; }}\n",
                rng.below(6)
            )),
            2 => out.push_str(&format!(
                "foreach v in [{}, {}, {}] {{ ga := ga + v; }}\n",
                num_expr(rng, &["x1"], 2),
                num_expr(rng, &["x2"], 2),
                rng.below(20)
            )),
            3 => out.push_str(&format!(
                "let f = fn(k: number) -> k + {};\ngb := f({});\n",
                rng.below(9),
                num_expr(rng, &["x1", "x2"], 2)
            )),
            _ => out.push_str(&format!(
                "for j in 0 .. {} {{ ga := ga + j; }}\n",
                rng.below(5)
            )),
        }
    }
    if rng.chance(1, 2) {
        out.push_str(&format!(
            "gt := {};\n",
            concat_chain(rng, &["x1", "x2"], true)
        ));
    }
    out.push_str("ga := x1 + x2;\n");
    out
}

/// Plain render statements: boxes, posts, attributes, loops.
fn render_stmts_plain(rng: &mut Rng) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "boxed {{ post \"g \" ++ ga ++ \"/\" ++ gb; box.margin := {}; }}\n",
        rng.below(4)
    ));
    out.push_str(&format!(
        "for i in 0 .. {} {{ boxed {{ post i * gb + {}; }} }}\n",
        rng.below(4) + 1,
        num_expr(rng, &[], 2)
    ));
    if rng.chance(1, 2) {
        out.push_str(&format!(
            "foreach s in [\"a\", \"b\"] {{ boxed {{ post s ++ {}; }} }}\n",
            num_expr(rng, &[], 2)
        ));
    }
    out
}

/// Render statements built on `++` chains, placed after the tap
/// targets so they leave the walks' tap fan alone: a posted chain, a
/// chain through a closure over a render local, chains in a loop, and
/// sometimes a chain whose operand faults.
fn render_stmts_concat(rng: &mut Rng) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "boxed {{ post {}; }}\n",
        concat_chain(rng, &[], true)
    ));
    out.push_str(&format!(
        "let r = {};\nlet show = fn(k: number) -> {};\nboxed {{ post show({}); }}\n",
        num_expr(rng, &[], 1),
        concat_chain(rng, &["k", "r"], true),
        num_expr(rng, &["r"], 1)
    ));
    if rng.chance(1, 2) {
        out.push_str(&format!(
            "for c in 0 .. 2 {{ boxed {{ post {}; }} }}\n",
            concat_chain(rng, &["c"], true)
        ));
    }
    // A chain whose operand faults (`list.nth` out of range) once `gb`
    // is even: the render fails identically on both machines.
    if rng.chance(1, 6) {
        out.push_str(&format!(
            "if gb % 2 == 0 {{ boxed {{ post {} ++ list.nth([1, 2], 5) ++ {}; }} }}\n",
            concat_operand(rng, &[], true),
            concat_operand(rng, &[], true)
        ));
    }
    out
}

/// A whole program: the plain statements plus `remember`, tap handlers
/// (global, local, string and view-state writes, prim calls, push/pop),
/// a parameterized second page, a pure string function and a live
/// example built from `++` chains.
fn arb_walk_program(rng: &mut Rng) -> String {
    let ga = rng.below(50);
    let gb = rng.below(50);
    let label = concat_chain(rng, &["x"], false);
    let example = concat_chain(rng, &[], true);
    let expect = concat_chain(rng, &[], true);
    let init = init_stmts(rng);
    let render = render_stmts_plain(rng);
    let render_concat = render_stmts_concat(rng);
    let hits0 = rng.below(5);
    let h1 = num_expr(rng, &[], 2);
    let h2 = num_expr(rng, &[], 2);
    let h3 = concat_chain(rng, &["k"], true);
    format!(
        "global ga : number = {ga}
         global gb : number = {gb}
         global gs : string = \"s\"
         global gt : string = \"t\"
         fun inc(x: number): number pure {{ x + 1 }}
         fun label(x: number): string pure {{ {label} }}
         example joined = {example} expect {expect}
         page start() {{
             init {{ {init} }}
             render {{
                 {render}
                 boxed {{
                     remember hits : number = {hits0};
                     post \"hits \" ++ hits;
                     on tap {{ ga := ga + math.abs({h1}); hits := hits + 1; }}
                 }}
                 boxed {{
                     post \"go\";
                     on tap {{ push detail(gb + math.abs({h2})); }}
                 }}
                 let k = ga;
                 boxed {{
                     post \"k \" ++ k;
                     on tap {{ k := k + 1; gb := gb + k; }}
                 }}
                 boxed {{
                     post \"gt \" ++ gt;
                     on tap {{ gt := {h3}; }}
                 }}
                 {render_concat}
             }}
         }}
         page detail(n : number) {{
             render {{
                 boxed {{ post \"detail \" ++ n; on tap {{ pop; }} }}
                 boxed {{ post \"bump\"; on tap {{ gb := gb + inc(n); }} }}
             }}
         }}"
    )
}

// ---------------------------------------------------------------------
// Comparison helpers
// ---------------------------------------------------------------------

/// Byte-level comparison key: generated programs are free to overflow
/// to `inf`/`NaN` over a long walk, and `f64`'s `PartialEq` would call
/// two byte-identical NaN frames unequal — so comparisons go through
/// the `Debug` rendering.
fn dbg<T: std::fmt::Debug>(t: T) -> String {
    format!("{t:?}")
}

/// Bind a page's parameters from its argument tuple (as the system does).
fn page_bindings(params: &[alive_core::expr::ParamSig], arg: &Value) -> Vec<(Name, Value)> {
    match arg {
        Value::Tuple(vs) if vs.len() == params.len() => params
            .iter()
            .zip(vs.iter())
            .map(|(p, v)| (p.name.clone(), v.clone()))
            .collect(),
        _ => Vec::new(),
    }
}

// ---------------------------------------------------------------------
// The reference transition
// ---------------------------------------------------------------------

/// The outcome of the transition `System::step` takes next, as the
/// small-step reference machine computes it from the system's state.
struct Expected {
    kind: StepKind,
    error: Option<RuntimeError>,
    store: Store,
    page_stack: Vec<(Name, Value)>,
    queue: EventQueue,
    widgets: WidgetStore,
    /// The rendered tree of a successful RENDER.
    root: Option<BoxNode>,
}

/// Run the next Fig. 9 transition on the reference machine, from the
/// pre-state `system` exposes: STARTUP, THUNK / PUSH / POP (rolled back
/// on error), or RENDER (view state rolled back on error).
fn reference_step(system: &System, faults: Option<&mut (dyn FaultInjector + 'static)>) -> Expected {
    let program = system.program();
    let version = system.version();
    let mut expected = Expected {
        kind: StepKind::Stable,
        error: None,
        store: system.store().clone(),
        page_stack: system.page_stack().to_vec(),
        queue: system.queue().clone(),
        widgets: system.widgets().clone(),
        root: None,
    };
    let e = &mut expected;
    if e.page_stack.is_empty() && e.queue.is_empty() {
        e.queue
            .enqueue(Event::Push(Arc::from(START_PAGE), Value::unit()));
        e.kind = StepKind::Startup;
        return expected;
    }
    if let Some(event) = e.queue.dequeue() {
        let checkpoint = (
            e.store.clone(),
            e.page_stack.clone(),
            e.queue.clone(),
            e.widgets.clone(),
        );
        let host = Host {
            queue: Some(&mut e.queue),
            widgets: Some(&mut e.widgets),
            faults,
            version,
        };
        let result = match event {
            Event::Exec(thunk, args) => {
                e.kind = StepKind::Thunk;
                smallstep::apply(program, &mut e.store, host, REFERENCE_FUEL, &thunk, &args)
                    .map(|_| ())
            }
            Event::Push(page, arg) => {
                e.kind = StepKind::Push;
                let result = match program.page(&page) {
                    None => Err(RuntimeError::UnknownPage(page.clone())),
                    Some(def) => smallstep::run(
                        program,
                        &mut e.store,
                        Effect::State,
                        host,
                        REFERENCE_FUEL,
                        &page_bindings(&def.params, &arg),
                        &def.init,
                    )
                    .map(|_| ()),
                };
                if result.is_ok() {
                    e.page_stack.push((page, arg));
                }
                result
            }
            Event::Pop => {
                e.kind = StepKind::Pop;
                e.page_stack.pop();
                Ok(())
            }
        };
        if let Err(error) = result {
            (e.store, e.page_stack, e.queue, e.widgets) = checkpoint;
            e.error = Some(error);
        }
        return expected;
    }
    if let (Display::Invalid, Some((page, arg))) = (system.display(), e.page_stack.last()) {
        e.kind = StepKind::Render;
        let checkpoint = e.widgets.clone();
        e.widgets.begin_render();
        let def = program.page(page).expect("pages on the stack exist");
        let mut store = e.store.clone();
        let host = Host {
            queue: None,
            widgets: Some(&mut e.widgets),
            faults,
            version,
        };
        match smallstep::run(
            program,
            &mut store,
            Effect::Render,
            host,
            REFERENCE_FUEL,
            &page_bindings(&def.params, arg),
            &def.render,
        ) {
            Ok(out) => e.root = out.root,
            Err(error) => {
                e.widgets = checkpoint;
                e.error = Some(error);
            }
        }
    }
    expected
}

/// One `System::step`, checked against the reference transition.
fn checked_step(
    system: &mut System,
    faults: Option<&mut (dyn FaultInjector + 'static)>,
    at: usize,
) -> Result<Result<StepKind, Fault>, String> {
    let expected = reference_step(system, faults);
    let got = system.step();
    match (&got, &expected.error) {
        (Ok(kind), None) => prop_assert_eq!(*kind, expected.kind, "transition at step {}", at),
        (Err(fault), Some(error)) => {
            prop_assert_eq!(dbg(&fault.error), dbg(error), "fault at step {}", at)
        }
        _ => {
            return Err(format!(
                "outcome at step {at}: vm {got:?}, reference error {:?}",
                expected.error
            ))
        }
    }
    prop_assert_eq!(
        dbg(system.store()),
        dbg(&expected.store),
        "stores at step {}",
        at
    );
    prop_assert_eq!(
        dbg(system.queue()),
        dbg(&expected.queue),
        "queues at step {}",
        at
    );
    prop_assert_eq!(
        dbg(system.page_stack()),
        dbg(&expected.page_stack),
        "page stacks at step {}",
        at
    );
    prop_assert_eq!(
        dbg(system.widgets()),
        dbg(&expected.widgets),
        "view state at step {}",
        at
    );
    if let Some(root) = &expected.root {
        let frame = system.display().content().map(BoxNode::without_provenance);
        prop_assert_eq!(dbg(frame), dbg(Some(root)), "frame bytes at step {}", at);
    }
    Ok(got)
}

/// `System::run_to_stable`, every transition checked; the lockstep
/// fault plan (if any) replays the system's injection schedule into the
/// reference.
fn checked_run_to_stable(
    system: &mut System,
    plan: Option<&std::sync::Mutex<FaultPlan>>,
    at: usize,
) -> Result<(), String> {
    for _ in 0..system.config().max_transitions {
        let mut guard = plan.map(lock_plan);
        let faults = guard
            .as_deref_mut()
            .map(|p| p as &mut (dyn FaultInjector + 'static));
        match checked_step(system, faults, at)? {
            Ok(StepKind::Stable) | Err(_) => return Ok(()),
            Ok(_) => {}
        }
    }
    system.contain_overflow();
    Ok(())
}

/// Drive the system through one action plus its cascade, checking every
/// transition. `width` is the tap fan (how many top-level boxes the
/// random taps may address — misses included on purpose).
fn walk_step(
    rng: &mut Rng,
    system: &mut System,
    plan: Option<&std::sync::Mutex<FaultPlan>>,
    step: usize,
    width: usize,
) -> Result<(), String> {
    match rng.below(6) {
        0..=3 => {
            let _ = system.tap(&[rng.below(width)]);
        }
        4 => system.back(),
        _ => {} // plain re-render below
    }
    // A fault stops a cascade; the second pass settles what is left.
    checked_run_to_stable(system, plan, step)?;
    checked_run_to_stable(system, plan, step)
}

/// Every example probe of `program` — body and `expect` clause — must
/// evaluate to the same value (or error) on the VM and the reference
/// machine against `store`.
fn check_examples(program: &Program, store: &Store, version: u64) -> Result<(), String> {
    let vmp = program.vm().expect("checked programs compile to bytecode");
    let mut scratch = vm::Scratch::new();
    for (index, def) in program.examples().iter().enumerate() {
        for (expect, expr) in [(false, Some(&def.body)), (true, def.expect.as_ref())] {
            let Some(expr) = expr else { continue };
            let vm_run = vm::run_example(&vmp, &mut scratch, store, version, FUEL, index, expect)
                .expect("example slot exists");
            let reference = smallstep::eval_pure(program, &mut store.clone(), REFERENCE_FUEL, expr)
                .map(|out| out.value);
            prop_assert_eq!(
                dbg(&vm_run.result),
                dbg(&reference),
                "probe `{}` (expect={}) diverged",
                def.name,
                expect
            );
        }
    }
    Ok(())
}

fn lock_plan(plan: &std::sync::Mutex<FaultPlan>) -> std::sync::MutexGuard<'_, FaultPlan> {
    plan.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

// ---------------------------------------------------------------------
// 1. Body-level agreement
// ---------------------------------------------------------------------

#[test]
fn vm_and_smallstep_agree_on_generated_bodies() {
    prop::check(
        "vm_and_smallstep_agree_on_generated_bodies",
        prop::Config::with_cases(96),
        |rng| NoShrink(arb_walk_program(rng)),
        |src: &NoShrink<String>| {
            let program = compile(&src.0).expect("generated programs are well-typed");
            let page = program.page("start").expect("page").clone();
            let vmp = program
                .vm()
                .expect("generated programs compile to bytecode");
            let mut scratch = vm::Scratch::new();

            // init under both machines.
            let mut ss_store = Store::new();
            let mut ss_queue = EventQueue::new();
            let mut ss_widgets = WidgetStore::new();
            let host = Host {
                queue: Some(&mut ss_queue),
                widgets: Some(&mut ss_widgets),
                ..Host::default()
            };
            let ss = smallstep::run(
                &program,
                &mut ss_store,
                Effect::State,
                host,
                REFERENCE_FUEL,
                &[],
                &page.init,
            )
            .expect("small-step init");
            let mut vm_store = Store::new();
            let mut vm_queue = EventQueue::new();
            let mut vm_widgets = WidgetStore::new();
            let run = vm::transition_page_init(
                &vmp,
                &mut scratch,
                &mut vm_store,
                &mut vm_queue,
                0,
                FUEL,
                "start",
                &[],
                Some(&mut vm_widgets),
                None,
            );
            let vm_value = run.result.expect("vm init");

            prop_assert_eq!(dbg(&vm_value), dbg(&ss.value), "init values");
            prop_assert_eq!(dbg(&vm_store), dbg(&ss_store), "stores");
            prop_assert_eq!(&vm_queue, &ss_queue, "queues");
            // Prim accounting must agree exactly — fault injection
            // counts prim calls, so this is the fault-parity invariant.
            prop_assert_eq!(run.cost.prim, ss.prim, "prim accounting");
            prop_assert!(run.stats.instructions > 0, "vm actually executed");

            // render under both, from the agreed store.
            let host = Host {
                widgets: Some(&mut ss_widgets),
                ..Host::default()
            };
            let ss_render = smallstep::run(
                &program,
                &mut ss_store,
                Effect::Render,
                host,
                REFERENCE_FUEL,
                &[],
                &page.render,
            );
            let render_run = vm::transition_page_render(
                &vmp,
                &mut scratch,
                &vm_store,
                0,
                FUEL,
                "start",
                &[],
                Some(&mut vm_widgets),
                None,
            );
            match (render_run.result, ss_render) {
                (Ok(vm_root), Ok(ss_render)) => {
                    let ss_root = ss_render.root.expect("box content");
                    // Byte identity — handler closures and their
                    // captured environments included.
                    prop_assert_eq!(
                        dbg(vm_root.without_provenance()),
                        dbg(&ss_root),
                        "frame bytes"
                    );
                    prop_assert_eq!(
                        render_run.cost.prim,
                        ss_render.prim,
                        "render prim accounting"
                    );
                }
                // A faulting `++` operand: the same error on both.
                (Err(vm_error), Err(ss_error)) => {
                    prop_assert_eq!(dbg(&vm_error), dbg(&ss_error), "render faults")
                }
                (vm_out, ss_out) => {
                    return Err(format!(
                        "render outcomes: vm {:?}, reference {:?}",
                        vm_out.map(|_| ()),
                        ss_out.map(|_| ())
                    ))
                }
            }
            prop_assert_eq!(dbg(&vm_widgets), dbg(&ss_widgets), "view state");
            check_examples(&program, &vm_store, 0)
        },
    );
}

/// The checker's frame bound and the compiler agree on a 300-operand
/// `++` chain — three parenthesised 100-operand runs, which the parser's
/// nesting budget admits and the compiler fuses into one instruction:
/// the program checks, compiles (the compiler's debug assertion holds
/// its frame to the checker's bound), and renders the reference's text.
#[test]
fn checker_and_compiler_agree_on_a_300_operand_chain() {
    let run = |group: usize| {
        (0..100)
            .map(|i| match i % 4 {
                0 => format!("\"s{group}.{i}\""),
                1 => format!("{i}"),
                2 => "ga".to_string(),
                _ => "(ga > 2)".to_string(),
            })
            .collect::<Vec<_>>()
            .join(" ++ ")
    };
    let chain = format!("({}) ++ ({}) ++ ({})", run(0), run(1), run(2));
    let src = format!(
        "global ga : number = 3
         page start() {{ render {{ boxed {{ post {chain}; }} }} }}"
    );
    // The reference machine recurses per term level: give it the
    // evaluator's stack.
    std::thread::Builder::new()
        .stack_size(vm::EVAL_STACK_BYTES)
        .spawn(move || {
            let program = compile(&src).expect("the checker accepts a 300-operand chain");
            let vmp = program
                .vm()
                .expect("the compiler accepts what the checker did");
            let page = program.page("start").expect("page");
            let mut scratch = vm::Scratch::new();
            let store = Store::new();
            let run = vm::transition_page_render(
                &vmp,
                &mut scratch,
                &store,
                0,
                FUEL,
                "start",
                &[],
                None,
                None,
            );
            let vm_root = run.result.expect("vm render");
            let reference = smallstep::run(
                &program,
                &mut store.clone(),
                Effect::Render,
                Host::default(),
                REFERENCE_FUEL,
                &[],
                &page.render,
            )
            .expect("reference render");
            assert_eq!(
                dbg(vm_root.without_provenance()),
                dbg(reference.root.expect("box content"))
            );
            assert!(dbg(&vm_root).contains("s2.96973true"), "{vm_root:?}");
        })
        .expect("spawn")
        .join()
        .expect("300-operand chain agrees");
}

// ---------------------------------------------------------------------
// 2. System-level 256-step walk
// ---------------------------------------------------------------------

#[test]
fn vm_system_walk_matches_the_smallstep_reference() {
    prop::check(
        "vm_system_walk_matches_the_smallstep_reference",
        prop::Config::with_cases(24),
        |rng| NoShrink((arb_walk_program(rng), rng.fork())),
        |case: &NoShrink<(String, Rng)>| {
            let (src, walk_rng) = &case.0;
            let mut rng = walk_rng.clone();
            let program = compile(src).expect("generated programs are well-typed");
            let config = SystemConfig {
                fuel: 200_000,
                max_transitions: 500,
            };
            let mut system = System::with_config(program, config);
            for step in 0..256 {
                walk_step(&mut rng, &mut system, None, step, 7)?;
            }
            let stats = system.vm_stats();
            prop_assert!(stats.runs > 0, "the VM actually ran: {:?}", stats);
            Ok(())
        },
    );
}

// ---------------------------------------------------------------------
// 3. Fault injection: identical faults, identical rollbacks
// ---------------------------------------------------------------------

#[test]
fn injected_faults_roll_back_identically_under_vm_and_reference() {
    prop::check(
        "injected_faults_roll_back_identically_under_vm_and_reference",
        prop::Config::with_cases(24),
        |rng| {
            // The fault schedule is part of the case, so a replayed seed
            // reproduces the injections exactly. Prim-call schedules
            // only: fuel throttling is machine-visible (the VM ticks per
            // instruction, the reference per rule).
            let fail_at: Vec<u64> = (0..3).map(|_| rng.below(40) as u64 + 1).collect();
            NoShrink((arb_walk_program(rng), rng.fork(), fail_at))
        },
        |case: &NoShrink<(String, Rng, Vec<u64>)>| {
            let (src, walk_rng, fail_at) = &case.0;
            let mut rng = walk_rng.clone();
            let program = compile(src).expect("generated programs are well-typed");
            let config = SystemConfig {
                fuel: 200_000,
                max_transitions: 500,
            };
            let mut system = System::with_config(program, config);
            // One plan for the system, one replayed into the reference
            // in lockstep, built from the same schedule.
            let make_plan = || {
                let mut plan = FaultPlan::new();
                for &n in fail_at {
                    plan = plan.fail_prim(Prim::MathAbs, n);
                }
                plan.shared()
            };
            let vm_plan = make_plan();
            let reference_plan = make_plan();
            system.set_fault_injector(vm_plan.clone());

            for step in 0..64 {
                walk_step(&mut rng, &mut system, Some(&reference_plan), step, 7)?;
            }

            let (vp, rp) = (
                lock_plan(&vm_plan).injected(),
                lock_plan(&reference_plan).injected(),
            );
            prop_assert_eq!(vp, rp, "identical injection counts");
            let (vc, rc) = (
                lock_plan(&vm_plan).prim_calls(),
                lock_plan(&reference_plan).prim_calls(),
            );
            prop_assert_eq!(vc, rc, "identical prim-call counts");
            Ok(())
        },
    );
}

// ---------------------------------------------------------------------
// 4. Corpus: every scenario program, walked differentially
// ---------------------------------------------------------------------

/// Every program of the scenario corpus — 5 kinds × 4 sizes — runs on
/// the smallstep reference (first frame included) and drives a VM
/// system through a seeded walk with every transition checked; the
/// example probes must agree value for value on the walked store.
/// Seed-replayable per program: a failure prints the seed and
/// `ALIVE_TESTKIT_SEED=<seed>` reruns the identical walk.
#[test]
fn vm_system_walk_matches_smallstep_on_every_corpus_program() {
    for entry in alive_corpus::corpus() {
        let name = entry.spec.name();
        // Tap fan sized to the program: header + rows + trailing
        // buttons, plus deliberate misses past the end.
        let width = entry.spec.size.rows() + 4;
        let program = compile(&entry.source)
            .unwrap_or_else(|e| panic!("{name}: corpus programs are well-typed: {e}"));
        prop::check(
            &format!("corpus_walk_{name}"),
            prop::Config::with_cases(2),
            |rng| NoShrink(rng.fork()),
            |case: &NoShrink<Rng>| {
                let mut rng = case.0.clone();
                let config = SystemConfig {
                    fuel: 2_000_000,
                    max_transitions: 500,
                };
                let mut system = System::with_config(program.clone(), config);
                for step in 0..48 {
                    walk_step(&mut rng, &mut system, None, step, width)?;
                }
                prop_assert!(system.vm_stats().runs > 0, "the VM actually ran");

                // Example probes: VM vs reference values against the
                // walked (not initial) store.
                check_examples(&program, system.store(), system.version())
            },
        );
    }
}
