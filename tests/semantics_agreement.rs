//! E7 (correctness half) — the faithful small-step substitution machine
//! (Fig. 8) and the production bytecode VM agree on real programs: same
//! values, same stores, same box trees, same enqueued events. (The
//! performance half is `benches/eval_ablation.rs`.)

use its_alive::core::event::EventQueue;
use its_alive::core::store::Store;
use its_alive::core::{compile, Program};
use its_alive::core::{smallstep, vm};

const FUEL: u64 = 50_000_000;

fn compiled(src: &str) -> Program {
    compile(src).expect("compiles")
}

/// Both machines run the start page's init then render; everything
/// observable must agree.
fn assert_machines_agree(src: &str) {
    let p = compiled(src);
    let page = p.page("start").expect("start page");

    // Small-step: init in state mode, then render.
    let mut ss_store = Store::new();
    let mut ss_queue = EventQueue::new();
    let ss_init = smallstep::eval_state(&p, &mut ss_store, &mut ss_queue, FUEL, &page.init)
        .expect("small-step init");
    let ss_render =
        smallstep::eval_render(&p, &mut ss_store, FUEL, &page.render).expect("small-step render");

    // The bytecode VM.
    let vmp = p.vm().expect("compiles to bytecode");
    let mut scratch = vm::Scratch::new();
    let mut vm_store = Store::new();
    let mut vm_queue = EventQueue::new();
    let vm_init = vm::transition_page_init(
        &vmp,
        &mut scratch,
        &mut vm_store,
        &mut vm_queue,
        0,
        FUEL,
        "start",
        &[],
        None,
        None,
    )
    .result
    .expect("vm init");
    let vm_root = vm::transition_page_render(
        &vmp,
        &mut scratch,
        &vm_store,
        0,
        FUEL,
        "start",
        &[],
        None,
        None,
    )
    .result
    .expect("vm render");

    assert_eq!(ss_init.value, vm_init, "init values agree");
    assert_eq!(ss_store, vm_store, "stores agree");
    assert_eq!(ss_queue, vm_queue, "queues agree");
    assert_eq!(
        format!("{:?}", ss_render.root.expect("render produces content")),
        format!("{:?}", vm_root.without_provenance()),
        "box trees agree, closures included"
    );
}

#[test]
fn machines_agree_on_arithmetic_and_control_flow() {
    assert_machines_agree(
        "global total : number = 0
         fun tri(n: number): number pure {
             if n <= 0 { 0 } else { n + tri(n - 1) }
         }
         page start() {
             init {
                 total := tri(20);
                 for i in 0 .. 5 { total := total + i * i; }
             }
             render { boxed { post total; } }
         }",
    );
}

#[test]
fn machines_agree_on_list_workloads() {
    assert_machines_agree(
        "global xs : list number = list.range(0, 10)
         global sum : number = 0
         page start() {
             init {
                 foreach x in xs { sum := sum + x; }
                 xs := list.reverse(list.append(xs, 99));
             }
             render {
                 foreach x in xs {
                     boxed { post x; }
                 }
                 boxed { post \"sum \" ++ sum; }
             }
         }",
    );
}

#[test]
fn machines_agree_on_higher_order_render_helpers() {
    assert_machines_agree(
        "global greeting : string = \"hi\"
         fun row(label: string, value: number): () render {
             boxed {
                 box.horizontal := true;
                 boxed { post label; }
                 boxed { post value; }
             }
         }
         page start() {
             init { greeting := greeting ++ \"!\"; }
             render {
                 boxed {
                     post greeting;
                     box.margin := 2;
                 }
                 row(\"a\", 1);
                 row(\"b\", 2);
                 let scale = fn(n: number) -> n * 10;
                 row(\"c\", scale(3));
             }
         }",
    );
}

#[test]
fn machines_agree_on_navigation_events() {
    assert_machines_agree(
        "global route : number = 2
         page start() {
             init {
                 if route == 2 { push other(route); } else { pop; }
             }
             render { boxed { post \"start\"; } }
         }
         page other(n: number) {
             init { }
             render { boxed { post n; } }
         }",
    );
}

#[test]
fn machines_agree_on_the_mortgage_math() {
    // The paper's payment math.
    assert_machines_agree(
        "global term : number = 30
         global apr : number = 5
         global balance : number = 185000
         global year : number = 0
         fun monthly_payment(principal: number): number pure {
             let r = apr / 1200;
             let n = term * 12;
             principal * r / (1 - math.pow(1 + r, -n))
         }
         page start() {
             init { }
             render {
                 boxed { post \"payment \" ++ fmt.fixed(monthly_payment(balance), 2); }
             }
         }",
    );
}

#[test]
fn machines_agree_on_local_state_and_handler_closures() {
    // Mutable locals (the amortization loop) and tap handlers that
    // capture loop variables and locals: the frames compare byte for
    // byte, so the closure values must be identical too.
    assert_machines_agree(
        "global balance : number = 1000
         global picked : number = 0
         fun amortize(principal: number, years: number): number pure {
             let left = principal;
             let y = 0;
             while y < years { left := left - left / 10; y := y + 1; }
             left
         }
         page start() {
             init { balance := amortize(balance, 3); }
             render {
                 let total = 0;
                 for i in 0 .. 3 {
                     total := total + i;
                     let label = \"row \" ++ i;
                     boxed {
                         post label ++ \" of \" ++ total;
                         on tap { picked := i + total; }
                     }
                 }
                 boxed { post balance; }
             }
         }",
    );
}

#[test]
fn small_step_counts_modes_faithfully() {
    let p = compiled(
        "global g : number = 0
         page start() {
             init { g := 1; g := 2; push start(); }
             render { boxed { post g; box.margin := 1; } }
         }",
    );
    let page = p.page("start").expect("page");
    let mut store = Store::new();
    let mut queue = EventQueue::new();
    let init = smallstep::eval_state(&p, &mut store, &mut queue, FUEL, &page.init).expect("runs");
    // Exactly: 2 assigns + 1 push are state steps; the rest are pure.
    assert_eq!(init.steps.state, 3);
    assert_eq!(init.steps.render, 0);
    let render = smallstep::eval_render(&p, &mut store, FUEL, &page.render).expect("runs");
    // boxed + post + attr are render steps.
    assert_eq!(render.steps.render, 3);
    assert_eq!(render.steps.state, 0);
}
