//! E7 — ablation: the paper-faithful small-step substitution machine
//! (Fig. 8, the reference semantics) vs the production bytecode VM, on
//! a pure workload (recursive fib, computed by a page init) and a
//! render workload (the gallery page). Measures the cost of semantic
//! fidelity; correctness agreement is tested in
//! `tests/semantics_agreement.rs` and `crates/core/tests/vm_differential.rs`.

use alive_core::event::EventQueue;
use alive_core::store::Store;
use alive_core::{compile, smallstep, vm};
use alive_testkit::Bench;
use std::hint::black_box;

fn main() {
    let mut bench = Bench::from_args("eval_ablation");

    // Pure workload: fib(n), stored by the start page's init.
    let fib_src = "global out : number = 0
        fun fib(n: number): number pure {
            if n < 2 { n } else { fib(n - 1) + fib(n - 2) }
        }
        page start() { init { out := fib(14); } render { } }";
    let p = compile(fib_src).expect("compiles");
    let vmp = p.vm().expect("compiles to bytecode");
    let init = p.page("start").expect("page").init.clone();
    let mut scratch = vm::Scratch::new();
    bench.bench("vm/fib14", || {
        let (mut store, mut queue) = (Store::new(), EventQueue::new());
        let run = vm::transition_page_init(
            &vmp,
            &mut scratch,
            &mut store,
            &mut queue,
            0,
            u64::MAX,
            "start",
            &[],
            None,
            None,
        );
        black_box(run.result.expect("runs"))
    });
    bench.bench("smallstep/fib14", || {
        let (mut store, mut queue) = (Store::new(), EventQueue::new());
        black_box(smallstep::eval_state(&p, &mut store, &mut queue, u64::MAX, &init).expect("runs"))
    });

    // Render workload: one full page render of the dense gallery.
    for n in [10usize, 50] {
        let p = compile(&alive_apps::gallery::gallery_src(n)).expect("compiles");
        let vmp = p.vm().expect("compiles to bytecode");
        let page = p.page("start").expect("page");
        let mut store = Store::new();
        let mut queue = EventQueue::new();
        smallstep::eval_state(&p, &mut store, &mut queue, u64::MAX, &page.init).expect("init");
        let render = page.render.clone();
        bench.bench(&format!("vm_render/{n}"), || {
            let run = vm::transition_page_render(
                &vmp,
                &mut scratch,
                &store,
                0,
                u64::MAX,
                "start",
                &[],
                None,
                None,
            );
            black_box(run.result.expect("runs"))
        });
        bench.bench(&format!("smallstep_render/{n}"), || {
            let mut scratch = store.clone();
            black_box(smallstep::eval_render(&p, &mut scratch, u64::MAX, &render).expect("runs"))
        });
    }
    bench.finish();
}
