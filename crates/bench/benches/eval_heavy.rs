//! E-eval — the bytecode VM on eval-heavy workloads: a 10 000-item
//! collection loop, deep call graphs (recursive fib), deep local chains
//! (resolved to frame slots at compile time), a dense render, and a
//! render of feed rows shaped like the scenario corpus's.
//!
//! Per workload (page init + render) the bench reports the wall-clock
//! median, the VM instructions executed, and the heap allocations of
//! one transition pair, counted through a counting global allocator.
//! Instructions and allocations are deterministic; CI gates both
//! against per-workload ceilings, and the time is a recorded baseline.
//! Before measuring, every workload is run once on the small-step
//! reference semantics, outside the timing and allocation counting, and
//! the VM's value, store and frame must equal the reference's
//! (`byte_identity` in the report). Results go to `BENCH_eval_heavy.json`.

use alive_core::event::EventQueue;
use alive_core::smallstep::{self, Host};
use alive_core::store::Store;
use alive_core::vm::{self, Scratch};
use alive_core::widget::WidgetStore;
use alive_core::{compile, Effect};
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

// ---------------------------------------------------------------------
// Counting allocator
// ---------------------------------------------------------------------

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

// SAFETY: delegates every operation to the system allocator unchanged;
// the counters are relaxed atomics with no effect on allocation.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocation calls and bytes during `f`.
fn count_allocs<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    let calls0 = ALLOC_CALLS.load(Ordering::Relaxed);
    let bytes0 = ALLOC_BYTES.load(Ordering::Relaxed);
    let r = f();
    (
        r,
        ALLOC_CALLS.load(Ordering::Relaxed) - calls0,
        ALLOC_BYTES.load(Ordering::Relaxed) - bytes0,
    )
}

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

/// The 10k-item collection loop: builds and folds over collections in
/// the init body, with helper calls in the hot loop.
fn collection_src(items: usize) -> String {
    format!(
        "global total : number = 0
         global checksum : number = 0
         fun weight(x: number): number pure {{ x * 3 + 1 }}
         page start() {{
             init {{
                 let acc = 0;
                 for i in 0 .. {items} {{
                     acc := acc + weight(i);
                 }}
                 foreach v in [1, 2, 3, 4, 5, 6, 7, 8] {{
                     acc := acc + v * v;
                 }}
                 total := acc;
                 checksum := total - {items};
             }}
             render {{ boxed {{ post \"total \" ++ total; }} }}
         }}"
    )
}

/// Deep call graph: naive recursive fib — every call builds a frame.
fn fib_src(n: usize) -> String {
    format!(
        "global out : number = 0
         fun fib(n: number): number pure {{
             if n < 2 {{ n }} else {{ fib(n - 1) + fib(n - 2) }}
         }}
         page start() {{
             init {{ out := fib({n}); }}
             render {{ boxed {{ post out; }} }}
         }}"
    )
}

/// Deep local chains: every reference reaches back to the *earliest*
/// bindings, which the VM reads from compile-time frame slots.
fn deep_locals_src(depth: usize, calls: usize) -> String {
    let mut body = String::from("fun deep(x: number): number pure {\n    let a0 = x + 1;\n");
    for i in 1..depth {
        body.push_str(&format!("    let a{i} = a{} + a0 + x;\n", i - 1));
    }
    body.push_str(&format!("    a{} + a0 + x\n}}\n", depth - 1));
    body.push_str(&format!(
        "global out : number = 0
         page start() {{
             init {{
                 let s = 0;
                 for i in 0 .. {calls} {{ s := s + deep(i); }}
                 out := s;
             }}
             render {{ boxed {{ post out; }} }}
         }}"
    ));
    body
}

/// Dense render: many boxes, posts, and attributes per frame.
fn render_src(boxes: usize) -> String {
    format!(
        "global base : number = 7
         page start() {{
             init {{ }}
             render {{
                 for i in 0 .. {boxes} {{
                     boxed {{
                         post \"item \" ++ (i * base);
                         box.margin := 1;
                     }}
                 }}
             }}
         }}"
    )
}

/// Feed rows shaped like the corpus feed's: each row posts a 3-operand
/// `++` chain over a pure function call and a global list read, and
/// carries an `on tap` closure.
fn feed_src(rows: usize) -> String {
    format!(
        "global scores : list number = []
         global hot : number = 0
         fun rank(v: number): number pure {{ math.max(v, hot) }}
         page start() {{
             init {{ scores := list.range(0, {rows}); }}
             render {{
                 for i in 0 .. {rows} {{
                     boxed {{
                         post \"story \" ++ i ++ rank(list.nth(scores, i));
                         on tap {{ hot := list.nth(scores, i); }}
                     }}
                 }}
             }}
         }}"
    )
}

// ---------------------------------------------------------------------
// Measurement
// ---------------------------------------------------------------------

struct Workload {
    name: String,
    vm_ns: f64,
    vm_allocs: u64,
    vm_alloc_bytes: u64,
    vm_instructions: u64,
}

impl Workload {
    fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"name\":\"{}\",\"vm_ns\":{:.1},\"vm_allocs\":{},",
                "\"vm_alloc_bytes\":{},\"vm_instructions\":{},\"byte_identity\":true}}"
            ),
            self.name, self.vm_ns, self.vm_allocs, self.vm_alloc_bytes, self.vm_instructions,
        )
    }
}

/// Median wall time of `runs` repetitions of `f`, in ns.
fn median_ns(runs: usize, mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..runs)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

/// Run one workload on the VM: the reference check first, then
/// instruction and allocation counts, then timing.
fn measure(name: &str, src: &str, runs: usize) -> Workload {
    let program = compile(src).expect("workload compiles");
    let page = program.page("start").expect("page");
    let vmp = program.vm().expect("workloads compile to bytecode");
    let mut scratch = Scratch::new();
    const FUEL: u64 = u64::MAX;

    let run_vm = |store: &mut Store, scratch: &mut Scratch| {
        let mut queue = EventQueue::new();
        let mut widgets = WidgetStore::new();
        let init_run = vm::transition_page_init(
            &vmp,
            scratch,
            store,
            &mut queue,
            0,
            FUEL,
            "start",
            &[],
            None,
            None,
        );
        let v = init_run.result.expect("vm init");
        let render_run = vm::transition_page_render(
            &vmp,
            scratch,
            store,
            0,
            FUEL,
            "start",
            &[],
            None,
            Some(&mut widgets),
            None,
        );
        let root = render_run.result.expect("vm render");
        (
            v,
            root,
            init_run.stats.instructions + render_run.stats.instructions,
        )
    };

    // Reference check: same value, same store, same frame bytes.
    let mut ss_store = Store::new();
    let mut ss_queue = EventQueue::new();
    let mut ss_widgets = WidgetStore::new();
    let host = Host {
        queue: Some(&mut ss_queue),
        widgets: Some(&mut ss_widgets),
        ..Host::default()
    };
    let ss_value = smallstep::run(
        &program,
        &mut ss_store,
        Effect::State,
        host,
        FUEL,
        &[],
        &page.init,
    )
    .expect("small-step init")
    .value;
    let host = Host {
        widgets: Some(&mut ss_widgets),
        ..Host::default()
    };
    let ss_root = smallstep::run(
        &program,
        &mut ss_store,
        Effect::Render,
        host,
        FUEL,
        &[],
        &page.render,
    )
    .expect("small-step render")
    .root
    .expect("render builds box content");
    let mut vm_store = Store::new();
    let (vm_value, vm_root, vm_instructions) = run_vm(&mut vm_store, &mut scratch);
    assert_eq!(vm_value, ss_value, "{name}: VM/reference values diverge");
    assert_eq!(
        format!("{:?}", vm_store),
        format!("{:?}", ss_store),
        "{name}: VM/reference stores diverge"
    );
    assert_eq!(
        format!("{:?}", vm_root.without_provenance()),
        format!("{ss_root:?}"),
        "{name}: VM/reference frames diverge"
    );

    // The VM run above warmed the scratch pool; count one full
    // transition pair.
    let (_, vm_allocs, vm_alloc_bytes) = count_allocs(|| {
        let mut store = Store::new();
        black_box(run_vm(&mut store, &mut scratch));
    });
    let vm_ns = median_ns(runs, || {
        let mut store = Store::new();
        black_box(run_vm(&mut store, &mut scratch));
    });

    let w = Workload {
        name: name.to_string(),
        vm_ns,
        vm_allocs,
        vm_alloc_bytes,
        vm_instructions,
    };
    eprintln!(
        "{:<24} vm {:>12.0} ns  {:>8} instructions  {} allocs",
        w.name, w.vm_ns, w.vm_instructions, w.vm_allocs,
    );
    w
}

fn main() {
    // Smoke mode (under `cargo test --bench`) uses fewer repetitions;
    // `cargo bench` / --bench measures properly. Either way the report
    // runs.
    let full = std::env::args().any(|a| a == "--bench")
        || std::env::var("ALIVE_BENCH_FULL").is_ok_and(|v| v == "1");
    let runs = if full { 15 } else { 5 };

    let items: usize = std::env::var("ALIVE_BENCH_EVAL_ITEMS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(10_000);

    let workloads = [
        measure("collection10k", &collection_src(items), runs),
        measure("fib18", &fib_src(18), runs),
        measure("deep_locals128", &deep_locals_src(128, 2_000), runs),
        measure("render1k", &render_src(1_000), runs),
        measure("feed_rows1k", &feed_src(1_000), runs),
    ];

    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let report = format!(
        "{{\"group\":\"eval_heavy\",\"mode\":\"{}\",\"items\":{},\"cpus\":{},\"workloads\":[{}]}}",
        if full { "full" } else { "smoke" },
        items,
        cpus,
        workloads
            .iter()
            .map(Workload::to_json)
            .collect::<Vec<_>>()
            .join(",")
    );
    println!("{report}");
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_eval_heavy.json");
    if let Err(e) = std::fs::write(&out, &report) {
        eprintln!("cannot write {}: {e}", out.display());
        std::process::exit(1);
    }
    eprintln!("report written to {}", out.display());
}
