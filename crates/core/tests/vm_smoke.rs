//! Quick smoke: the VM runs every transition and its frame matches the
//! small-step reference machine.
use alive_core::event::EventQueue;
use alive_core::smallstep;
use alive_core::store::Store;
use alive_core::system::{System, SystemConfig};

fn compile(src: &str) -> alive_core::program::Program {
    alive_core::compile(src).expect("compiles")
}

#[test]
fn vm_runs_and_matches_the_reference() {
    let src = "
        global total : number = 0
        fun bump(n : number) : number state {
            total := total + n;
            total
        }
        page start() {
            init { bump(1); bump(2); }
            render { boxed { post \"total is \" ++ total; } }
        }";
    let program = compile(src);
    let mut sys = System::with_config(program.clone(), SystemConfig::default());
    sys.run_to_stable().expect("stable");
    let frame = sys.rendered().expect("renders").clone();
    let stats = sys.vm_stats();
    assert!(
        stats.runs >= 2,
        "VM should have run init + render: {stats:?}"
    );
    assert_eq!(stats.compiles, 1);
    assert!(stats.instructions > 0);

    let page = program.page("start").expect("page");
    let mut store = Store::new();
    let mut queue = EventQueue::new();
    smallstep::eval_state(&program, &mut store, &mut queue, 1_000_000, &page.init)
        .expect("reference init");
    assert_eq!(&store, sys.store(), "stores agree");
    let reference = smallstep::eval_render(&program, &mut store, 1_000_000, &page.render)
        .expect("reference render");
    assert_eq!(reference.root.as_ref(), Some(&frame), "frames agree");
}

#[test]
fn closure_from_another_version_is_refused_without_touching_state() {
    use alive_core::attr::Attr;
    use alive_core::{vm, RuntimeError, Value};
    let v1 = "
        global n : number = 0
        page start() { render { boxed { post n; on tap { n := n + 1; } } } }";
    let mut sys = System::new(compile(v1));
    let root = sys.rendered().expect("renders").clone();
    let handler = root
        .descendant(&[0])
        .and_then(|b| b.attr(Attr::OnTap))
        .expect("tap handler")
        .clone();
    // The same handler, applied under a different program version's
    // bytecode: its body was never compiled there.
    let v2 = compile(&v1.replace("n + 1", "n + 2"));
    let vmp = v2.vm().expect("compiles to bytecode");
    let mut store = Store::new();
    store.set("n", Value::Number(5.0));
    let before = store.clone();
    let mut queue = EventQueue::new();
    let run = vm::transition_thunk(
        &vmp,
        &mut vm::Scratch::new(),
        &mut store,
        &mut queue,
        1,
        1_000,
        &handler,
        &[],
        None,
        None,
    );
    assert!(
        matches!(run.result, Err(RuntimeError::Internal(_))),
        "{:?}",
        run.result
    );
    assert_eq!(store, before, "no state touched");
    assert!(queue.is_empty());
}
