//! The `remember` extension — the paper's §7 future work ("support for
//! state encapsulation in the view") made concrete. §5 names the
//! problem: "the value of a slider widget must be defined as a global
//! variable". Here each box instance owns its state.

use its_alive::core::state_typing::assert_well_typed;
use its_alive::core::{compile, Value};
use its_alive::live::{EditOutcome, LiveSession};

/// Three independent counters from ONE loop body — zero globals.
const COUNTERS: &str = r#"
page start() {
    render {
        for i in 0 .. 3 {
            boxed {
                remember clicks : number = 0;
                post "item " ++ i ++ ": " ++ clicks;
                on tap { clicks := clicks + 1; }
            }
        }
    }
}
"#;

#[test]
fn each_box_instance_keeps_its_own_state() {
    let mut s = LiveSession::new(COUNTERS).expect("compiles and starts");
    assert_eq!(s.live_view(), "item 0: 0\nitem 1: 0\nitem 2: 0\n");
    s.tap_path(&[1]).expect("tap middle");
    s.tap_path(&[1]).expect("tap middle again");
    s.tap_path(&[2]).expect("tap last");
    assert_eq!(s.live_view(), "item 0: 0\nitem 1: 2\nitem 2: 1\n");
    // The model (store) is untouched — this is view state.
    assert!(s.system().store().is_empty());
    assert_eq!(s.system().widgets().len(), 3);
    assert_well_typed(s.system());
}

#[test]
fn view_state_survives_re_render_and_navigation() {
    let src = r#"
        page start() {
            render {
                boxed {
                    remember n : number = 10;
                    post "n = " ++ n;
                    on tap { n := n + 1; }
                }
                boxed { post "away"; on tap { push other(); } }
            }
        }
        page other() {
            render { boxed { post "elsewhere"; on tap { pop; } } }
        }
    "#;
    let mut s = LiveSession::new(src).expect("starts");
    s.tap_path(&[0]).expect("bump");
    assert!(s.live_view().contains("n = 11"));
    // Navigate away and back: the slot persists (like scroll state).
    s.tap_path(&[1]).expect("away");
    assert!(s.live_view().contains("elsewhere"));
    s.tap_path(&[0]).expect("back");
    assert!(s.live_view().contains("n = 11"));
}

#[test]
fn code_update_clears_view_state() {
    let mut s = LiveSession::new(COUNTERS).expect("starts");
    s.tap_path(&[0]).expect("tap");
    assert!(s.live_view().contains("item 0: 1"));
    let edited = COUNTERS.replace("item ", "entry ");
    let outcome = s.edit_source(&edited);
    assert!(matches!(outcome, EditOutcome::Applied(_)));
    // View state died with the old view code; slots re-initialize.
    assert_eq!(s.live_view(), "entry 0: 0\nentry 1: 0\nentry 2: 0\n");
    assert_well_typed(s.system());
}

#[test]
fn slots_initialize_from_model_reads() {
    let src = r#"
        global base : number = 40
        page start() {
            init { base := base + 2; }
            render {
                boxed {
                    remember offset : number = base;
                    post offset;
                    on tap { offset := offset + 100; }
                }
            }
        }
    "#;
    let mut s = LiveSession::new(src).expect("starts");
    // Initialized once from the (post-init) model...
    assert_eq!(s.live_view(), "42\n");
    s.tap_path(&[0]).expect("tap");
    // ...then evolves independently of it.
    assert_eq!(s.live_view(), "142\n");
    assert_eq!(s.system().store().get("base"), Some(&Value::Number(42.0)));
}

#[test]
fn render_code_cannot_write_slots() {
    let bad = r#"
        page start() {
            render {
                boxed {
                    remember n : number = 0;
                    n := n + 1;
                    post n;
                }
            }
        }
    "#;
    let err = compile(bad).expect_err("render writes are rejected");
    assert!(err.to_string().contains("widget slot assignment"), "{err}");
}

#[test]
fn remember_is_render_only_and_arrow_free() {
    let in_init = r#"
        page start() {
            init { remember n : number = 0; }
            render { }
        }
    "#;
    assert!(compile(in_init)
        .expect_err("rejected")
        .to_string()
        .contains("requires render mode"));

    let fn_slot = r#"
        page start() {
            render {
                boxed {
                    remember f : fn() state -> () = fn() state { pop; };
                }
            }
        }
    "#;
    assert!(compile(fn_slot)
        .expect_err("rejected")
        .to_string()
        .contains("function-free"));
}

#[test]
fn slots_are_lexically_scoped() {
    let out_of_scope = r#"
        page start() {
            render {
                boxed { remember n : number = 0; post n; }
                post n;
            }
        }
    "#;
    assert!(compile(out_of_scope)
        .expect_err("rejected")
        .to_string()
        .contains("unknown name `n`"));
}

#[test]
fn growing_the_loop_initializes_new_instances_only() {
    let src = r#"
        global count : number = 2
        page start() {
            render {
                boxed { post "rows: " ++ count; on tap { count := count + 1; } }
                for i in 0 .. count {
                    boxed {
                        remember hits : number = 0;
                        post i ++ " -> " ++ hits;
                        on tap { hits := hits + 1; }
                    }
                }
            }
        }
    "#;
    let mut s = LiveSession::new(src).expect("starts");
    s.tap_path(&[1]).expect("hit row 0");
    s.tap_path(&[0]).expect("grow the loop");
    // Row 0 kept its count (same occurrence key); the new row starts at 0.
    assert_eq!(s.live_view(), "rows: 3\n0 -> 1\n1 -> 0\n2 -> 0\n");
}

#[test]
fn remember_box_and_plain_rows_compose() {
    // A `remember` box keeps its view state across re-renders while the
    // plain rows beside it render from the model every time.
    let src = r#"
        global items : list number = []
        page start() {
            init { items := list.range(0, 6); }
            render {
                boxed {
                    remember taps : number = 0;
                    post "taps " ++ taps;
                    on tap { taps := taps + 1; }
                }
                foreach x in items {
                    boxed { post "row " ++ x; }
                }
            }
        }
    "#;
    let mut s = LiveSession::new(src).expect("starts");
    let rows = "row 0\nrow 1\nrow 2\nrow 3\nrow 4\nrow 5\n";
    assert_eq!(s.live_view(), format!("taps 0\n{rows}"));
    for taps in 1..=3 {
        s.tap_path(&[0]).expect("tap");
        assert_eq!(s.live_view(), format!("taps {taps}\n{rows}"));
    }
}
