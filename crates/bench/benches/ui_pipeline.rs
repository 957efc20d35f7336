//! UI substrate micro-benchmarks: layout, text rendering and
//! hit-testing, across wide (many siblings) and deep (nested)
//! box trees. Establishes that the display pipeline stays linear and is
//! not the bottleneck behind the render-scaling numbers of E4.

use alive_apps::gallery::{feed_src, nested_src};
use alive_core::compile;
use alive_core::system::System;
use alive_testkit::Bench;
use alive_ui::{hit_test, layout, render_to_text, Point};
use std::hint::black_box;

fn rendered_root(src: &str) -> alive_core::BoxNode {
    let mut sys = System::new(compile(src).expect("compiles"));
    sys.rendered().expect("renders").clone()
}

fn main() {
    let mut bench = Bench::from_args("ui_pipeline");

    for n in [10usize, 100, 1000] {
        let root = rendered_root(&feed_src(n));
        bench.bench(&format!("layout_wide/{n}"), || black_box(layout(&root)));
        let tree = layout(&root);
        bench.bench(&format!("render_text_wide/{n}"), || {
            black_box(render_to_text(&tree))
        });
        let bottom = tree.size().h - 1;
        bench.bench(&format!("hit_test_wide/{n}"), || {
            black_box(hit_test(&tree, Point::new(0, bottom)))
        });
    }

    for depth in [8usize, 32, 128] {
        let root = rendered_root(&nested_src(depth));
        bench.bench(&format!("layout_deep/{depth}"), || black_box(layout(&root)));
    }
    bench.finish();
}
