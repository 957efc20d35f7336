//! E4 — render cost vs box count (paper §5: "recreating the entire box
//! tree on a redraw can become slow if there are many boxes"), on a
//! dependency-sparse and a dependency-dense workload. Every redraw
//! rebuilds the whole tree.

use alive_bench::{feed_session, feed_touch, gallery_select_next, gallery_session};
use alive_testkit::Bench;

fn main() {
    let mut bench = Bench::from_args("render_scaling");
    for n in [10usize, 100, 400] {
        let mut session = feed_session(n);
        let mut i = 0usize;
        bench.bench(&format!("feed_naive/{n}"), || {
            feed_touch(&mut session, i);
            i += 1;
        });
        let mut session = gallery_session(n);
        let mut i = 0usize;
        bench.bench(&format!("gallery_naive/{n}"), || {
            gallery_select_next(&mut session, i);
            i += 1;
        });
    }
    bench.finish();
}
