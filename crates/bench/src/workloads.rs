//! Workload builders shared by the wall-clock benches and the tables
//! binary.

use alive_apps::{gallery, mortgage};
use alive_baseline::{NavAction, RestartSession};
use alive_live::LiveSession;

/// The two alternating label edits used by the feedback-latency
/// experiment (E3): each is a one-token change to render code, like the
/// paper's I1–I3 tweaks.
pub fn label_variants(src: &str) -> (String, String) {
    let a = src.replace("post \"Local\";", "post \"Nearby\";");
    let b = src.to_string();
    (a, b)
}

/// A live session on the mortgage app with `n` listings, navigated to
/// the detail page (the paper's editing context).
pub fn mortgage_live_on_detail(n: usize) -> LiveSession {
    let mut s = LiveSession::new(&mortgage::mortgage_src(n)).expect("compiles");
    s.tap_path(&[1, 0]).expect("open detail");
    s
}

/// A restart-baseline session on the mortgage app with `n` listings,
/// navigated to the detail page.
pub fn mortgage_restart_on_detail(n: usize) -> RestartSession {
    let mut s = RestartSession::new(&mortgage::mortgage_src(n)).expect("compiles");
    s.interact(NavAction::Tap(vec![1, 0])).expect("open detail");
    s
}

/// A live session on the synthetic gallery with `n` tiles.
/// Dependency-dense: every tile reads the `selected` global.
pub fn gallery_session(n: usize) -> LiveSession {
    LiveSession::new(&gallery::gallery_src(n)).expect("compiles")
}

/// A live session on the synthetic feed with `n` rows.
/// Dependency-sparse: each row reads only its own item.
pub fn feed_session(n: usize) -> LiveSession {
    LiveSession::new(&gallery::feed_src(n)).expect("compiles")
}

/// One selection change on a gallery session: tap a rotating tile,
/// forcing a re-render.
pub fn gallery_select_next(session: &mut LiveSession, step: usize) {
    let n = list_global_len(session, "tiles");
    let target = 1 + (step % n.max(1));
    session.tap_path(&[target]).expect("tap tile");
}

/// One item edit on a feed session: tap a rotating row (its handler
/// bumps row 0's value), forcing a re-render that touches one row.
pub fn feed_touch(session: &mut LiveSession, step: usize) {
    let n = list_global_len(session, "items");
    let target = 1 + (step % n.max(1));
    session.tap_path(&[target]).expect("tap row");
}

fn list_global_len(session: &LiveSession, name: &str) -> usize {
    match session.system().store().get(name) {
        Some(alive_core::Value::List(xs)) => xs.len(),
        other => panic!("`{name}` is not a materialized list: {other:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_build() {
        let mut live = mortgage_live_on_detail(3);
        assert_eq!(live.system().current_page().map(|(n, _)| n), Some("detail"));
        let (a, b) = label_variants(live.source());
        assert_ne!(a, b);
        assert!(live.edit_source(&a).is_applied());

        let restart = mortgage_restart_on_detail(3);
        assert_eq!(
            restart.system().current_page().map(|(n, _)| n),
            Some("detail")
        );

        // Sparse feed: each tap bumps row 0's value.
        let mut f = feed_session(8);
        let before = f.live_view();
        feed_touch(&mut f, 0);
        feed_touch(&mut f, 1);
        assert_ne!(f.live_view(), before);
        // Dense gallery: a tap changes the selection every tile reads.
        let mut g = gallery_session(8);
        gallery_select_next(&mut g, 0);
        assert!(g.live_view().contains("selected: 0"));
    }
}
