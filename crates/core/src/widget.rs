//! Per-box-instance view state — the paper's §7 future-work extension
//! ("support for state encapsulation in the view").
//!
//! §5 names the limitation: "the value of a slider widget must be
//! defined as a global variable". A `remember x : τ = e;` statement
//! gives a box instance its own slot instead. Slots are keyed by the
//! `remember` statement's source identity plus an *occurrence counter*
//! (the how-many-th evaluation of that statement within one render), so
//! the i-th instance produced by a loop keeps the i-th slot across
//! re-renders — the same positional-identity assumption mainstream
//! immediate-mode and virtual-DOM frameworks make for unkeyed children.
//!
//! Design decisions (the "tricky initialization semantics" the paper
//! defers):
//!
//! * initialization runs the first time a slot key is seen — i.e. on
//!   the first render, and again for instances that appear later;
//! * slots survive re-renders and page navigation;
//! * slots are **cleared by UPDATE**: view state dies with the view's
//!   code, preserving §4.2's no-stale-state story;
//! * render code may only *read* slots (the view stays a function of
//!   model + view-state); handlers (state code) may write them;
//! * slot types are →-free, so slots can never smuggle stale code.

use crate::expr::RememberId;
use crate::value::Value;
use std::collections::HashMap;
use std::fmt;

/// A slot key: which `remember` statement, and its occurrence number
/// within a render pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct WidgetKey {
    /// The `remember` statement.
    pub id: RememberId,
    /// 0-based occurrence within one render pass.
    pub occurrence: u32,
}

impl fmt::Display for WidgetKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "remember#{}.{}", self.id.0, self.occurrence)
    }
}

/// The view-state store: slot values plus the per-render occurrence
/// counters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WidgetStore {
    slots: HashMap<WidgetKey, Value>,
    counters: HashMap<RememberId, u32>,
}

impl WidgetStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Start a render pass: occurrence counting restarts at zero.
    pub fn begin_render(&mut self) {
        self.counters.clear();
    }

    /// Allocate the next occurrence key for a `remember` statement
    /// (called by the evaluator, in render order).
    pub fn next_key(&mut self, id: RememberId) -> WidgetKey {
        let counter = self.counters.entry(id).or_insert(0);
        let key = WidgetKey {
            id,
            occurrence: *counter,
        };
        *counter += 1;
        key
    }

    /// Whether a slot exists.
    pub fn contains(&self, key: WidgetKey) -> bool {
        self.slots.contains_key(&key)
    }

    /// Read a slot.
    pub fn get(&self, key: WidgetKey) -> Option<&Value> {
        self.slots.get(&key)
    }

    /// Write a slot.
    pub fn set(&mut self, key: WidgetKey, value: Value) {
        self.slots.insert(key, value);
    }

    /// Drop all slots and counters (the UPDATE transition).
    pub fn clear(&mut self) {
        self.slots.clear();
        self.counters.clear();
    }

    /// Number of live slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the store holds no slots.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Iterate slots in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (&WidgetKey, &Value)> {
        self.slots.iter()
    }
}

impl fmt::Display for WidgetStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut entries: Vec<String> = self
            .slots
            .iter()
            .map(|(k, v)| format!("{k} ↦ {v}"))
            .collect();
        entries.sort();
        write!(f, "{{{}}}", entries.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn occurrence_counting_restarts_per_render() {
        let mut w = WidgetStore::new();
        let id = RememberId(0);
        assert_eq!(w.next_key(id).occurrence, 0);
        assert_eq!(w.next_key(id).occurrence, 1);
        w.begin_render();
        assert_eq!(w.next_key(id).occurrence, 0);
        // Distinct statements count independently.
        assert_eq!(w.next_key(RememberId(1)).occurrence, 0);
    }

    #[test]
    fn slots_survive_begin_render_but_not_clear() {
        let mut w = WidgetStore::new();
        let key = w.next_key(RememberId(3));
        w.set(key, Value::Number(7.0));
        w.begin_render();
        assert_eq!(w.get(key), Some(&Value::Number(7.0)));
        w.clear();
        assert!(w.is_empty());
        assert!(!w.contains(key));
    }
}
