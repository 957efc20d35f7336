//! Babylonian live examples — continuously evaluated probes.
//!
//! An `example name = expr [expect expr]` item is a pure expression the
//! environment re-evaluates on every edit and every model change, in
//! the style of Babylonian/example-based programming (Rauch et al.):
//! the programmer sees concrete values for the code under edit, always
//! up to date, without running anything by hand. An `expect` clause
//! turns the probe into a live assertion: the probe reports pass/fail
//! continuously instead of only printing the value.
//!
//! Probes evaluate against the *running model* (the store), so an
//! example over a global shows the live value, not the initial one.
//! Evaluation runs each example's compiled chunk on the bytecode VM
//! (`vm::run_example`); the VM differential suite checks those values
//! against the small-step reference machine.

use alive_core::error::RuntimeError;
use alive_core::store::Store;
use alive_core::system::System;
use alive_core::value::Value;
use alive_core::vm::{self, Scratch};
use alive_core::Program;
use std::fmt;

/// The status of one probe after evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProbeStatus {
    /// No `expect` clause: the probe just shows its value.
    Value,
    /// `expect` present and both sides evaluated to equal values.
    Pass,
    /// `expect` present and the sides disagree; carries the rendered
    /// expected value.
    Fail {
        /// The rendered value of the `expect` clause.
        expected: String,
    },
    /// The body (or the `expect` clause) faulted; the probe's `value`
    /// is the rendered runtime error.
    Fault,
}

/// One evaluated live example.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExampleProbe {
    /// The example's name.
    pub name: String,
    /// Rendered probe value (or the fault text for [`ProbeStatus::Fault`]).
    pub value: String,
    /// Pass/fail/value status.
    pub status: ProbeStatus,
}

impl ExampleProbe {
    /// One-line rendering — the wire and panel
    /// format: `name = value`, `name = value ok`, `name = value,
    /// expected <e>`, or `name faulted: <err>`.
    pub fn render_line(&self) -> String {
        match &self.status {
            ProbeStatus::Value => format!("{} = {}", self.name, self.value),
            ProbeStatus::Pass => format!("{} = {} ok", self.name, self.value),
            ProbeStatus::Fail { expected } => {
                format!("{} = {}, expected {}", self.name, self.value, expected)
            }
            ProbeStatus::Fault => format!("{} faulted: {}", self.name, self.value),
        }
    }
}

impl fmt::Display for ExampleProbe {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render_line())
    }
}

/// Counters for the probe cache: how often [`crate::LiveSession::examples`]
/// answered from cache vs re-evaluated.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExampleStats {
    /// Full recomputations (cache misses).
    pub computes: u64,
    /// Answers served from the `(version, generation)`-keyed cache.
    pub hits: u64,
}

/// The session-side probe cache. Results are keyed by `(program
/// version, display generation)`: every model change is followed by a
/// RENDER that bumps the display generation, and every code change
/// bumps the version, so equal keys mean equal probe inputs.
#[derive(Debug, Default)]
pub(crate) struct ExampleCache {
    key: Option<(u64, u64)>,
    probes: Vec<ExampleProbe>,
    scratch: Scratch,
    pub(crate) stats: ExampleStats,
}

impl ExampleCache {
    /// Evaluate every example of the system's program, reusing the
    /// cached result when neither code nor model changed.
    pub(crate) fn probes(&mut self, system: &System) -> Vec<ExampleProbe> {
        let key = (system.version(), system.display_generation());
        if self.key == Some(key) {
            self.stats.hits += 1;
            return self.probes.clone();
        }
        self.stats.computes += 1;
        self.probes = evaluate_examples(
            system.program(),
            system.store(),
            system.version(),
            system.config().fuel,
            &mut self.scratch,
        );
        self.key = Some(key);
        self.probes.clone()
    }

    /// Drop the cached result (used when the system is replaced
    /// wholesale, e.g. a fleet revert restoring a checkpoint).
    pub(crate) fn invalidate(&mut self) {
        self.key = None;
    }
}

/// Evaluate one pure example expression on the VM. `expect` selects
/// the example's `expect` clause instead of its body.
fn eval_probe_expr(
    program: &Program,
    store: &Store,
    version: u64,
    fuel: u64,
    scratch: &mut Scratch,
    index: usize,
    expect: bool,
) -> Result<Value, RuntimeError> {
    let vmp = program.vm().ok_or(RuntimeError::Internal(
        "program does not compile to bytecode",
    ))?;
    vm::run_example(&vmp, scratch, store, version, fuel, index, expect)
        .map(|run| run.result)
        .unwrap_or(Err(RuntimeError::Internal("no such example clause")))
}

/// Evaluate every example in `program` against `store`.
pub(crate) fn evaluate_examples(
    program: &Program,
    store: &Store,
    version: u64,
    fuel: u64,
    scratch: &mut Scratch,
) -> Vec<ExampleProbe> {
    let mut out = Vec::with_capacity(program.examples().len());
    for (index, def) in program.examples().iter().enumerate() {
        let name = def.name.to_string();
        let body = eval_probe_expr(program, store, version, fuel, scratch, index, false);
        let probe = match body {
            Err(e) => ExampleProbe {
                name,
                value: e.to_string(),
                status: ProbeStatus::Fault,
            },
            Ok(value) => {
                let rendered = value.display_text();
                match &def.expect {
                    None => ExampleProbe {
                        name,
                        value: rendered,
                        status: ProbeStatus::Value,
                    },
                    Some(_) => {
                        let expect_val =
                            eval_probe_expr(program, store, version, fuel, scratch, index, true);
                        match expect_val {
                            Err(e) => ExampleProbe {
                                name,
                                value: e.to_string(),
                                status: ProbeStatus::Fault,
                            },
                            Ok(expected) if expected == value => ExampleProbe {
                                name,
                                value: rendered,
                                status: ProbeStatus::Pass,
                            },
                            Ok(expected) => ExampleProbe {
                                name,
                                value: rendered,
                                status: ProbeStatus::Fail {
                                    expected: expected.display_text(),
                                },
                            },
                        }
                    }
                }
            }
        };
        out.push(probe);
    }
    out
}
