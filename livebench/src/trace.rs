//! In-memory spans recorded around calls into each layer, and the
//! per-layer self time computed from them.
//!
//! A span is `(command id, name, parent name, start, end)`. Spans of
//! one command share the id; a span's parent is the span of the same
//! command with the parent's name. The layer of a span is its name up
//! to the first `.` (`session.tap_at` belongs to `session`). Spans are
//! kept in memory during the run and written out when it ends.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the run's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub cmd: u64,
    pub name: &'static str,
    pub parent: Option<&'static str>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

fn layer_of(name: &'static str) -> &'static str {
    name.split('.').next().unwrap_or(name)
}

/// A span recorder. Disabled, it records nothing and costs one branch.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    on: bool,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant, on: bool) -> Self {
        Tracer {
            epoch,
            on,
            spans: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    pub fn ns_of(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    pub fn record(
        &mut self,
        cmd: u64,
        name: &'static str,
        parent: Option<&'static str>,
        start_ns: u64,
        end_ns: u64,
    ) {
        if self.on {
            self.spans.push(Span {
                cmd,
                name,
                parent,
                start_ns,
                end_ns,
            });
        }
    }

    /// Run `f` inside a span and return its result with the span's
    /// duration in microseconds.
    pub fn time<R>(
        &mut self,
        cmd: u64,
        name: &'static str,
        parent: Option<&'static str>,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        self.record(cmd, name, parent, start, end);
        (out, end.saturating_sub(start) as f64 / 1000.0)
    }
}

/// Per-span-name totals: `(spans, total duration ns, total self ns)`.
pub type SpanTotals = BTreeMap<&'static str, (u64, u64, u64)>;

/// Self time of every span: its duration minus the duration of its
/// children (same command, parent named after it).
pub fn span_totals(spans: &[Span]) -> SpanTotals {
    let mut by_cmd: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
    for span in spans {
        by_cmd.entry(span.cmd).or_default().push(span);
    }
    let mut totals = SpanTotals::new();
    for group in by_cmd.values() {
        for span in group {
            let children: u64 = group
                .iter()
                .filter(|c| c.parent == Some(span.name))
                .map(|c| c.dur_ns())
                .sum();
            let entry = totals.entry(span.name).or_default();
            entry.0 += 1;
            entry.1 += span.dur_ns();
            entry.2 += span.dur_ns().saturating_sub(children);
        }
    }
    totals
}

/// Mean duration of the named spans, in µs (0 when none were recorded).
pub fn mean_us(totals: &SpanTotals, names: &[&str]) -> f64 {
    let (count, total) = names
        .iter()
        .filter_map(|name| totals.get(name))
        .fold((0u64, 0u64), |(c, t), &(n, d, _)| (c + n, t + d));
    crate::report::ratio(total as f64, count as f64) / 1000.0
}

/// Write the spans as tab-separated lines under `livebench/out/`.
pub fn write_spans(workload: &str, spans: &[Span]) -> std::io::Result<String> {
    let dir = std::path::Path::new("livebench").join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{workload}.spans.tsv"));
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
    writeln!(out, "cmd\tname\tparent\tstart_ns\tend_ns")?;
    for s in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}",
            s.cmd,
            s.name,
            s.parent.unwrap_or("-"),
            s.start_ns,
            s.end_ns
        )?;
    }
    out.flush()?;
    Ok(path.display().to_string())
}

/// Fill the `self.*` metrics: each layer's self time per command.
pub fn set_self_metrics(run: &mut crate::report::Run, totals: &SpanTotals, commands: u64) {
    let mut layers: BTreeMap<&str, f64> = BTreeMap::new();
    for (name, &(_, _, self_ns)) in totals {
        *layers.entry(layer_of(name)).or_insert(0.0) += self_ns as f64 / 1000.0;
    }
    for (metric, layer) in [
        ("self.bench_us", "bench"),
        ("self.session_us", "session"),
        ("self.ui_us", "ui"),
        ("self.examples_us", "examples"),
        ("self.compile_us", "compile"),
        ("self.protocol_us", "protocol"),
        ("self.serve_us", "serve"),
    ] {
        let total = layers.get(layer).copied().unwrap_or(0.0);
        run.set(metric, crate::report::ratio(total, commands as f64));
    }
}
