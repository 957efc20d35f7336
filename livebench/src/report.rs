//! Metric names, sample statistics, provenance and the result line.
//!
//! The metric tables here are the benchmark's contract: they match the
//! `end_to_end` and `per_layer` lists of `BENCHMARK.json`, and a run
//! that does not produce exactly one of the two sets is a bug in the
//! benchmark (it exits non-zero instead of printing a partial result).

use crate::calibrate::Setup;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, printed by every untraced run of every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("cmd_p50_us", "us"),
    ("cmd_p99_us", "us"),
    ("cmds_per_s", "1/s"),
    ("edit_to_frame_p50_us", "us"),
    ("edit_to_frame_p99_us", "us"),
    ("max_rate_cps", "1/s"),
    ("ok_frac", "ratio"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, printed by every traced run of every workload. A
/// layer a workload does not exercise reads 0 (no work at that layer).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("failed_frac", "ratio"),
    ("protocol.parse_us", "us"),
    ("protocol.encode_us", "us"),
    ("protocol.reply_bytes", "bytes"),
    ("serve.submit_us", "us"),
    ("serve.round_trip_p50_us", "us"),
    ("serve.round_trip_p99_us", "us"),
    ("serve.service_p50_us", "us"),
    ("serve.service_p99_us", "us"),
    ("serve.wait_p50_us", "us"),
    ("serve.worker_busy_frac", "ratio"),
    ("serve.steals", "count"),
    ("serve.parks", "count"),
    ("serve.overloads", "count"),
    ("serve.mailbox_depth_hwm", "count"),
    ("loadgen.lag_p99_us", "us"),
    ("loadgen.offered_cps", "1/s"),
    ("loadgen.achieved_cps", "1/s"),
    ("session.settle_us", "us"),
    ("session.edit_us", "us"),
    ("session.update_us", "us"),
    ("session.edits_applied", "count"),
    ("session.edits_rejected", "count"),
    ("session.edits_quarantined", "count"),
    ("session.tap_hit_frac", "ratio"),
    ("compile.us", "us"),
    ("compile.reparsed_frac", "ratio"),
    ("vm.instructions_per_cmd", "count"),
    ("vm.runs_per_cmd", "count"),
    ("vm.compile_us", "us"),
    ("system.renders_per_cmd", "count"),
    ("memo.lookups", "count"),
    ("memo.hit_frac", "ratio"),
    ("ui.frame_us", "us"),
    ("ui.layout_us", "us"),
    ("ui.paint_us", "us"),
    ("ui.nodes_measured", "count"),
    ("ui.layout_reuse_frac", "ratio"),
    ("ui.cells_repainted", "count"),
    ("ui.repaint_frac", "ratio"),
    ("ui.view_memo_hits", "count"),
    ("examples.probe_us", "us"),
    ("examples.cache_hit_frac", "ratio"),
    ("self.bench_us", "us"),
    ("self.session_us", "us"),
    ("self.ui_us", "us"),
    ("self.examples_us", "us"),
    ("self.compile_us", "us"),
    ("self.protocol_us", "us"),
    ("self.serve_us", "us"),
    ("trace.overhead_frac", "ratio"),
];

/// The p99 latency limit: one 60 Hz frame.
pub const FRAME_LIMIT_US: f64 = 16_000.0;

/// What one run measured.
#[derive(Debug, Default)]
pub struct Run {
    /// Commands attempted in the measured window(s).
    pub attempted: u64,
    /// Of those, commands that failed (`Refused`, `Overloaded`, host
    /// errors).
    pub failed: u64,
    /// Output checks that did not hold; any entry voids the metrics.
    pub check_failures: Vec<String>,
    /// Metric values by name (units come from the tables above).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Sample count behind each percentile, by metric name.
    pub samples: BTreeMap<&'static str, usize>,
    /// The times among the metrics as measured, before scaling to the
    /// reference speed (see `calibrate`).
    pub raw: BTreeMap<&'static str, f64>,
    /// Median time of the calibration kernel over the run, in µs.
    pub kernel_us: f64,
}

impl Run {
    /// Record a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Record a latency distribution (samples in the order they were
    /// taken) as its p50 and its [`chunked_p99`], with the sample count
    /// behind them.
    pub fn set_p50_p99(&mut self, p50: &'static str, p99: &'static str, samples: &[f64]) {
        self.set(p99, chunked_p99(samples));
        self.set(p50, percentile(&mut samples.to_vec(), 0.50));
        self.samples.insert(p50, samples.len());
        self.samples.insert(p99, samples.len());
    }

    /// Record `setup_s`: the median of the set-ups' times at the
    /// reference speed, and of their raw times. A run whose window took
    /// no kernel timings reports the set-ups' median kernel time.
    pub fn set_setup(&mut self, setups: &[Setup]) {
        let pick = |f: fn(&Setup) -> f64| median(&mut setups.iter().map(f).collect::<Vec<_>>());
        self.set("setup_s", pick(Setup::scaled_s));
        self.raw.insert("setup_s", pick(|s| s.raw_s));
        if self.kernel_us == 0.0 {
            self.kernel_us = pick(|s| s.kernel_us);
        }
    }

    /// Record a failed output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok && self.check_failures.len() < 16 {
            self.check_failures.push(what());
        }
    }
}

/// Nearest-rank percentile (`q` in 0..=1) of `samples`, sorting them in
/// place. Zero for an empty slice.
pub fn percentile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let rank = (q * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// Samples per chunk of [`chunked_p99`]: the smallest count whose p99
/// has ten samples beyond it.
pub const P99_CHUNK: usize = 1_000;

/// Chunks [`chunked_p99`] needs for a median over them.
pub const P99_MIN_CHUNKS: usize = 10;

/// The p99 of a run: the median, over consecutive chunks of
/// [`P99_CHUNK`] samples (the last chunk takes the remainder), of each
/// chunk's p99. A shared machine stalls every thread for a few
/// milliseconds now and then; such a stall lands in one or two chunks,
/// so the median keeps the tail the program makes and drops the one
/// the machine makes. With fewer than [`P99_MIN_CHUNKS`] chunks' worth
/// of samples this is the plain p99: a median of two or three chunk
/// p99s is their minimum or close to it, and noisier than the plain p99,
/// which then has 20 or more samples beyond it.
pub fn chunked_p99(samples: &[f64]) -> f64 {
    let chunks = samples.len() / P99_CHUNK;
    if chunks < P99_MIN_CHUNKS {
        return percentile(&mut samples.to_vec(), 0.99);
    }
    let mut p99s: Vec<f64> = (0..chunks)
        .map(|k| {
            let end = if k + 1 == chunks {
                samples.len()
            } else {
                (k + 1) * P99_CHUNK
            };
            percentile(&mut samples[k * P99_CHUNK..end].to_vec(), 0.99)
        })
        .collect();
    median(&mut p99s)
}

/// The median of `values` (sorting them in place).
pub fn median(values: &mut [f64]) -> f64 {
    percentile(values, 0.5)
}

/// `part / whole`, or 0 when nothing happened.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// The process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The provenance line, printed before the result: where the result
/// came from, and the sample count behind each percentile.
pub fn provenance_json(args: &crate::Args, run: &Run) -> String {
    let mut samples = String::new();
    for (i, (name, count)) in run.samples.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(samples, "{sep}\"{name}\":{count}");
    }
    let mut raw = String::new();
    for (i, (name, value)) in run.raw.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(raw, "{sep}\"{name}\":{value}");
    }
    let checks: Vec<String> = run.check_failures.iter().map(|c| json_string(c)).collect();
    format!(
        "{{\"provenance\":{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{},\"cpu\":{},\"rustc\":{},\"commit\":{}}},\"samples\":{{{samples}}},\"calibration\":{{\"reference_us\":{},\"kernel_median_us\":{},\"raw\":{{{raw}}}}},\"check_failures\":[{}]}}",
        json_string(&args.workload),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        json_string(&cpu_model()),
        json_string(&command_line("rustc", &["-V"])),
        json_string(&command_line("git", &["rev-parse", "HEAD"])),
        crate::calibrate::REFERENCE_US,
        run.kernel_us,
        checks.join(","),
    )
}

/// The result line: the last line of standard output.
pub fn result_json(run: &Run, table: &[(&str, &str)]) -> String {
    let correct = run.check_failures.is_empty();
    let mut metrics = String::new();
    if correct {
        for (i, (name, unit)) in table.iter().enumerate() {
            let value = run.metrics.get(name).copied().unwrap_or(f64::NAN);
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                metrics,
                "{sep}\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
            );
        }
    }
    format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
        run.attempted.max(1),
        run.failed
    )
}

/// The names in `table` that `run` did not measure, and the measured
/// names `table` does not declare.
pub fn metric_mismatch(run: &Run, table: &[(&str, &str)]) -> Vec<String> {
    let mut out: Vec<String> = table
        .iter()
        .filter(|(name, _)| !run.metrics.get(name).is_some_and(|v| v.is_finite()))
        .map(|(name, _)| format!("missing {name}"))
        .collect();
    out.extend(
        run.metrics
            .keys()
            .filter(|name| !table.iter().any(|(n, _)| n == *name))
            .map(|name| format!("undeclared {name}")),
    );
    out
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|line| line.strip_prefix("model name"))
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The first line a tool prints, or `unknown` when it cannot run (the
/// benchmark may run outside a git checkout).
fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| {
            String::from_utf8_lossy(&out.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn json_string(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
