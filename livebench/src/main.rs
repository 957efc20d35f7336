//! `livebench`: the repository's benchmark of the live loop.
//!
//! ```text
//! cargo run --release --manifest-path livebench/Cargo.toml -- \
//!     --workload <typing|interact|fleet> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One run drives one workload from a seed, checks the program's
//! outputs after the measured window, and prints a provenance line and
//! then, as the last line, `{"correct", "attempted", "failed",
//! "metrics"}`: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. See `livebench/README.md`.

mod calibrate;
mod drive;
mod fleet;
mod interact;
mod report;
mod source_sites;
mod trace;
mod typing;

use report::Run;

const USAGE: &str =
    "usage: livebench --workload <typing|interact|fleet> --seed <n> --seconds <s> --trace <0|1>";

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? != 0),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let args = Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    };
    if !(1..=600).contains(&args.seconds) {
        return Err(format!("--seconds {} is outside 1..=600", args.seconds));
    }
    Ok(args)
}

/// Per-layer metrics of the layers a closed-loop, wire-less workload
/// does not reach, plus the load generator's view of a closed loop
/// (it offers exactly what completes, and is never late).
pub fn set_closed_loop_layers(run: &mut Run, traced_cps: f64, plain_cps: f64) {
    for name in [
        "protocol.parse_us",
        "protocol.encode_us",
        "protocol.reply_bytes",
        "serve.submit_us",
        "serve.round_trip_p50_us",
        "serve.round_trip_p99_us",
        "serve.service_p50_us",
        "serve.service_p99_us",
        "serve.wait_p50_us",
        "serve.worker_busy_frac",
        "serve.steals",
        "serve.parks",
        "serve.overloads",
        "serve.mailbox_depth_hwm",
        "loadgen.lag_p99_us",
    ] {
        run.set(name, 0.0);
    }
    run.set("loadgen.offered_cps", traced_cps);
    run.set("loadgen.achieved_cps", traced_cps);
    run.set(
        "trace.overhead_frac",
        1.0 - report::ratio(traced_cps, plain_cps),
    );
}

/// Write the traced run's spans; a write failure is reported as a
/// failed check (the run's output is incomplete).
pub fn write_trace(run: &mut Run, workload: &str, spans: &[trace::Span]) {
    if let Err(e) = trace::write_spans(workload, spans) {
        run.check(false, || format!("writing the span file failed: {e}"));
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("livebench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let run = match args.workload.as_str() {
        "typing" => typing::run(&args),
        "interact" => interact::run(&args),
        "fleet" => fleet::run(&args),
        other => {
            eprintln!("livebench: unknown workload {other}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let table = if args.trace {
        report::PER_LAYER
    } else {
        report::END_TO_END
    };
    if run.check_failures.is_empty() {
        let mismatch = report::metric_mismatch(&run, table);
        if !mismatch.is_empty() {
            eprintln!("livebench: metric table mismatch: {mismatch:?}");
            std::process::exit(3);
        }
    }
    println!("{}", report::provenance_json(&args, &run));
    println!("{}", report::result_json(&run, table));
    if !run.check_failures.is_empty() {
        eprintln!("livebench: output checks failed: {:?}", run.check_failures);
        std::process::exit(1);
    }
}
