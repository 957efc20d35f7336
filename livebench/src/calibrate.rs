//! Machine-speed calibration: times reported at a reference speed.
//!
//! The benchmark runs on a share of a host whose speed drifts: on a
//! 2-vCPU cloud VM the same command stream runs up to 1.8× slower for
//! stretches of seconds to minutes, without steal time to show it,
//! because another tenant is loading the shared core or cache. Medians
//! over a longer window do not remove a drift that lasts longer than the
//! window.
//!
//! So the benchmark times a fixed [`kernel`] between commands and scales
//! each measured time by [`REFERENCE_US`] over the kernel's local time:
//! a time is reported as it would read on a machine that runs the kernel
//! in [`REFERENCE_US`]. The kernel uses only the standard library
//! (string formatting, a `BTreeMap`, a sort), so a change to the
//! program moves the scaled times exactly as it moves the raw ones; only
//! the host's speed cancels. The raw times are reported too, in the
//! provenance line, with the kernel's median time.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// The kernel's time, in µs, at the reference speed: a round figure
/// inside the range its run medians span on a 2-vCPU Intel Xeon VM
/// (316–518 µs; see `livebench/README.md`).
pub const REFERENCE_US: f64 = 400.0;

/// Commands between two kernel timings in a closed-loop window.
pub const EVERY: usize = 100;

/// Kernel timings on each side of a sample that set its scale.
const SMOOTH: usize = 5;

/// Kernel timings around each set-up.
const AROUND_SETUP: usize = 3;

/// Keys in the kernel's map.
const KEYS: u64 = 600;

/// The calibration work: format keys, fill a `BTreeMap`, sort, look up.
fn kernel() -> u64 {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut map = BTreeMap::new();
    let mut values = Vec::with_capacity(KEYS as usize);
    for i in 0..KEYS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        map.insert(format!("k{}-{}", x % (KEYS * 5 / 4), i % 7), x);
        values.push(x);
    }
    values.sort_unstable();
    let mut acc = 0u64;
    for (i, v) in values.iter().enumerate() {
        let key = format!("k{}-{}", (v >> 3) % (KEYS * 5 / 4), i % 7);
        if let Some(y) = map.get(&key) {
            acc = acc.wrapping_add(*y);
        }
    }
    acc.wrapping_add(values[values.len() / 2])
}

/// One timing of the kernel, in µs.
pub fn kernel_us() -> f64 {
    let start = Instant::now();
    black_box(kernel());
    start.elapsed().as_secs_f64() * 1e6
}

/// Kernel timings taken during a run, each with the number of samples
/// measured before it.
#[derive(Debug, Default)]
pub struct Marks {
    marks: Vec<(usize, f64)>,
}

impl Marks {
    /// Time the kernel if `samples` is a multiple of [`EVERY`].
    pub fn tick(&mut self, samples: usize) {
        if samples.is_multiple_of(EVERY) {
            self.marks.push((samples, kernel_us()));
        }
    }

    /// The kernel timings, in the order taken.
    pub fn kernel_times(&self) -> Vec<f64> {
        self.marks.iter().map(|&(_, us)| us).collect()
    }

    /// The scale of each of `n` samples: [`REFERENCE_US`] over the
    /// median of the [`SMOOTH`] kernel timings on each side of the mark
    /// that precedes the sample. One without marks is not scaled.
    pub fn scales(&self, n: usize) -> Vec<f64> {
        let times = self.kernel_times();
        let mut out = Vec::with_capacity(n);
        for (k, &(from, _)) in self.marks.iter().enumerate() {
            let to = self.marks.get(k + 1).map_or(n, |&(next, _)| next).min(n);
            let mut near =
                times[k.saturating_sub(SMOOTH)..(k + SMOOTH + 1).min(times.len())].to_vec();
            let scale = REFERENCE_US / crate::report::median(&mut near);
            out.extend((from.min(to)..to).map(|_| scale));
        }
        out.resize(n, out.last().copied().unwrap_or(1.0));
        out
    }
}

/// One timed set-up.
#[derive(Debug, Clone, Copy)]
pub struct Setup {
    /// Its time as measured, in seconds.
    pub raw_s: f64,
    /// The median of [`AROUND_SETUP`] kernel timings before it and as
    /// many after, in µs.
    pub kernel_us: f64,
}

impl Setup {
    /// Its time at the reference speed, in seconds.
    pub fn scaled_s(&self) -> f64 {
        self.raw_s * REFERENCE_US / self.kernel_us
    }
}

/// Run `setup` once, timing it and the kernel around it.
pub fn timed_setup<T>(setup: impl FnOnce() -> T) -> (T, Setup) {
    let mut times: Vec<f64> = (0..AROUND_SETUP).map(|_| kernel_us()).collect();
    let start = Instant::now();
    let value = setup();
    let raw_s = start.elapsed().as_secs_f64();
    times.extend((0..AROUND_SETUP).map(|_| kernel_us()));
    let kernel_us = crate::report::median(&mut times);
    (value, Setup { raw_s, kernel_us })
}
