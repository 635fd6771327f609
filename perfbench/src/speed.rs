//! Wall times adjusted for the speed of a shared host.
//!
//! On the shared host this benchmark was built on, the same work ran up
//! to 1.6x slower while neighbours were busy, in spells of a few
//! seconds, and the share of busy spells differed from run to run by
//! enough to spread a run's median latency by up to 27 %; on top, the
//! host at times held the CPU back (steal). So every timed interval is
//! charged its wall time less the steal of its CPU, and is paired with
//! the time the host took, just before it, to run a fixed piece of this
//! benchmark's own code (the probe):
//!
//! `adjusted = (wall - steal) × REF_S / p`, where `p` is the median of
//! the probe samples taken within [`WINDOW_S`] of the interval.
//!
//! The probe is the benchmark's code, not the program's, so no program
//! change moves it: a program that does more work still reads slower.
//! Raw wall times are printed next to the adjusted ones.

use std::hint::black_box;
use std::time::Instant;

/// The probe's median time on the 2-vCPU Xeon host the bounds in
/// `BENCHMARK.json` were set on. An adjusted time is the wall time the
/// interval would have taken on a host running the probe this fast.
pub const REF_S: f64 = 1.4e-3;

/// Probe samples within this many seconds of an interval set its scale.
const WINDOW_S: f64 = 1.0;

/// 64 KiB of words, refilled into the core's cache by the first pass.
const WORDS: usize = 1 << 14;
const PASSES: u32 = 64;

/// `/proc/stat` counts in these ticks per second (`USER_HZ`).
const TICKS_PER_S: f64 = 100.0;

/// A timed interval, in seconds since the clock's origin.
#[derive(Clone, Copy)]
pub struct Interval {
    start: f64,
    pub wall_s: f64,
    /// Seconds the host held this CPU from the guest during the interval.
    pub steal_s: f64,
}

/// Times intervals and probes the host's speed around them.
pub struct Clock {
    buf: Vec<u32>,
    origin: Instant,
    /// `(start, seconds)` of every probe sample.
    probes: Vec<(f64, f64)>,
    /// Probe samples taken before each interval.
    per_interval: usize,
    /// The `/proc/stat` line of the one CPU this process may use, or
    /// the all-CPU line when it may use several.
    cpu_line: String,
}

impl Clock {
    pub fn new(per_interval: usize) -> Self {
        let mut x = 0x9E37_79B9u32;
        let buf = (0..WORDS)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                x
            })
            .collect();
        Clock {
            buf,
            origin: Instant::now(),
            probes: Vec::new(),
            per_interval: per_interval.max(1),
            cpu_line: pinned_cpu().map_or("cpu".to_string(), |c| format!("cpu{c}")),
        }
    }

    /// The CPU line this clock reads steal time from.
    pub fn cpu_line(&self) -> &str {
        &self.cpu_line
    }

    /// Steal time of this clock's CPU line so far, in seconds.
    fn steal_s(&self) -> f64 {
        let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        stat.lines()
            .find(|l| l.split_whitespace().next() == Some(self.cpu_line.as_str()))
            .and_then(|l| l.split_whitespace().nth(8))
            .and_then(|v| v.parse::<f64>().ok())
            .map_or(0.0, |ticks| ticks / TICKS_PER_S)
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// One probe sample: a fixed round of shifts, masks and sums.
    fn probe(&mut self) {
        let start = self.now();
        let t = Instant::now();
        let mut acc = 0u64;
        for pass in 0..PASSES {
            let shift = pass * 3 % 29;
            for w in self.buf.iter_mut() {
                acc = acc.wrapping_add(((*w >> shift) & 0x7FFF) as u64);
                *w = w.rotate_left(5) ^ (acc as u32);
            }
        }
        black_box(acc);
        self.probes.push((start, t.elapsed().as_secs_f64()));
    }

    /// Probe the host, then run and time `f`.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, Interval) {
        for _ in 0..self.per_interval {
            self.probe();
        }
        let start = self.now();
        let steal0 = self.steal_s();
        let t = Instant::now();
        let out = f();
        let wall_s = t.elapsed().as_secs_f64();
        let steal_s = (self.steal_s() - steal0).clamp(0.0, wall_s);
        let iv = Interval {
            start,
            wall_s,
            steal_s,
        };
        (out, iv)
    }

    /// `iv`'s wall seconds scaled to the reference probe time. Call
    /// once the probes after `iv` are taken.
    pub fn adjusted(&self, iv: Interval) -> f64 {
        let (lo, hi) = (iv.start - WINDOW_S, iv.start + iv.wall_s + WINDOW_S);
        let near: Vec<f64> = self
            .probes
            .iter()
            .filter(|(t, _)| (lo..=hi).contains(t))
            .map(|&(_, s)| s)
            .collect();
        // The samples taken just before `iv` are always in its window.
        (iv.wall_s - iv.steal_s) * REF_S / crate::median(&near)
    }

    /// Median of every probe sample so far, for the report.
    pub fn median_probe_s(&self) -> f64 {
        let all: Vec<f64> = self.probes.iter().map(|&(_, s)| s).collect();
        crate::median(&all)
    }
}

/// The CPU this process is pinned to, when it may use exactly one.
fn pinned_cpu() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?
        .trim()
        .parse()
        .ok()
}
