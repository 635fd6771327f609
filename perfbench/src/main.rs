//! Wall-clock benchmark of the tlc workspace: two workloads
//! (`ssb-scan`, `ingest`) run against the real code,
//! every answer checked, and a traced mode that times calls into each
//! layer's public functions. See `perfbench/README.md`.
//!
//! Output: a human-readable report, then machine lines
//! `@metric <name> <value> <unit>`, `@attempted <n>`, `@failed <n>`,
//! `@correct <bool>` that `run.py` turns into the result JSON. The
//! process exits nonzero when any answer is wrong or the service's
//! books do not balance.

mod check;
mod ingest;
mod layers;
mod scan;
mod speed;
mod trace;

use std::path::{Path, PathBuf};

use tlc_profile::LatencyHistogram;
use tlc_ssb::SsbStore;

use crate::trace::Tracer;

/// Times the set-up is repeated in one run; `setup_s` is the median.
pub const SETUP_REPS: usize = 5;

/// A tail percentile must leave at least this many samples above it.
const TAIL_BEYOND: usize = 10;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub work: PathBuf,
    pub commit: String,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut work) = (None, None, None, None, None);
    let mut commit = "unknown".to_string();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = |v: &str| v.parse::<f64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(num(&value)?),
            "--trace" => trace = Some(value == "1"),
            "--work" => work = Some(PathBuf::from(value)),
            "--commit" => commit = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        work: work.ok_or("--work is required")?,
        commit,
    })
}

/// Metrics and verdict of one run.
#[derive(Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
    pub wrong: u64,
    pub unbalanced: bool,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    fn emit(&self) -> bool {
        println!();
        for (name, value, unit) in &self.metrics {
            println!("  {name:<28} {value:>16.6} {unit}");
        }
        for (name, value, unit) in &self.metrics {
            println!("@metric {name} {value} {unit}");
        }
        let correct = self.wrong == 0 && !self.unbalanced;
        println!("@attempted {}", self.attempted);
        println!("@failed {}", self.failed);
        println!("@correct {correct}");
        correct
    }
}

/// Print one provenance line.
pub fn prov(key: &str, value: impl std::fmt::Display) {
    println!("# {key}: {value}");
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest nearest-rank percentile that leaves [`TAIL_BEYOND`]
/// samples above it, as `(percentile, value)`. Below `2 × TAIL_BEYOND`
/// samples that percentile would sit at or under the median, so the
/// maximum is reported (percentile 100).
pub fn tail(h: &LatencyHistogram) -> (f64, f64) {
    let n = h.len();
    if n <= 2 * TAIL_BEYOND {
        return (100.0, h.percentile(1.0));
    }
    let rank = n - TAIL_BEYOND;
    // Aim half a rank low so `ceil(q * n)` lands on `rank` exactly.
    let value = h.percentile((rank as f64 - 0.5) / n as f64);
    (100.0 * rank as f64 / n as f64, value)
}

/// The end-to-end metrics of an untraced run; every workload reports
/// this same set.
pub struct EndToEnd<'a> {
    /// One duration per set-up repetition.
    pub setup_s: &'a [f64],
    pub throughput_qps: f64,
    pub mrows_per_s: f64,
    /// Wall latency per request, in seconds.
    pub latency: &'a LatencyHistogram,
    /// What one latency sample is, for the report.
    pub request: &'static str,
    pub model_device_ms: f64,
    pub bytes_per_row: f64,
    pub peak_rss_mb: f64,
}

impl EndToEnd<'_> {
    /// Add the metrics to `r`, whose counts must be final.
    pub fn emit(&self, r: &mut Report) {
        let h = self.latency;
        let (pct, tail_s) = tail(h);
        prov(
            &format!("{} latency samples", self.request),
            format!("{} (tail = nearest-rank p{pct:.2})", h.len()),
        );
        let dist: Vec<String> = [0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0]
            .iter()
            .map(|&q| format!("p{}={:.1}", q * 100.0, h.percentile(q) * 1e3))
            .collect();
        prov(&format!("{} latency ms", self.request), dist.join(" "));
        let ok = (r.attempted - r.failed) as f64 / r.attempted as f64;

        r.metric("setup_s", median(self.setup_s), "s");
        r.metric("throughput_qps", self.throughput_qps, "1/s");
        r.metric("mrows_per_s", self.mrows_per_s, "Mrows/s");
        r.metric("latency_p50_ms", h.percentile(0.5) * 1e3, "ms");
        r.metric("latency_tail_ms", tail_s * 1e3, "ms");
        r.metric("ok_frac", ok, "ratio");
        r.metric("model_device_ms", self.model_device_ms, "ms");
        r.metric("bytes_per_row", self.bytes_per_row, "B/row");
        r.metric("peak_rss_mb", self.peak_rss_mb, "MiB");
    }
}

/// Peak resident set of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// Compressed bytes committed for a store.
pub fn store_bytes(store: &SsbStore) -> u64 {
    let s = store.store();
    (0..s.partition_count()).map(|p| s.partition_bytes(p)).sum()
}

pub fn store_provenance(store: &SsbStore) {
    let s = store.store();
    prov(
        "store",
        format!(
            "{} rows, {} partitions, {} compressed bytes, seed {}",
            s.manifest().total_rows,
            s.partition_count(),
            store_bytes(store),
            store.spec().seed
        ),
    );
}

/// Fresh directory `work/name`.
pub fn fresh_dir(work: &Path, name: &str) -> PathBuf {
    let dir = work.join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Write the traced run's spans next to the work directory, where they
/// outlive it: `<work>/../trace-<workload>-seed<seed>.tsv`.
pub fn write_trace(args: &Args, tr: &Tracer) {
    let dir = args.work.parent().unwrap_or(&args.work);
    let path = dir.join(format!("trace-{}-seed{}.tsv", args.workload, args.seed));
    tr.write(&path).expect("write trace");
    prov("trace file", path.display());
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    std::fs::create_dir_all(&args.work).expect("create work directory");
    prov("workload", &args.workload);
    prov("seed", args.seed);
    prov("seconds", args.seconds);
    prov("mode", if args.trace { "traced" } else { "untraced" });
    prov("commit", &args.commit);
    prov(
        "cpus this process may use",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    prov(
        "TLC_SIM_THREADS",
        std::env::var("TLC_SIM_THREADS").unwrap_or_else(|_| "unset".into()),
    );
    prov(
        "TLC_ENCODE_THREADS",
        std::env::var("TLC_ENCODE_THREADS").unwrap_or_else(|_| "unset".into()),
    );
    prov("sim_threads", tlc_gpu_sim::sim_threads());
    prov("encode_threads", tlc_core::parallel::encoder_threads());
    prov("simd_level", format!("{:?}", tlc_bitpack::simd_level()));
    prov("cpu_features", tlc_bitpack::cpu_features());

    let report = match args.workload.as_str() {
        "ssb-scan" => scan::run(&args),
        "ingest" => ingest::run(&args),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    if !report.emit() {
        eprintln!(
            "perfbench: {} wrong answer(s), books balanced: {}",
            report.wrong, !report.unbalanced
        );
        std::process::exit(1);
    }
}
