//! `ingest`: the write path. Each cycle ingests a fresh store
//! (`SsbStore::ingest`), reopens it with `SsbStore::open_deep`, runs
//! `Store::verify`, compacts it with merge 2 and reopens it. Cycles
//! repeat until the run's seconds are up; only whole cycles count, and
//! throughput is taken over the median cycle. Every time is adjusted
//! for the host's speed (see `speed.rs`).

use std::path::Path;
use std::time::Instant;

use tlc_core::EncodedColumn;
use tlc_gpu_sim::Device;
use tlc_profile::LatencyHistogram;
use tlc_ssb::stream::compact;
use tlc_ssb::{LoColumn, SsbStore, StreamSpec};
use tlc_store::{Ingest, Store};

use crate::layers::PerLayer;
use crate::speed::{Clock, REF_S};
use crate::trace::Tracer;
use crate::{fresh_dir, median, peak_rss_mib, prov, store_bytes};
use crate::{store_provenance, Args, EndToEnd, Report, SETUP_REPS};

/// About 1 M fact rows in 2 partitions. Every committed file is
/// fsync'd, and on a shared virtual disk each fsync took 1-12 ms: with
/// 16 partitions a cycle's ~340 fsyncs outweighed the encoding. Two
/// partitions keep a cycle mostly generation and encoding, and at
/// 0.7-1.1 s a cycle a 45 s run measures 41-60 cycles, enough for a
/// steady median and a tail below the slowest cycle.
const ROWS: u64 = 1_000_000;
const PARTITIONS: u64 = 2;
const MERGE: usize = 2;

/// Probe samples taken before each cycle.
const PROBES: usize = 5;

fn spec(seed: u64) -> StreamSpec {
    StreamSpec::for_rows(seed, ROWS, (ROWS / 4 / PARTITIONS) as usize)
}

/// The manifest metadata `SsbStore::ingest` writes, in its order, so a
/// store built by [`traced_ingest`] reopens as an `SsbStore`.
fn meta(spec: &StreamSpec) -> [(&'static str, u64); 7] {
    [
        ("ssb.seed", spec.seed),
        ("ssb.orders_per_chunk", spec.orders_per_chunk as u64),
        ("ssb.chunks", spec.chunks as u64),
        ("ssb.chunk_factor", 1),
        ("ssb.n_cust", spec.n_cust as u64),
        ("ssb.n_supp", spec.n_supp as u64),
        ("ssb.n_part", spec.n_part as u64),
    ]
}

/// `SsbStore::ingest` rebuilt from public calls, one partition at a
/// time: `StreamSpec::chunk`, `EncodedColumn::encode_best`,
/// `Ingest::append_partition`, then `Ingest::commit`.
pub fn traced_ingest(tr: &mut Tracer, dir: &Path, spec: &StreamSpec, req: u64) -> Store {
    let names: Vec<&str> = LoColumn::ALL.iter().map(|c| c.name()).collect();
    let mut ing = Ingest::create(dir, &names).expect("create store");
    for (key, value) in meta(spec) {
        ing.set_meta(key, value);
    }
    for c in 0..spec.chunks {
        let lo = tr.span("gen.chunk", req, |_| spec.chunk(c));
        let cols: Vec<EncodedColumn> = tr.span("core.encode", req, |_| {
            LoColumn::ALL
                .iter()
                .map(|col| EncodedColumn::encode_best(lo.column(*col)))
                .collect()
        });
        tr.span("store.append", req, |_| {
            ing.append_partition(&cols).expect("append partition")
        });
    }
    tr.span("store.commit", req, |_| {
        ing.commit().expect("commit manifest")
    })
}

/// `(bytes, digest)` of every committed file, in manifest order.
fn digests(store: &Store) -> Vec<(u32, u32)> {
    store
        .manifest()
        .partitions
        .iter()
        .flat_map(|p| p.files.iter().map(|f| (f.bytes, f.digest)))
        .collect()
}

/// What one cycle's checks found.
struct Cycle {
    digests: Vec<(u32, u32)>,
    bytes: u64,
    rows: u64,
    ok: bool,
}

/// One whole cycle into `dir`; every step is checked.
fn cycle(dir: &Path, spec: &StreamSpec) -> Cycle {
    let store = SsbStore::ingest(dir, spec).expect("ingest");
    let (digests, bytes) = (digests(store.store()), store_bytes(&store));
    let rows = store.store().manifest().total_rows;
    drop(store);
    let (store, recovery) = SsbStore::open_deep(dir).expect("open_deep");
    let stats = store.store().verify().expect("verify");
    let mut ok = recovery.is_clean() && stats.rows == rows;
    drop(store);
    let (store, report) = compact(dir, MERGE).expect("compact");
    drop(store);
    let (store, recovery) = SsbStore::open(dir).expect("reopen after compaction");
    ok &= recovery.is_clean()
        && report.partitions_after == spec.chunks.div_ceil(MERGE)
        && store.store().manifest().total_rows == rows;
    if !ok {
        eprintln!("perfbench: ingest cycle failed its checks");
    }
    Cycle {
        digests,
        bytes,
        rows,
        ok,
    }
}

/// Decode every column of every partition on a simulated V100 and
/// compare it with the regenerated rows. Returns the modelled device
/// seconds of the whole decode, or `None` on any mismatch.
fn round_trip(store: &SsbStore) -> Option<f64> {
    let mut model_s = 0.0;
    for p in 0..store.store().partition_count() {
        let lo = store.regenerate_partition(p);
        for col in LoColumn::ALL {
            let enc = store.store().load_column(p, col.name()).ok()?;
            let dev = Device::v100();
            let on_dev = enc.to_device(&dev);
            dev.reset_timeline();
            let buf = on_dev.decompress(&dev).ok()?;
            model_s += dev.elapsed_seconds();
            if buf.as_slice_unaccounted() != lo.column(col) {
                eprintln!(
                    "perfbench: partition {p} column {} round trip differs",
                    col.name()
                );
                return None;
            }
        }
    }
    Some(model_s)
}

pub fn run(args: &Args) -> Report {
    if args.trace {
        return traced(args);
    }
    let spec = spec(args.seed);

    // Set-up: the first chunk ingested and deep-opened as a
    // one-partition store, which pages in the write path.
    let warm_spec = StreamSpec {
        chunks: 1,
        ..spec.clone()
    };
    let mut clock = Clock::new(PROBES);
    let setup: Vec<_> = (0..SETUP_REPS)
        .map(|_| {
            let dir = fresh_dir(&args.work, "warm");
            let ((), iv) = clock.time(|| {
                drop(SsbStore::ingest(&dir, &warm_spec).expect("warm-up ingest"));
                drop(SsbStore::open_deep(&dir).expect("warm-up open"));
            });
            let _ = std::fs::remove_dir_all(&dir);
            iv
        })
        .collect();

    let mut r = Report::default();
    let mut cycles = Vec::new();
    let mut first: Option<Vec<(u32, u32)>> = None;
    let (mut bytes, mut rows) = (0, 0);
    let dir = args.work.join("ingest");
    let start = Instant::now();
    while r.attempted == 0 || start.elapsed().as_secs_f64() < args.seconds {
        let _ = std::fs::remove_dir_all(&dir);
        r.attempted += 1;
        let (c, iv) = clock.time(|| cycle(&dir, &spec));
        cycles.push(iv);
        // Every cycle must write byte-identical files.
        let same = first.get_or_insert_with(|| c.digests.clone()) == &c.digests;
        if !(c.ok && same) {
            r.wrong += 1;
        }
        (bytes, rows) = (c.bytes, c.rows);
    }
    // Probes after the last cycle close its window.
    clock.time(|| ());
    let peak = peak_rss_mib();
    let mut lat = LatencyHistogram::new();
    for &iv in &cycles {
        lat.record(clock.adjusted(iv));
    }
    let setup_s: Vec<f64> = setup.iter().map(|&iv| clock.adjusted(iv)).collect();
    let raw: Vec<f64> = cycles.iter().map(|iv| iv.wall_s).collect();
    let less_steal: Vec<f64> = cycles.iter().map(|iv| iv.wall_s - iv.steal_s).collect();
    let raw_setup: Vec<f64> = setup.iter().map(|iv| iv.wall_s).collect();
    prov(
        "wall, unadjusted",
        format!(
            "cycle p50 {:.2} ms ({:.2} ms less steal on {}), set-up median {:.4} s, probe median {:.4} ms (reference {:.4} ms)",
            median(&raw) * 1e3,
            median(&less_steal) * 1e3,
            clock.cpu_line(),
            median(&raw_setup),
            clock.median_probe_s() * 1e3,
            REF_S * 1e3
        ),
    );
    let (store, _) = SsbStore::open(&dir).expect("open last store");
    store_provenance(&store);
    prov("pre-compaction compressed bytes", bytes);
    let model_s = round_trip(&store);
    r.attempted += 1;
    if model_s.is_none() {
        r.wrong += 1;
    }
    r.failed = r.wrong;
    let cycle_s = lat.percentile(0.5);

    EndToEnd {
        setup_s: &setup_s,
        throughput_qps: 1.0 / cycle_s,
        mrows_per_s: rows as f64 / cycle_s / 1e6,
        latency: &lat,
        request: "ingest cycle",
        model_device_ms: model_s.unwrap_or(0.0) * 1e3,
        bytes_per_row: bytes as f64 / rows as f64,
        peak_rss_mb: peak,
    }
    .emit(&mut r);
    r
}

fn traced(args: &Args) -> Report {
    let spec = spec(args.seed);
    let mut r = Report::default();
    let mut tr = Tracer::new();

    let untraced_dir = fresh_dir(&args.work, "untraced");
    let t = Instant::now();
    let reference = SsbStore::ingest(&untraced_dir, &spec).expect("ingest");
    let untraced_s = t.elapsed().as_secs_f64();
    let rows = reference.store().manifest().total_rows;
    store_provenance(&reference);

    let dir = fresh_dir(&args.work, "traced");
    let (traced_s, rebuilt) = tr.span("ingest.cycle", 0, |tr| {
        let t = Instant::now();
        let store = tr.span("ingest.write", 0, |tr| traced_ingest(tr, &dir, &spec, 0));
        let traced_s = t.elapsed().as_secs_f64();
        let rebuilt = digests(&store);
        drop(store);
        tr.span("store.verify", 0, |_| {
            let (store, recovery) = SsbStore::open_deep(&dir).expect("open_deep");
            let stats = store.store().verify().expect("verify");
            assert!(
                recovery.is_clean() && stats.rows == rows,
                "rebuilt store fails verify"
            );
        });
        tr.span("store.compact", 0, |_| {
            drop(compact(&dir, MERGE).expect("compact"));
            drop(SsbStore::open(&dir).expect("reopen after compaction"));
        });
        (traced_s, rebuilt)
    });
    r.attempted = 1;
    if rebuilt != digests(reference.store()) {
        eprintln!("perfbench: rebuilt ingest wrote different files than SsbStore::ingest");
        r.wrong = 1;
    }
    r.failed = r.wrong;

    let pl = PerLayer {
        overhead_s: traced_s - untraced_s,
        ..PerLayer::default()
    };
    pl.emit(&mut r, &tr);
    crate::write_trace(args, &tr);
    r
}
