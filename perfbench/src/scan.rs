//! `ssb-scan`: the paper's SSB workload, closed loop with one client.
//!
//! Each round submits all 13 queries of `QueryId::ALL` in a seeded
//! order through `Service` with the partition cache off (the
//! `tlc serve` default) and waits for each answer before the next, so
//! every query pays the full storage ladder and the fused kernels.
//! Rounds repeat until the run's seconds are up; only whole rounds
//! count, so every run measures the same query mix. Every time is
//! adjusted for the host's speed (see `speed.rs`). Throughput is taken
//! over a round built from each query's median latency, so a query
//! slowed by the host in one round does not move it.
//!
//! The traced run also measures the serving and cache layers, which the
//! closed loop leaves idle: two bursts of the 13 queries through a
//! service whose cache holds the store (see [`burst`]).

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use tlc_core::EncodedColumn;
use tlc_gpu_sim::Device;
use tlc_profile::LatencyHistogram;
use tlc_rng::Rng;
use tlc_serve::{Outcome, QueryAnswer, QuerySpec, Request, ServeConfig, Service};
use tlc_ssb::{LoColumns, QueryId, ResilienceReport, SsbStore, StreamSpec};
use tlc_store::ingest::file_digest;

use crate::check::Checker;
use crate::ingest::traced_ingest;
use crate::layers::{cache_delta, PerLayer, ServeLayer};
use crate::speed::{Clock, Interval, REF_S};
use crate::trace::Tracer;
use crate::{fresh_dir, median, peak_rss_mib, prov, store_provenance, Args};
use crate::{store_bytes, EndToEnd, Report, SETUP_REPS};

/// About 1 M fact rows in 16 partitions: a round of 13 queries takes
/// 1.9-2.6 s on one simulator thread, so a 45 s run measures 18-26
/// rounds and each query's median has that many samples.
const ROWS: u64 = 1_000_000;
const PARTITIONS: u64 = 16;

/// Probe samples taken before each query.
const PROBES: usize = 3;

pub fn spec(seed: u64) -> StreamSpec {
    StreamSpec::for_rows(seed, ROWS, (ROWS / 4 / PARTITIONS) as usize)
}

/// Ask for q1.1 and wait for its answer: the warm-up before timing.
fn warm_up(svc: &Service) {
    let r = svc
        .submit(Request::new(u64::MAX, QuerySpec::Flight(QueryId::Q11)))
        .expect("warm-up request admitted")
        .wait();
    assert!(
        matches!(r.outcome, Outcome::Completed(_)),
        "warm-up request failed: {:?}",
        r.outcome
    );
}

/// A store ready to serve, and how long each set-up took.
struct Served {
    store: Arc<SsbStore>,
    svc: Service,
    setup: Vec<Interval>,
}

/// The set-up, run [`SETUP_REPS`] times: each repetition ingests a
/// fresh store, opens it, starts the service (cache off) and warms it
/// up; the last one is kept. A traced run builds the store once,
/// through the rebuilt ingest.
fn set_up(
    args: &Args,
    spec: &StreamSpec,
    clock: &mut Clock,
    mut tracer: Option<&mut Tracer>,
) -> Served {
    let dir = fresh_dir(&args.work, "store");
    let mut setup = Vec::new();
    let reps = if tracer.is_some() { 1 } else { SETUP_REPS };
    for rep in 0..reps {
        let _ = std::fs::remove_dir_all(&dir);
        let ((store, svc), iv) = clock.time(|| {
            match tracer.as_deref_mut() {
                Some(tr) => tr.span("setup", 0, |tr| {
                    let store = traced_ingest(tr, &dir, spec, 0);
                    tr.span("store.verify", 0, |_| store.verify().expect("verify"));
                }),
                None => drop(SsbStore::ingest(&dir, spec).expect("ingest")),
            }
            let (store, recovery) = SsbStore::open(&dir).expect("open store");
            assert!(
                recovery.is_clean(),
                "fresh store needed recovery: {recovery}"
            );
            let store = Arc::new(store);
            let svc = Service::start(Arc::clone(&store), ServeConfig::default());
            warm_up(&svc);
            (store, svc)
        });
        setup.push(iv);
        if rep + 1 == reps {
            prov(
                "peak RSS after set-up",
                format!("{:.1} MiB", peak_rss_mib()),
            );
            return Served { store, svc, setup };
        }
        svc.shutdown();
    }
    unreachable!("the last repetition returns")
}

pub fn run(args: &Args) -> Report {
    if args.trace {
        return traced(args);
    }
    let spec = spec(args.seed);
    let mut clock = Clock::new(PROBES);
    let served = set_up(args, &spec, &mut clock, None);
    store_provenance(&served.store);

    let mut rng = Rng::seed_from_u64(args.seed ^ 0x55B5_CA77);
    let mut timed: Vec<(&'static str, Interval)> = Vec::new();
    let mut answers: Vec<(QueryId, QueryAnswer)> = Vec::new();
    let (mut rows, mut device_s) = (0u64, 0.0f64);
    let mut rounds = 0u64;
    let mut r = Report::default();
    let start = Instant::now();
    while rounds == 0 || start.elapsed().as_secs_f64() < args.seconds {
        let mut order = QueryId::ALL;
        rng.shuffle(&mut order);
        for q in order {
            r.attempted += 1;
            let req = Request::new(r.attempted, QuerySpec::Flight(q));
            let (resp, iv) = clock.time(|| served.svc.submit(req).map(|t| t.wait()));
            let Ok(resp) = resp else {
                r.failed += 1;
                continue;
            };
            match resp.outcome {
                Outcome::Completed(out) => {
                    timed.push((q.name(), iv));
                    rows += out.rows;
                    device_s += out.device_s;
                    answers.push((q, out.answer));
                }
                _ => r.failed += 1,
            }
        }
        rounds += 1;
    }
    // Probes after the last query close its window.
    clock.time(|| ());
    let peak = peak_rss_mib();
    let books = served.svc.shutdown();
    r.unbalanced = !books.is_balanced();

    // Per query: (raw, adjusted) wall seconds of every completed request.
    let mut per_query: BTreeMap<&'static str, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
    let mut lat = LatencyHistogram::new();
    for &(q, iv) in &timed {
        let adjusted = clock.adjusted(iv);
        lat.record(adjusted);
        let e = per_query.entry(q).or_default();
        e.0.push(iv.wall_s);
        e.1.push(adjusted);
    }
    // A round as its queries' medians add up.
    let raw_round: f64 = per_query.values().map(|v| median(&v.0)).sum();
    let round: f64 = per_query.values().map(|v| median(&v.1)).sum();
    prov(
        "rounds",
        format!(
            "{rounds} in {:.1} s; sum of per-query medians {round:.4} s adjusted, {raw_round:.4} s wall",
            start.elapsed().as_secs_f64()
        ),
    );
    let raw: Vec<f64> = timed.iter().map(|(_, iv)| iv.wall_s).collect();
    let less_steal: Vec<f64> = timed.iter().map(|(_, iv)| iv.wall_s - iv.steal_s).collect();
    let raw_setup: Vec<f64> = served.setup.iter().map(|iv| iv.wall_s).collect();
    prov(
        "wall, unadjusted",
        format!(
            "query p50 {:.2} ms ({:.2} ms less steal on {}), set-up median {:.4} s, probe median {:.4} ms (reference {:.4} ms)",
            median(&raw) * 1e3,
            median(&less_steal) * 1e3,
            clock.cpu_line(),
            median(&raw_setup),
            clock.median_probe_s() * 1e3,
            REF_S * 1e3
        ),
    );

    let mut checker = Checker::new(&spec);
    r.wrong = checker.count_wrong(answers.iter().map(|(q, a)| (*q, a)));
    r.failed += r.wrong;
    let completed = answers.len() as f64;
    let total_rows = served.store.store().manifest().total_rows;

    let setup_s: Vec<f64> = served.setup.iter().map(|&iv| clock.adjusted(iv)).collect();
    EndToEnd {
        setup_s: &setup_s,
        throughput_qps: per_query.len() as f64 / round,
        mrows_per_s: rows as f64 / rounds as f64 / round / 1e6,
        latency: &lat,
        request: "query",
        model_device_ms: device_s / completed * 1e3,
        bytes_per_row: store_bytes(&served.store) as f64 / total_rows as f64,
        peak_rss_mb: peak,
    }
    .emit(&mut r);
    r
}

/// What the rebuilt per-partition path returns for one query.
struct Rebuilt {
    groups: Vec<(u64, u64)>,
    model_s: f64,
    rows: u64,
    read_bytes: u64,
}

/// The streaming executor's per-partition path rebuilt from public
/// calls, one partition at a time: read, digest check, parse, upload,
/// fused query, then the partition-order merge.
fn rebuilt_query(tr: &mut Tracer, store: &SsbStore, q: QueryId, req: u64) -> Rebuilt {
    let s = store.store();
    let dims = tr.span("ssb.dims", req, |_| store.spec().dims());
    let mut merged: BTreeMap<u64, u64> = BTreeMap::new();
    let (mut model_s, mut rows, mut read_bytes) = (0.0, 0u64, 0u64);
    for p in 0..s.partition_count() {
        let (groups, part_model_s) = tr.span("exec.partition", req, |tr| {
            let mut cols: Vec<(tlc_ssb::LoColumn, EncodedColumn)> = Vec::new();
            for &c in q.columns() {
                let idx = s
                    .manifest()
                    .column_index(c.name())
                    .expect("column in layout");
                let entry = s.manifest().partitions[p].files[idx];
                let bytes = tr.span("store.read", req, |_| {
                    std::fs::read(s.path_of(p, c.name())).expect("read partition file")
                });
                read_bytes += bytes.len() as u64;
                let intact = tr.span("store.digest", req, |_| {
                    bytes.len() == entry.bytes as usize && file_digest(&bytes) == entry.digest
                });
                assert!(intact, "partition {p} column {} fails its digest", c.name());
                let col = tr.span("core.parse", req, |_| {
                    EncodedColumn::from_bytes(&bytes).expect("parse partition file")
                });
                cols.push((c, col));
            }
            let (dev, lo_cols) = tr.span("sim.upload", req, |_| {
                let dev = Device::v100();
                let lo_cols = LoColumns::from_encoded(&dev, cols.iter().map(|(c, e)| (*c, e)));
                (dev, lo_cols)
            });
            tr.span("query.fused", req, |_| {
                dev.reset_timeline();
                let mut report = ResilienceReport::default();
                let groups =
                    tlc_ssb::resilience::run_query_checked(&dev, &dims, &lo_cols, q, &mut report)
                        .expect("fused query on a clean device");
                (groups, dev.elapsed_seconds())
            })
        });
        model_s += part_model_s;
        rows += s.rows(p);
        tr.span("exec.merge", req, |_| {
            for (g, v) in groups {
                let e = merged.entry(g).or_insert(0);
                *e = e.wrapping_add(v);
            }
        });
    }
    Rebuilt {
        groups: merged.into_iter().filter(|&(_, v)| v != 0).collect(),
        model_s,
        rows,
        read_bytes,
    }
}

/// One round of all 13 queries in `QueryId::ALL` order through the
/// service, closed loop: per-query wall seconds and answers.
fn service_round(svc: &Service) -> Vec<(f64, QueryAnswer)> {
    QueryId::ALL
        .iter()
        .enumerate()
        .map(|(i, &q)| {
            let t = Instant::now();
            let resp = svc
                .submit(Request::new(i as u64, QuerySpec::Flight(q)))
                .expect("closed loop never fills the queue")
                .wait();
            match resp.outcome {
                Outcome::Completed(out) => (t.elapsed().as_secs_f64(), out.answer),
                other => panic!("{} did not complete: {other:?}", q.name()),
            }
        })
        .collect()
}

/// What a burst showed of the serving layer from outside.
#[derive(Default)]
struct Burst {
    depth: Vec<f64>,
    latency: LatencyHistogram,
    model_latency: LatencyHistogram,
    answers: Vec<(QueryId, QueryAnswer)>,
}

/// Submit every query of `QueryId::ALL` twice in a row, back to back
/// with `Service::submit` traced, then wait for all of them. Workers
/// pop up to the batch window at once, so the burst runs as
/// shared-scan waves in which each pair is deduplicated.
fn burst(svc: &Service, tr: &mut Tracer, b: &mut Burst) {
    let start = Instant::now();
    let tickets: Vec<_> = QueryId::ALL
        .iter()
        .flat_map(|&q| [q, q])
        .enumerate()
        .map(|(i, q)| {
            b.depth.push(svc.queue_depth() as f64);
            let req = Request::new(i as u64, QuerySpec::Flight(q));
            let ticket = tr.span("serve.submit", i as u64, |_| svc.submit(req));
            (q, ticket.expect("the queue holds a whole burst"))
        })
        .collect();
    for (q, ticket) in tickets {
        let resp = ticket.wait();
        b.latency.record(start.elapsed().as_secs_f64());
        b.model_latency.record(resp.latency_s());
        match resp.outcome {
            Outcome::Completed(out) => b.answers.push((q, out.answer)),
            other => panic!("burst query did not complete: {other:?}"),
        }
    }
}

fn traced(args: &Args) -> Report {
    let spec = spec(args.seed);
    let mut tr = Tracer::new();
    let served = set_up(args, &spec, &mut Clock::new(1), Some(&mut tr));
    store_provenance(&served.store);
    let mut r = Report::default();

    // Measured wall per query at the pinned thread count.
    let round_n = service_round(&served.svc);
    r.unbalanced |= !served.svc.shutdown().is_balanced();

    // The serving and cache layers: two bursts through a service whose
    // cache holds the whole store, the first cold and the second warm.
    // The end-to-end run never uses this service.
    let cached = Service::start(
        served.store.clone(),
        ServeConfig {
            cache_budget_bytes: 2 * store_bytes(&served.store),
            ..ServeConfig::default()
        },
    );
    let before = cached.metrics();
    let mut bursts = Burst::default();
    tr.span("serve.bursts", 0, |tr| {
        burst(&cached, tr, &mut bursts);
        burst(&cached, tr, &mut bursts);
    });
    let after = cached.shutdown();
    r.unbalanced |= !after.is_balanced();
    prov(
        "burst latency p50, measured next to modelled",
        format!(
            "{:.3} ms measured from the burst's start, {:.3} ms modelled",
            bursts.latency.percentile(0.5) * 1e3,
            bursts.model_latency.percentile(0.5) * 1e3
        ),
    );

    // The same round at one simulator thread: the wall the rebuilt
    // single-threaded path is compared against.
    tlc_gpu_sim::set_sim_threads_override(Some(1));
    let svc1 = Service::start(served.store.clone(), ServeConfig::default());
    warm_up(&svc1);
    let t1 = Instant::now();
    let round_1 = service_round(&svc1);
    let untraced_wall_1 = t1.elapsed().as_secs_f64();
    r.unbalanced |= !svc1.shutdown().is_balanced();

    let t = Instant::now();
    let rebuilt: Vec<Rebuilt> = QueryId::ALL
        .iter()
        .enumerate()
        .map(|(i, &q)| {
            tr.span("exec.query", i as u64, |tr| {
                rebuilt_query(tr, &served.store, q, i as u64)
            })
        })
        .collect();
    let traced_wall_1 = t.elapsed().as_secs_f64();
    tlc_gpu_sim::set_sim_threads_override(None);

    let mut checker = Checker::new(&spec);
    println!();
    println!(
        "  {:<5} {:>9} {:>9} {:>9} {:>9} {:>9} {:>10} {:>10}",
        "query", "wall_s", "wall1_s", "fused_s", "ladder_s", "upload_s", "model_ms", "fused/mdl"
    );
    let leaf = [
        "ssb.dims",
        "store.read",
        "store.digest",
        "core.parse",
        "sim.upload",
        "query.fused",
        "exec.merge",
    ];
    let mut spans_total = 0.0;
    let mut other = 0.0;
    for (i, &q) in QueryId::ALL.iter().enumerate() {
        let req = i as u64;
        let b = |name: &str| tr.busy_req(name, req);
        let spans: f64 = leaf.iter().map(|n| b(n)).sum();
        spans_total += spans;
        other += round_1[i].0 - spans;
        let rebuilt_answer = QueryAnswer::Groups(rebuilt[i].groups.clone());
        for got in [&round_n[i].1, &round_1[i].1, &rebuilt_answer] {
            r.attempted += 1;
            r.wrong += checker.count_wrong([(q, got)]);
        }
        println!(
            "  {:<5} {:>9.4} {:>9.4} {:>9.4} {:>9.4} {:>9.4} {:>10.4} {:>10.1}",
            q.name(),
            round_n[i].0,
            round_1[i].0,
            b("query.fused"),
            b("store.read") + b("store.digest") + b("core.parse"),
            b("sim.upload"),
            rebuilt[i].model_s * 1e3,
            b("query.fused") / rebuilt[i].model_s
        );
    }
    r.attempted += bursts.answers.len() as u64;
    r.wrong += checker.count_wrong(bursts.answers.iter().map(|(q, a)| (*q, a)));
    r.failed = r.wrong;
    let model_s: f64 = rebuilt.iter().map(|b| b.model_s).sum();
    let ladder = tr.busy("store.read") + tr.busy("store.digest") + tr.busy("core.parse");
    println!(
        "  {:<5} {:>9.4} {:>9.4} {:>9.4} {:>9.4} {:>9.4} {:>10.4} {:>10.1}",
        "all",
        round_n.iter().map(|a| a.0).sum::<f64>(),
        round_1.iter().map(|a| a.0).sum::<f64>(),
        tr.busy("query.fused"),
        ladder,
        tr.busy("sim.upload"),
        model_s * 1e3,
        tr.busy("query.fused") / model_s
    );
    println!(
        "  measured wall is {:.0}x the modelled device time; the fused kernels alone are {:.0}x",
        round_1.iter().map(|a| a.0).sum::<f64>() / model_s,
        tr.busy("query.fused") / model_s
    );

    let pl = PerLayer {
        read_bytes: rebuilt.iter().map(|b| b.read_bytes).sum::<u64>() as f64,
        query_rows: rebuilt.iter().map(|b| b.rows).sum::<u64>() as f64,
        exec_other_s: other,
        coverage: spans_total / untraced_wall_1,
        wall_over_model: tr.busy("query.fused") / model_s,
        model_device_ms: model_s / QueryId::ALL.len() as f64 * 1e3,
        overhead_s: traced_wall_1 - untraced_wall_1,
        serve: ServeLayer::measure(&tr, &bursts.depth, &bursts.model_latency, &before, &after),
        cache: cache_delta(&before.cache, &after.cache),
    };
    pl.emit(&mut r, &tr);
    crate::write_trace(args, &tr);
    r
}
