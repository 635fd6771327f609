//! The per-layer metrics of a traced run. Every workload reports the
//! same set; a layer a workload does not exercise reads 0 there.

use tlc_profile::LatencyHistogram;
use tlc_serve::MetricsSnapshot;
use tlc_store::CacheStats;

use crate::trace::{Tracer, LAYERS};
use crate::{prov, Report};

/// Busy-seconds metrics read straight off the spans: (metric, span).
const SPAN_METRICS: [(&str, &str); 13] = [
    ("store.read_s", "store.read"),
    ("store.digest_s", "store.digest"),
    ("core.parse_s", "core.parse"),
    ("sim.upload_s", "sim.upload"),
    ("query.fused_s", "query.fused"),
    ("ssb.dims_s", "ssb.dims"),
    ("exec.merge_s", "exec.merge"),
    ("gen.chunk_s", "gen.chunk"),
    ("core.encode_s", "core.encode"),
    ("store.append_s", "store.append"),
    ("store.commit_s", "store.commit"),
    ("store.verify_s", "store.verify"),
    ("store.compact_s", "store.compact"),
];

/// What `tlc-serve` showed from the outside during a traced phase.
#[derive(Default)]
pub struct ServeLayer {
    pub submit_us: f64,
    pub depth_mean: f64,
    pub depth_max: f64,
    pub wave_fill: f64,
    pub shared_decodes: f64,
    pub launches_saved: f64,
    pub model_latency_p50_ms: f64,
}

impl ServeLayer {
    /// `before`/`after` bracket the traced phase, so warm-up traffic
    /// does not count.
    pub fn measure(
        tr: &Tracer,
        depth: &[f64],
        model_latency: &LatencyHistogram,
        before: &MetricsSnapshot,
        after: &MetricsSnapshot,
    ) -> Self {
        let completed = after.completed - before.completed;
        let batched = after.batched_queries - before.batched_queries;
        prov(
            "serve.wave_fill base",
            format!("{batched} batched of {completed} completed"),
        );
        let submits = tr.count("serve.submit").max(1) as f64;
        ServeLayer {
            submit_us: tr.busy("serve.submit") / submits * 1e6,
            depth_mean: depth.iter().sum::<f64>() / depth.len().max(1) as f64,
            depth_max: depth.iter().copied().fold(0.0, f64::max),
            wave_fill: batched as f64 / completed.max(1) as f64,
            shared_decodes: (after.shared_decodes - before.shared_decodes) as f64,
            launches_saved: (after.launches_saved - before.launches_saved) as f64,
            model_latency_p50_ms: model_latency.percentile(0.5) * 1e3,
        }
    }
}

#[derive(Default)]
pub struct PerLayer {
    pub read_bytes: f64,
    pub query_rows: f64,
    pub exec_other_s: f64,
    pub coverage: f64,
    pub wall_over_model: f64,
    pub model_device_ms: f64,
    pub overhead_s: f64,
    pub serve: ServeLayer,
    /// Cache counters over the traced phase (`None`: cache off).
    pub cache: Option<CacheStats>,
}

/// Cache counters accrued between two snapshots.
pub fn cache_delta(before: &Option<CacheStats>, after: &Option<CacheStats>) -> Option<CacheStats> {
    let (b, a) = (before.as_ref()?, after.as_ref()?);
    Some(CacheStats {
        hits: a.hits - b.hits,
        misses: a.misses - b.misses,
        evictions: a.evictions - b.evictions,
        revalidations: a.revalidations - b.revalidations,
        coalesced: a.coalesced - b.coalesced,
        shared_readers: a.shared_readers - b.shared_readers,
        bytes_resident: a.bytes_resident,
        budget_bytes: a.budget_bytes,
    })
}

impl PerLayer {
    pub fn emit(&self, r: &mut Report, tr: &Tracer) {
        for (metric, span) in SPAN_METRICS {
            r.metric(metric, tr.busy(span), "s");
        }
        r.metric("store.read_bytes", self.read_bytes, "B");
        r.metric("query.rows", self.query_rows, "rows");
        r.metric("exec.other_s", self.exec_other_s, "s");
        r.metric("trace.coverage", self.coverage, "ratio");
        r.metric("trace.wall_over_model", self.wall_over_model, "ratio");
        r.metric("model.device_ms", self.model_device_ms, "ms");
        r.metric("trace.overhead_s", self.overhead_s, "s");

        let s = &self.serve;
        r.metric("serve.submit_us", s.submit_us, "us");
        r.metric("serve.queue_depth_mean", s.depth_mean, "jobs");
        r.metric("serve.queue_depth_max", s.depth_max, "jobs");
        r.metric("serve.wave_fill", s.wave_fill, "ratio");
        r.metric("serve.shared_decodes", s.shared_decodes, "count");
        r.metric("serve.launches_saved", s.launches_saved, "count");
        r.metric("serve.model_latency_p50_ms", s.model_latency_p50_ms, "ms");

        let c = self.cache.clone().unwrap_or_default();
        r.metric("cache.hits", c.hits as f64, "count");
        r.metric("cache.misses", c.misses as f64, "count");
        r.metric("cache.evictions", c.evictions as f64, "count");
        r.metric("cache.coalesced", c.coalesced as f64, "count");
        let lookups = (c.hits + c.misses).max(1) as f64;
        r.metric("cache.hit_ratio", c.hits as f64 / lookups, "ratio");

        let wall = tr.traced_wall();
        prov("traced wall (sum of root spans)", format!("{wall:.4} s"));
        for layer in LAYERS {
            let busy = tr.layer_busy(layer);
            prov(&format!("{layer} self busy"), format!("{busy:.4} s"));
            r.metric(&format!("share.{layer}"), busy / wall, "ratio");
        }
    }
}
