//! The metric catalogue: every name the benchmark prints, with its
//! unit and direction, and for end-to-end metrics the bound by which
//! it may worsen before `compare` calls it a regression.
//! `BENCHMARK.json` lists the same names; `tests/catalogue.rs` keeps
//! the two in step.

/// Which way is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One metric.
#[derive(Clone, Copy, Debug)]
pub struct Metric {
    /// Name, as printed.
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// End-to-end only: allowed worsening as a share of the baseline.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees, per workload.
pub const END_TO_END: [Metric; 8] = [
    e2e("qps", "queries/s", Higher, 0.25),
    e2e("latency_p50_ms", "ms", Lower, 0.25),
    e2e("latency_p99_ms", "ms", Lower, 0.25),
    e2e("reads_per_query", "pages", Lower, 0.15),
    e2e("mean_avg_precision", "ratio", Higher, 0.02),
    e2e("setup_s", "s", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.10),
    e2e("index_bytes_per_posting", "B", Lower, 0.01),
];

/// Single layers, from the traced pass.
pub const PER_LAYER: [Metric; 39] = [
    layer("corpus.generate_s", "s", Lower),
    layer("index.build_s", "s", Lower),
    layer("core.workload.rank_s", "s", Lower),
    layer("index.page_file_export_s", "s", Lower),
    layer("index.total_pages", "pages", Lower),
    layer("index.entries_per_page", "entries", Higher),
    layer("core.query.resolve_us", "us", Lower),
    layer("core.eval.total_us", "us", Lower),
    layer("core.eval.self_us", "us", Lower),
    layer("core.eval.ns_per_entry", "ns", Lower),
    layer("core.eval.entries_per_query", "entries", Lower),
    layer("core.eval.pages_per_query", "pages", Lower),
    layer("core.eval.terms_skipped_share", "ratio", Higher),
    layer("core.eval.peak_accumulators", "count", Lower),
    layer("core.eval.bt_inquiries_per_query", "count", Lower),
    layer("core.eval.baf_estimate_abs_error_per_query", "pages", Lower),
    layer("storage.policy.begin_query_us", "us", Lower),
    layer("storage.pool.fetch_us", "us", Lower),
    layer("storage.pool.hit_ratio", "ratio", Higher),
    layer("storage.pool.evictions_per_query", "pages", Lower),
    layer("storage.pool.occupancy", "ratio", Higher),
    layer("storage.pool.retries", "count", Lower),
    layer("storage.pool.gave_up", "count", Lower),
    layer("storage.backend.read_us", "us", Lower),
    layer("storage.backend.device_reads_per_query", "pages", Lower),
    layer("storage.backend.sequential_share", "ratio", Higher),
    layer("storage.sched.io_wait_us_per_query", "us", Lower),
    layer("storage.sched.overlap_hits", "count", Higher),
    layer("storage.sched.prefetch_wasted_share", "ratio", Lower),
    layer("storage.codec.decode_ns_per_entry", "ns", Lower),
    layer("storage.sharded.lock_wait_share", "ratio", Lower),
    layer("storage.sharded.batch_splits", "count", Lower),
    layer("engine.server.solo_qps", "queries/s", Higher),
    layer("engine.server.scaling_efficiency", "ratio", Higher),
    layer("engine.server.reads_inflation", "ratio", Lower),
    layer("engine.ledger.eval_share", "ratio", Higher),
    layer("bench.closure_error_share", "ratio", Lower),
    layer("bench.trace_overhead_share", "ratio", Lower),
    layer("bench.failed_share", "ratio", Lower),
];

/// `BENCHMARK.json`, generated from the catalogue and the workload
/// table so the two cannot drift (`run.sh manifest`).
pub fn manifest(run_seconds: f64) -> serde::Value {
    use crate::json::{num, obj, text};
    use serde::Value;
    let metric = |m: &Metric, bounded: bool| {
        let mut fields = vec![
            ("name", text(m.name)),
            ("unit", text(m.unit)),
            ("better", text(m.better.as_str())),
        ];
        if bounded {
            fields.push(("bound", num(m.bound)));
        }
        obj(fields)
    };
    obj([
        (
            "command",
            Value::Arr(vec![text("bash"), text("benchmark/run.sh")]),
        ),
        ("paths", Value::Arr(vec![text("benchmark")])),
        ("run_seconds", num(run_seconds)),
        (
            "workloads",
            Value::Arr(
                crate::workloads::WORKLOADS
                    .iter()
                    .map(|w| obj([("name", text(w.name)), ("why", text(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(END_TO_END.iter().map(|m| metric(m, true)).collect()),
        ),
        (
            "per_layer",
            Value::Arr(PER_LAYER.iter().map(|m| metric(m, false)).collect()),
        ),
    ])
}
