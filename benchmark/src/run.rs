//! Running workloads: set-up, the timed passes, the traced pass, and
//! the report they produce.

use crate::adapter::{
    decode_meters, span, Backend, Counts, Geometry, SoloRig, StageTimes, StoreCounts, Testbed,
};
use crate::catalogue::PER_LAYER;
use crate::json::{hex, num, nums, obj};
use crate::stream::Fnv;
use crate::trace::SpanRecorder;
use crate::workloads::{
    add_counts, duo_pass, duo_threads, quantile_ms, solo_pass, Pass, Plan, Shape, Workload,
    TRACED_QUERIES,
};
use serde::Value;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Passes a run makes at least, short of using twice its budget.
const MIN_PASSES: usize = 3;
/// Times the testbed is built per invocation; `setup_s` is the median.
const SETUP_REPS: usize = 3;
/// Collection scale of `--quick`.
pub const QUICK_SCALE: f64 = 0.0625;
/// Sessions per stream under `--quick` (≈ 300 queries).
const QUICK_SESSIONS: usize = 13;

type StagePick = fn(&StageTimes) -> f64;

/// The set-up stages, by the per-layer metric that reports each.
const STAGES: [(&str, StagePick); 4] = [
    ("corpus.generate_s", |s| s.generate_s),
    ("index.build_s", |s| s.index_s),
    ("core.workload.rank_s", |s| s.rank_s),
    ("index.page_file_export_s", |s| s.export_s),
];

/// What the command line chose.
#[derive(Clone, Debug)]
pub struct Options {
    /// Stream seed.
    pub seed: u64,
    /// Time budget of the timed passes, seconds.
    pub seconds: f64,
    /// Collection scale.
    pub scale: f64,
    /// Run the timed passes (end-to-end metrics).
    pub timed: bool,
    /// Run the traced pass (per-layer metrics).
    pub trace: bool,
    /// One set-up, one short pass per workload.
    pub quick: bool,
    /// Where the page file and the span files go.
    pub out_dir: PathBuf,
}

/// Median (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The testbed and how long each build of it took.
pub struct Setup {
    /// The testbed workloads run on (the last one built).
    pub bed: Testbed,
    /// Stage times of every build.
    pub reps: Vec<StageTimes>,
}

impl Setup {
    /// Builds the testbed [`SETUP_REPS`] times (once under `--quick`),
    /// dropping each before the next so peak memory is one testbed's.
    pub fn new(opts: &Options) -> Result<Setup, String> {
        std::fs::create_dir_all(&opts.out_dir)
            .map_err(|e| format!("create {}: {e}", opts.out_dir.display()))?;
        let page_file = opts
            .out_dir
            .join(format!("pages-{}.bfpg", std::process::id()));
        let mut reps = Vec::new();
        let mut bed = None;
        for _ in 0..if opts.quick { 1 } else { SETUP_REPS } {
            drop(bed.take());
            let built = Testbed::build(Geometry::Paper(opts.scale), &page_file)?;
            reps.push(built.stages);
            bed = Some(built);
        }
        Ok(Setup {
            bed: bed.expect("at least one set-up rep"),
            reps,
        })
    }

    /// Median over the builds of one stage (or of the total).
    pub fn stage(&self, pick: impl Fn(&StageTimes) -> f64) -> f64 {
        median(&self.reps.iter().map(pick).collect::<Vec<_>>())
    }

    /// Page-file bytes per posting.
    pub fn bytes_per_posting(&self) -> f64 {
        self.bed.page_file_bytes as f64 / self.bed.total_postings as f64
    }
}

/// A timing with the per-pass values behind it.
#[derive(Clone, Debug)]
pub struct Measured {
    /// Median over passes.
    pub value: f64,
    /// One value per pass, in order.
    pub reps: Vec<f64>,
}

/// What the timed passes of one workload produced.
#[derive(Clone, Debug)]
pub struct Timed {
    /// `qps`, `latency_p50_ms`, `latency_p99_ms`, `reads_per_query`,
    /// `mean_avg_precision`.
    pub metrics: Vec<(&'static str, Measured)>,
    /// Latency samples behind each pass's percentiles.
    pub samples_per_pass: usize,
    /// Counts and digest that repeated exactly (single-session only).
    pub exact: Option<(Counts, u64)>,
}

/// Everything one workload reported.
#[derive(Clone, Debug)]
pub struct WorkloadReport {
    /// The workload.
    pub workload: &'static Workload,
    /// Load-generating threads.
    pub threads: usize,
    /// Pool size.
    pub frames: usize,
    /// Stream footprint, pages.
    pub footprint: usize,
    /// Timed queries per pass.
    pub queries_per_pass: usize,
    /// Digest of the timed streams.
    pub stream_digest: u64,
    /// Queries and invariants attempted.
    pub attempted: u64,
    /// Of those, failed.
    pub failed: u64,
    /// End-to-end results, when the timed passes ran.
    pub timed: Option<Timed>,
    /// Per-layer results in catalogue order, when the traced pass ran.
    pub layers: Option<Vec<(&'static str, f64)>>,
}

/// Runs one workload as `opts` asks.
pub fn run_workload(
    setup: &Setup,
    workload: &'static Workload,
    opts: &Options,
) -> Result<WorkloadReport, String> {
    let bed = &setup.bed;
    let plan = Plan::new(
        bed,
        workload,
        opts.seed,
        opts.quick.then_some(QUICK_SESSIONS),
    )?;
    let threads = plan.timed.len();
    let mut report = WorkloadReport {
        workload,
        threads,
        frames: plan.frames,
        footprint: plan.footprint,
        queries_per_pass: plan.timed_queries(),
        stream_digest: plan.stream_digest,
        attempted: 0,
        failed: 0,
        timed: None,
        layers: None,
    };
    if opts.timed {
        let timed = timed_passes(bed, &plan, opts, &mut report)?;
        report.timed = Some(timed);
    }
    if opts.trace {
        let mut layers = match workload.shape {
            Shape::Solo { .. } => traced_solo(bed, &plan, opts, &mut report)?,
            Shape::Duo => traced_duo(bed, &plan, &mut report)?,
        };
        for (name, pick) in STAGES {
            layers.insert(name, setup.stage(pick));
        }
        layers.insert("index.total_pages", bed.total_pages() as f64);
        layers.insert("index.entries_per_page", bed.entries_per_page() as f64);
        layers.insert(
            "bench.failed_share",
            report.failed as f64 / report.attempted.max(1) as f64,
        );
        // A metric that does not apply to this workload's shape reads 0.
        report.layers = Some(
            PER_LAYER
                .iter()
                .map(|m| (m.name, layers.get(m.name).copied().unwrap_or(0.0)))
                .collect(),
        );
    }
    Ok(report)
}

fn one_pass(bed: &Testbed, plan: &Plan<'_>) -> Result<Pass, String> {
    match plan.workload.shape {
        Shape::Solo { .. } => solo_pass(bed, plan, None),
        Shape::Duo => duo_pass(bed, plan, plan.timed.len()),
    }
}

/// Repeats passes until the next would overrun the time budget (at
/// least [`MIN_PASSES`] unless they take over twice the budget; one
/// under `--quick`), checks what must repeat
/// exactly, and reduces the timings to medians.
fn timed_passes(
    bed: &Testbed,
    plan: &Plan<'_>,
    opts: &Options,
    report: &mut WorkloadReport,
) -> Result<Timed, String> {
    let name = plan.workload.name;
    let solo = matches!(plan.workload.shape, Shape::Solo { .. });
    let min_passes = if opts.quick { 1 } else { MIN_PASSES };
    let started = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    loop {
        let pass_started = Instant::now();
        passes.push(one_pass(bed, plan)?);
        let spent = started.elapsed().as_secs_f64();
        let next_ends = spent + pass_started.elapsed().as_secs_f64();
        // The minimum gives way once a run has used twice its budget:
        // on a machine in a slow phase three passes can take a minute,
        // and the driver's wall-clock cap is for all runs together.
        let enough = passes.len() >= min_passes || spent > 2.0 * opts.seconds;
        if enough && next_ends > opts.seconds {
            break;
        }
    }
    for p in &passes {
        report.attempted += p.attempted;
        report.failed += p.failed;
    }
    if solo {
        report.attempted += 1;
        if passes.iter().any(|p| p.exact() != passes[0].exact()) {
            eprintln!("[{name}] check failed: counts or answer digest differ between passes");
            report.failed += 1;
        }
    }
    if let Shape::Solo {
        backend: Backend::FileQd4,
        ..
    } = plan.workload.shape
    {
        // The repo's event-identity contract: the file tier behind the
        // scheduler serves the same page stream as the simulator.
        let reference = solo_pass(bed, plan, Some(Backend::DiskSim))?;
        report.attempted += 1 + reference.attempted;
        report.failed += reference.failed;
        if reference.reads_fingerprint != passes[0].reads_fingerprint {
            eprintln!("[{name}] check failed: per-query disk reads differ from a DiskSim pool");
            report.failed += 1;
        }
    }
    let reduce = |f: &dyn Fn(&Pass) -> f64| {
        let reps: Vec<f64> = passes.iter().map(f).collect();
        Measured {
            value: median(&reps),
            reps,
        }
    };
    // Every pass submits the same queries in the same order, so a
    // query's latency is taken as its median over the passes before
    // the percentiles are read: a stall that hits one pass's copy of a
    // query (this sandbox has many) then moves neither p50 nor p99.
    // Passes that lost queries to errors cannot be aligned; the run
    // has failed anyway and falls back to the median of pass values.
    let samples = passes[0].samples();
    let per_query: Option<Vec<u64>> = passes.iter().all(|p| p.samples() == samples).then(|| {
        let mut medians: Vec<u64> = (0..samples)
            .map(|i| {
                let mut across: Vec<u64> = passes.iter().map(|p| p.latencies_ns[i]).collect();
                across.sort_unstable();
                across[across.len() / 2]
            })
            .collect();
        medians.sort_unstable();
        medians
    });
    let latency = |q: f64| {
        let by_pass = reduce(&|p| p.latency_ms(q));
        Measured {
            value: per_query
                .as_deref()
                .map_or(by_pass.value, |sorted| quantile_ms(sorted, q)),
            reps: by_pass.reps,
        }
    };
    Ok(Timed {
        metrics: vec![
            ("qps", reduce(&Pass::qps)),
            ("latency_p50_ms", latency(0.50)),
            ("latency_p99_ms", latency(0.99)),
            ("reads_per_query", reduce(&Pass::reads_per_query)),
            ("mean_avg_precision", reduce(&Pass::mean_avg_precision)),
        ],
        samples_per_pass: samples,
        exact: solo.then(|| (passes[0].counts, passes[0].answer_digest)),
    })
}

type Layers = BTreeMap<&'static str, f64>;

/// Counter-derived layer metrics shared by both shapes.
fn count_layers(layers: &mut Layers, counts: &Counts, queries: f64) {
    let terms = (counts.terms_scanned + counts.terms_skipped).max(1) as f64;
    layers.insert(
        "core.eval.entries_per_query",
        counts.entries as f64 / queries,
    );
    layers.insert("core.eval.pages_per_query", counts.pages as f64 / queries);
    layers.insert(
        "core.eval.terms_skipped_share",
        counts.terms_skipped as f64 / terms,
    );
    layers.insert(
        "core.eval.peak_accumulators",
        counts.peak_accumulators as f64,
    );
    layers.insert(
        "core.eval.bt_inquiries_per_query",
        counts.bt_inquiries as f64 / queries,
    );
    layers.insert(
        "core.eval.baf_estimate_abs_error_per_query",
        counts.baf_abs_error as f64 / queries,
    );
    layers.insert(
        "storage.pool.hit_ratio",
        counts.buffer_hits as f64 / counts.pages.max(1) as f64,
    );
}

/// The traced pass of a single-session workload: an untraced
/// reference over the same queries (for the overhead), then the same
/// queries with spans and per-query replay into the twins.
fn traced_solo(
    bed: &Testbed,
    plan: &Plan<'_>,
    opts: &Options,
    report: &mut WorkloadReport,
) -> Result<Layers, String> {
    let Shape::Solo { pairing, backend } = plan.workload.shape else {
        unreachable!("traced_solo is only called for Solo shapes");
    };
    let name = plan.workload.name;
    let (warmup, timed) = (&plan.warmup[0], &plan.timed[0]);
    let timed = &timed[..timed.len().min(TRACED_QUERIES)];
    let mut failed = 0u64;
    let mut fail = |what: String| {
        eprintln!("[{name}] traced check failed: {what}");
        failed += 1;
    };

    let mut untraced_ns = 0u64;
    {
        let mut rig = SoloRig::new(bed, pairing, backend, plan.frames, false)?;
        for step in warmup {
            let _ = rig.query(step);
        }
        for step in timed {
            untraced_ns += rig.query(step).map_or(0, |o| o.latency_ns);
        }
    }

    let mut rig = SoloRig::new(bed, pairing, backend, plan.frames, true)?;
    {
        // The twins need the warm-up's history; its spans and store
        // counters are not reported.
        let (mut rec, mut store) = (SpanRecorder::default(), StoreCounts::default());
        for step in warmup {
            if let Err(e) = rig.query_traced(step, &mut rec, 0, &mut store) {
                fail(format!("warm-up query: {e}"));
            }
        }
    }
    let pool_before = rig.pool_counts();
    let decode_before = decode_meters();
    let mut rec = SpanRecorder::default();
    let mut counts = Counts::default();
    let mut store = StoreCounts::default();
    let mut traced_ns = 0u64;
    let mut answered = 0u64;
    let mut digest = Fnv::default();
    for (i, step) in timed.iter().enumerate() {
        match rig.query_traced(step, &mut rec, i as u32, &mut store) {
            Ok(outcome) => {
                answered += 1;
                traced_ns += outcome.latency_ns;
                add_counts(&mut counts, &outcome.counts);
                if let Err(e) = bed.check_answer(step, &outcome, &mut digest) {
                    fail(e);
                }
            }
            Err(e) => fail(format!("query: {e}")),
        }
    }
    let decode_after = decode_meters();
    let pool = rig.pool_counts();
    report.attempted += (warmup.len() + timed.len()) as u64 + 1;
    if rig.twin_agrees() != Some(true) {
        fail("twin pool stats() differ from the real pool's".into());
    }
    report.failed += failed;
    let span_file = opts.out_dir.join(format!("trace-{name}.jsonl"));
    rec.write_jsonl(&span_file)
        .map_err(|e| format!("write {}: {e}", span_file.display()))?;

    // Per query: the in-flow evaluation against the replayed layers.
    // Pool self time excludes the store reads nested in its fetch.
    #[derive(Clone, Copy, Default)]
    struct PerQuery {
        eval: u64,
        begin_query: u64,
        fetch: u64,
        backend: u64,
        twin_sim: u64,
    }
    let mut per_query = vec![PerQuery::default(); timed.len()];
    for s in rec.spans() {
        let q = &mut per_query[s.query as usize];
        match s.name {
            span::EVAL => q.eval += s.ns(),
            span::BEGIN_QUERY => q.begin_query += s.ns(),
            span::POOL_FETCH => q.fetch += s.ns(),
            span::BACKEND_READ => q.backend += s.ns(),
            span::TWIN_SIM_READ => q.twin_sim += s.ns(),
            _ => {}
        }
    }
    let sim_backed = backend == Backend::DiskSim;
    let (mut eval, mut begin_query, mut fetch_self, mut backend_ns, mut self_ns, mut over) =
        (0u64, 0u64, 0u64, 0u64, 0u64, 0u64);
    for q in &per_query {
        let nested = if sim_backed { q.backend } else { q.twin_sim };
        let q_fetch_self = q.fetch.saturating_sub(nested);
        let replayed = q.begin_query + q_fetch_self + q.backend;
        eval += q.eval;
        begin_query += q.begin_query;
        fetch_self += q_fetch_self;
        backend_ns += q.backend;
        self_ns += q.eval.saturating_sub(replayed);
        over += replayed.saturating_sub(q.eval);
    }

    let n = answered.max(1) as f64;
    let us = |ns: u64| ns as f64 / 1e3 / n;
    let mut layers = Layers::new();
    count_layers(&mut layers, &counts, n);
    layers.insert("core.query.resolve_us", us(rec.total_ns(span::RESOLVE)));
    layers.insert("core.eval.total_us", us(eval));
    layers.insert("core.eval.self_us", us(self_ns));
    layers.insert(
        "core.eval.ns_per_entry",
        self_ns as f64 / counts.entries.max(1) as f64,
    );
    layers.insert("storage.policy.begin_query_us", us(begin_query));
    layers.insert("storage.pool.fetch_us", us(fetch_self));
    layers.insert(
        "storage.pool.evictions_per_query",
        (pool.evictions - pool_before.evictions) as f64 / n,
    );
    layers.insert(
        "storage.pool.occupancy",
        pool.occupancy as f64 / plan.frames as f64,
    );
    layers.insert("storage.pool.retries", pool.retries as f64);
    layers.insert("storage.pool.gave_up", pool.gave_up as f64);
    layers.insert("storage.backend.read_us", us(backend_ns));
    layers.insert(
        "storage.backend.device_reads_per_query",
        store.device_reads as f64 / n,
    );
    layers.insert(
        "storage.backend.sequential_share",
        store.sequential_reads as f64 / store.device_reads.max(1) as f64,
    );
    layers.insert(
        "storage.sched.io_wait_us_per_query",
        store.io_wait_us as f64 / n,
    );
    layers.insert("storage.sched.overlap_hits", store.overlap_hits as f64);
    layers.insert(
        "storage.sched.prefetch_wasted_share",
        store.prefetch_wasted as f64 / store.device_reads.max(1) as f64,
    );
    layers.insert(
        "storage.codec.decode_ns_per_entry",
        (decode_after.0 - decode_before.0) as f64
            / (decode_after.1 - decode_before.1).max(1) as f64,
    );
    layers.insert(
        "bench.closure_error_share",
        over as f64 / eval.max(1) as f64,
    );
    layers.insert(
        "bench.trace_overhead_share",
        traced_ns as f64 / untraced_ns.max(1) as f64 - 1.0,
    );
    Ok(layers)
}

/// The server workload has no observer to attach, so its layers come
/// from `ServerReport` counters and a one-session run through the
/// same server.
fn traced_duo(
    bed: &Testbed,
    plan: &Plan<'_>,
    report: &mut WorkloadReport,
) -> Result<Layers, String> {
    let threads = plan.timed.len();
    let duo = duo_pass(bed, plan, threads)?;
    let solo = duo_pass(bed, plan, 1)?;
    report.attempted += duo.attempted + solo.attempted;
    report.failed += duo.failed + solo.failed;

    // Whole run, warm-up included: the server owns the pool, so there
    // is no wall clock for the timed part alone.
    let session_ns = threads as f64 * duo.wall_s * 1e9;

    let n = duo.samples().max(1) as f64;
    let mut layers = Layers::new();
    count_layers(&mut layers, &duo.counts, n);
    layers.insert(
        "core.eval.total_us",
        duo.latencies_ns.iter().sum::<u64>() as f64 / 1e3 / n,
    );
    layers.insert(
        "storage.pool.evictions_per_query",
        duo.pool.evictions as f64 / duo.qps_queries.max(1) as f64,
    );
    layers.insert(
        "storage.pool.occupancy",
        duo.pool.occupancy as f64 / plan.frames as f64,
    );
    layers.insert("storage.pool.retries", duo.pool.retries as f64);
    layers.insert("storage.pool.gave_up", duo.pool.gave_up as f64);
    layers.insert(
        "storage.backend.device_reads_per_query",
        duo.reads_per_query(),
    );
    layers.insert(
        "storage.sharded.lock_wait_share",
        duo.lock_wait_us as f64 * 1e3 / session_ns,
    );
    layers.insert("storage.sharded.batch_splits", duo.batch_splits as f64);
    layers.insert("engine.server.solo_qps", solo.qps());
    layers.insert(
        "engine.server.scaling_efficiency",
        duo.qps() / (threads as f64 * solo.qps()),
    );
    layers.insert(
        "engine.server.reads_inflation",
        duo.reads_per_query() / solo.reads_per_query().max(f64::MIN_POSITIVE),
    );
    layers.insert("engine.ledger.eval_share", duo.busy_ns as f64 / session_ns);
    Ok(layers)
}

/// `VmHWM` of this process, MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The three metrics every workload shares: set-up time, peak memory,
/// index density.
pub fn global_metrics(setup: &Setup) -> Vec<(&'static str, Measured)> {
    let totals: Vec<f64> = setup.reps.iter().map(StageTimes::total_s).collect();
    let once = |value: f64| Measured {
        value,
        reps: vec![value],
    };
    vec![
        (
            "setup_s",
            Measured {
                value: median(&totals),
                reps: totals,
            },
        ),
        ("peak_rss_mb", once(peak_rss_mb())),
        ("index_bytes_per_posting", once(setup.bytes_per_posting())),
    ]
}

/// The measured value of one end-to-end metric: the workload's own
/// or one of the invocation's.
pub fn end_to_end<'a>(
    timed: &'a Timed,
    globals: &'a [(&'static str, Measured)],
    name: &str,
) -> &'a Measured {
    let found = timed
        .metrics
        .iter()
        .chain(globals)
        .find(|(n, _)| *n == name);
    &found.expect("every end-to-end metric is measured").1
}

/// One workload's block of the output document.
pub fn workload_json(r: &WorkloadReport, globals: &[(&'static str, Measured)]) -> Value {
    let mut fields = vec![
        ("why", crate::json::text(r.workload.why)),
        ("threads", num(r.threads as f64)),
        ("frames", num(r.frames as f64)),
        ("footprint_pages", num(r.footprint as f64)),
        ("queries_per_pass", num(r.queries_per_pass as f64)),
        ("stream_digest", hex(r.stream_digest)),
        ("attempted", num(r.attempted as f64)),
        ("failed", num(r.failed as f64)),
    ];
    if let Some(t) = &r.timed {
        let beyond_p99 = t.samples_per_pass / 100;
        fields.push(("passes", num(t.metrics[0].1.reps.len() as f64)));
        fields.push(("latency_samples_per_pass", num(t.samples_per_pass as f64)));
        fields.push(("latency_samples_beyond_p99", num(beyond_p99 as f64)));
        let metrics = t.metrics.iter().chain(globals).map(|(name, m)| {
            (
                *name,
                obj([("value", num(m.value)), ("reps", nums(&m.reps))]),
            )
        });
        fields.push(("metrics", obj(metrics)));
        if let Some((c, digest)) = &t.exact {
            fields.push((
                "exact",
                obj([
                    ("answer_digest", hex(*digest)),
                    ("disk_reads", num(c.disk_reads as f64)),
                    ("buffer_hits", num(c.buffer_hits as f64)),
                    ("pages", num(c.pages as f64)),
                    ("entries", num(c.entries as f64)),
                    ("terms_scanned", num(c.terms_scanned as f64)),
                    ("terms_skipped", num(c.terms_skipped as f64)),
                    ("peak_accumulators", num(c.peak_accumulators as f64)),
                    ("bt_inquiries", num(c.bt_inquiries as f64)),
                    ("baf_abs_error", num(c.baf_abs_error as f64)),
                ]),
            ));
        }
    }
    if let Some(layers) = &r.layers {
        fields.push((
            "per_layer",
            obj(layers.iter().map(|(name, v)| (*name, num(*v)))),
        ));
    }
    obj(fields)
}

/// The whole output document of one invocation.
pub fn document(
    opts: &Options,
    setup: &Setup,
    git_head: &str,
    reports: &[WorkloadReport],
) -> Value {
    let globals = global_metrics(setup);
    obj([
        ("schema", num(1.0)),
        ("git_head", crate::json::text(git_head)),
        ("seed", num(opts.seed as f64)),
        ("scale", num(opts.scale)),
        ("seconds", num(opts.seconds)),
        ("quick", Value::Bool(opts.quick)),
        ("nproc", num(nproc() as f64)),
        ("duo_threads", num(duo_threads() as f64)),
        ("setup_reps", num(setup.reps.len() as f64)),
        (
            "setup_stage_reps_s",
            obj(STAGES.map(|(name, pick)| {
                (name, nums(&setup.reps.iter().map(pick).collect::<Vec<_>>()))
            })),
        ),
        (
            "workloads",
            obj(reports
                .iter()
                .map(|r| (r.workload.name, workload_json(r, &globals)))),
        ),
    ])
}

/// Cores this process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Writes `doc` to `path`, creating the directory.
pub fn write_document(doc: &Value, path: &Path) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, crate::json::Doc(doc.clone()).render() + "\n")
        .map_err(|e| format!("write {}: {e}", path.display()))
}
