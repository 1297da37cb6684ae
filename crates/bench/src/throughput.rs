//! The `bench throughput` subcommand: the concurrency axis of the
//! benchmarks. Drives N free-running sessions for each thread count in
//! the sweep against a one-shard pool (the `shared` rows:
//! [`PoolLayout::Shared`]) and a `P`-shard pool (the `sharded[P]` rows)
//! of the same total capacity — the same `ShardedBufferPool` code at
//! two stripe counts — and reports queries/sec, p50/p99 evaluation
//! latency, and lock-contention totals per cell.
//!
//! Two outputs with different determinism contracts:
//!
//! * **stdout** — a correctness block computed under the serialized
//!   [`Schedule::RoundRobin`]: per-session disk reads and pool request
//!   splits, which are deterministic. No wall-clock number is ever
//!   printed here, so two runs at the same scale are byte-identical —
//!   CI runs the command twice and diffs the output.
//! * **`--out` JSON** — the timed [`Schedule::FreeRunning`] sweep
//!   (best of `--repeats` per cell, to damp scheduler noise), carrying
//!   the wall-clock numbers the acceptance criteria quote. Timings are
//!   machine-dependent; the JSON is an artifact, not a golden.

use crate::setup::{pick_representatives, profile_queries, TestBed};
use ir_core::{Algorithm, RefinementKind};
use ir_engine::{PoolLayout, Schedule, ServerReport, SessionOutcome, SessionServer, SessionSpec};
use ir_storage::PolicyKind;
use serde::Serialize;
use std::fmt::Write as _;

/// Bumped whenever the throughput-report shape changes incompatibly.
///
/// v2: `lock_wait_us` is now derived from a nanosecond-resolution
/// histogram (`sharded.lock_wait_ns`) — the v1 number truncated each
/// contended wait to whole µs *before* summing, silently zeroing
/// sub-µs waits, so v1 and v2 totals are not comparable.
pub const SCHEMA_VERSION: u32 = 2;

/// Replacement policy used for every cell. Contention behavior, not
/// eviction quality, is the variable under test, so one policy is
/// enough; LRU is the baseline every figure in the paper includes.
const POLICY: PolicyKind = PolicyKind::Lru;

/// One (pool layout, session count) cell of the timed sweep.
#[derive(Clone, Debug, Serialize)]
pub struct ThroughputRow {
    /// Pool label ("shared" or "sharded[P]").
    pub pool: String,
    /// Concurrent sessions (one OS thread each).
    pub sessions: u64,
    /// Queries evaluated across all sessions.
    pub queries: u64,
    /// Total disk reads (deterministic under RoundRobin, reported here
    /// from the timed FreeRunning run for cross-checking).
    pub total_reads: u64,
    /// Buffer hits across all sessions.
    pub buffer_hits: u64,
    /// Wall-clock time of the best repeat, µs.
    pub wall_us: u64,
    /// Queries per second of wall-clock time (best repeat).
    pub queries_per_sec: f64,
    /// Median per-query evaluation latency, µs.
    pub p50_eval_us: u64,
    /// 99th-percentile per-query evaluation latency, µs.
    pub p99_eval_us: u64,
    /// Total time sessions spent blocked on shard locks, µs.
    /// Accumulated in nanoseconds and divided once at the end (schema
    /// v2).
    pub lock_wait_us: u64,
    /// Read plans that spanned more than one shard (0 on the one-shard
    /// `shared` rows).
    pub batch_splits: u64,
}

/// The whole `BENCH_throughput.json` document.
#[derive(Clone, Debug, Serialize)]
pub struct ThroughputReport {
    /// Report shape version (see [`SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Collection scale the sweep ran at.
    pub scale: f64,
    /// Stripe count of the sharded rows.
    pub shards: u64,
    /// Timed repeats per cell (best one reported).
    pub repeats: u64,
    /// Total frames provisioned per pool (identical across layouts so
    /// the comparison isolates locking, not capacity).
    pub total_frames: u64,
    /// One row per (layout, session count) cell.
    pub rows: Vec<ThroughputRow>,
}

fn quantile_us(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

fn pool_label(layout: PoolLayout) -> String {
    match layout {
        PoolLayout::Shared { .. } => "shared".to_string(),
        PoolLayout::Partitioned { frames_each, .. } => format!("partitioned[{frames_each}ea]"),
        PoolLayout::Sharded { shards, .. } => format!("sharded[{shards}]"),
    }
}

fn row_from(layout: PoolLayout, n_sessions: usize, report: &ServerReport) -> ThroughputRow {
    let mut evals: Vec<u64> = report.ledger.entries.iter().map(|e| e.eval_us).collect();
    evals.sort_unstable();
    ThroughputRow {
        pool: pool_label(layout),
        sessions: n_sessions as u64,
        queries: report.ledger.len() as u64,
        total_reads: report.total_disk_reads(),
        buffer_hits: report.pool_stats.hits,
        wall_us: report.wall_us,
        queries_per_sec: report.queries_per_sec,
        p50_eval_us: quantile_us(&evals, 0.50),
        p99_eval_us: quantile_us(&evals, 0.99),
        lock_wait_us: report.lock_wait_us,
        batch_splits: report.batch_splits,
    }
}

/// Runs the throughput sweep. Returns the deterministic stdout block
/// and the timed report, or the first failure.
///
/// `sessions` is the thread-count sweep (default `[1, 2, 4, 8]`),
/// `shards` the stripe count of the sharded rows (clamped so every
/// shard keeps at least one frame), `repeats` the timed runs per cell.
pub fn run(
    scale: f64,
    sessions: &[usize],
    shards: usize,
    repeats: usize,
) -> Result<(String, ThroughputReport), String> {
    if sessions.is_empty() {
        return Err("session sweep is empty".to_string());
    }
    if repeats == 0 {
        return Err("--repeats must be at least 1".to_string());
    }
    let bed = TestBed::at_scale(scale).map_err(|e| format!("testbed construction failed: {e}"))?;
    let profiles = profile_queries(&bed).map_err(|e| format!("profiling failed: {e}"))?;
    let reps = pick_representatives(&profiles);
    let users = [reps.query1, reps.query2, reps.query3, reps.query4];
    // Same sizing rule as the chaos matrix: half the sessions' combined
    // DF working set, so the pool is contended but not thrashing. The
    // capacity is fixed across the sweep so every cell compares the
    // same memory budget.
    let total_frames: usize = users
        .iter()
        .map(|&t| profiles[t].df_reads as usize)
        .sum::<usize>()
        .max(2)
        / 2;
    let shards = shards.clamp(1, total_frames);
    let layouts = [
        PoolLayout::Shared {
            total_frames,
            policy: POLICY,
            global_history: false,
        },
        PoolLayout::Sharded {
            total_frames,
            policy: POLICY,
            shards,
        },
    ];

    // Session i replays representative sequence i mod 4, so every
    // thread count draws from the same four access patterns.
    let spec_for = |i: usize| -> Result<SessionSpec, String> {
        bed.sequence(users[i % users.len()], RefinementKind::AddOnly)
            .map(|seq| SessionSpec::new(seq, Algorithm::Baf))
            .map_err(|e| format!("building session {i}: {e}"))
    };
    let max_sessions = sessions.iter().copied().max().unwrap_or(1);
    let all_specs: Vec<SessionSpec> = (0..max_sessions).map(spec_for).collect::<Result<_, _>>()?;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "throughput sweep: scale {scale}, {total_frames} frames, {shards} shards, policy {POLICY}",
    );
    let mut rows = Vec::new();
    for layout in layouts {
        for &n in sessions {
            let specs = &all_specs[..n];
            let label = format!("{} x{n}", pool_label(layout));

            // Deterministic block: RoundRobin serializes the sessions
            // through a turnstile, pinning per-session read counts.
            let serialized = SessionServer::new(&bed.index, layout)
                .run(specs, Schedule::RoundRobin)
                .map_err(|e| format!("{label}: serialized run failed: {e}"))?;
            bed.index.disk().reset_stats();
            if let Some((i, e)) = serialized.failed_sessions().first() {
                return Err(format!("{label}: session {i} failed: {e}"));
            }
            let reads: Vec<u64> = serialized
                .sessions
                .iter()
                .map(SessionOutcome::total_disk_reads)
                .collect();
            let s = serialized.pool_stats;
            let _ = writeln!(
                out,
                "{label}: reads {reads:?}, requests {} ({} hits / {} loads), occupancy {}/{}",
                s.requests, s.hits, s.misses, serialized.final_occupancy, total_frames
            );

            // Timed cells: FreeRunning, best of `repeats` by
            // queries/sec. Timings go only to the JSON report.
            let mut best: Option<ServerReport> = None;
            for r in 0..repeats {
                let timed = SessionServer::new(&bed.index, layout)
                    .run(specs, Schedule::FreeRunning)
                    .map_err(|e| format!("{label}: timed run {r} failed: {e}"))?;
                bed.index.disk().reset_stats();
                if let Some((i, e)) = timed.failed_sessions().first() {
                    return Err(format!("{label}: timed session {i} failed: {e}"));
                }
                if best
                    .as_ref()
                    .is_none_or(|b| timed.queries_per_sec > b.queries_per_sec)
                {
                    best = Some(timed);
                }
            }
            let best = best.expect("repeats >= 1 always produces a run");
            if best.ledger.len() != serialized.ledger.len() {
                return Err(format!(
                    "{label}: schedules disagree on query count: {} serialized vs {} free-running",
                    serialized.ledger.len(),
                    best.ledger.len()
                ));
            }
            rows.push(row_from(layout, n, &best));
        }
    }
    let _ = writeln!(
        out,
        "all {} cells completed under both schedules; timings in the JSON report only",
        rows.len()
    );
    let report = ThroughputReport {
        schema_version: SCHEMA_VERSION,
        scale,
        shards: shards as u64,
        repeats: repeats as u64,
        total_frames: total_frames as u64,
        rows,
    };
    Ok((out, report))
}

/// Serializes a throughput report as JSON.
pub fn to_json(report: &ThroughputReport) -> String {
    serde_json::to_string(report).expect("throughput report serialization cannot fail")
}

/// Evaluates the scaling exit criterion (ROADMAP Open item 1) against
/// a finished report: at every session count ≥ `min_sessions` where
/// both layouts ran, the `P`-shard pool must deliver at least the
/// one-shard pool's throughput *in the same run*. Query counts are
/// compared exactly — they are deterministic, so any drift is a bug,
/// not noise — while wall time is compared as a qps ratio with no
/// slack in the sharded pool's favor.
///
/// Cells whose wall clock could not resolve the run (`wall_us == 0`,
/// which fast machines produce on tiny sweeps; the reported qps is
/// then the saturated as-if-1µs value) pass on query parity alone —
/// a qps ratio between saturated and measured rows is meaningless,
/// and failing the gate over clock resolution would make it flaky.
///
/// Returns a per-cell summary on success and the list of violations on
/// failure. Callers should print either to **stderr**: the gate text
/// contains wall-clock-derived ratios, and stdout's determinism
/// contract (two runs diff byte-identical) must hold.
pub fn gate_scaling(report: &ThroughputReport, min_sessions: u64) -> Result<String, Vec<String>> {
    let mut summary = String::new();
    let mut problems = Vec::new();
    let mut checked = 0usize;
    for shared in report.rows.iter().filter(|r| r.pool == "shared") {
        if shared.sessions < min_sessions {
            continue;
        }
        let Some(sharded) = report
            .rows
            .iter()
            .find(|r| r.pool.starts_with("sharded[") && r.sessions == shared.sessions)
        else {
            continue;
        };
        checked += 1;
        let n = shared.sessions;
        if sharded.queries != shared.queries {
            problems.push(format!(
                "sessions {n}: query counts diverge ({} sharded vs {} shared) — \
                 the workload is deterministic, so the layouts ran different work",
                sharded.queries, shared.queries
            ));
            continue;
        }
        if shared.wall_us == 0 || sharded.wall_us == 0 {
            let _ = writeln!(
                summary,
                "sessions {n}: wall clock below µs resolution (shared {} µs, {} {} µs) — \
                 qps verdict skipped, cell passes on query parity",
                shared.wall_us, sharded.pool, sharded.wall_us
            );
            continue;
        }
        let ratio = if shared.queries_per_sec > 0.0 {
            sharded.queries_per_sec / shared.queries_per_sec
        } else {
            f64::INFINITY
        };
        if sharded.queries_per_sec < shared.queries_per_sec {
            problems.push(format!(
                "sessions {n}: {} at {:.0} qps lost to shared at {:.0} qps (ratio {ratio:.2}) — \
                 P shards must not lose to one shard at scale",
                sharded.pool, sharded.queries_per_sec, shared.queries_per_sec
            ));
        } else {
            let _ = writeln!(
                summary,
                "sessions {n}: {} {:.0} qps >= shared {:.0} qps (ratio {ratio:.2}, \
                 {} batch splits)",
                sharded.pool, sharded.queries_per_sec, shared.queries_per_sec, sharded.batch_splits
            );
        }
    }
    if checked == 0 {
        problems.push(format!(
            "no comparable shared/sharded cells at sessions >= {min_sessions}; \
             widen --sessions so the gate has something to check"
        ));
    }
    if problems.is_empty() {
        Ok(summary)
    } else {
        Err(problems)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_block_is_reproducible_and_time_free() {
        let (out1, rep1) = run(1.0 / 32.0, &[1, 2], 2, 1).unwrap();
        let (out2, rep2) = run(1.0 / 32.0, &[1, 2], 2, 1).unwrap();
        assert_eq!(out1, out2, "stdout block must be byte-identical");
        assert!(
            !out1.contains("µs") && !out1.contains("wall"),
            "no wall-clock output on stdout: {out1}"
        );
        // 2 layouts × 2 session counts.
        assert_eq!(rep1.rows.len(), 4);
        assert_eq!(rep2.rows.len(), 4);
        for (a, b) in rep1.rows.iter().zip(&rep2.rows) {
            assert_eq!(a.pool, b.pool);
            assert_eq!(a.sessions, b.sessions);
            assert_eq!(a.queries, b.queries, "{}: query count drifted", a.pool);
        }
    }

    #[test]
    fn shared_and_sharded_rows_cover_the_sweep() {
        let (_, rep) = run(1.0 / 32.0, &[1], 4, 1).unwrap();
        assert_eq!(rep.schema_version, SCHEMA_VERSION);
        assert!(rep.rows.iter().any(|r| r.pool == "shared"));
        assert!(rep.rows.iter().any(|r| r.pool.starts_with("sharded[")));
        for r in &rep.rows {
            assert!(r.queries > 0, "{}: no queries ran", r.pool);
            assert!(r.total_reads > 0, "{}: no disk traffic", r.pool);
            assert!(r.queries_per_sec >= 0.0);
            assert!(r.p50_eval_us <= r.p99_eval_us);
        }
        let json = to_json(&rep);
        assert!(json.contains("\"schema_version\":2"));
        assert!(json.contains("\"queries_per_sec\""));
    }

    #[test]
    fn empty_sweep_and_zero_repeats_are_rejected() {
        assert!(run(1.0 / 32.0, &[], 2, 1).is_err());
        assert!(run(1.0 / 32.0, &[1], 2, 0).is_err());
    }

    fn gate_row(pool: &str, sessions: u64, queries: u64, qps: f64) -> ThroughputRow {
        ThroughputRow {
            pool: pool.to_string(),
            sessions,
            queries,
            total_reads: 100,
            buffer_hits: 50,
            wall_us: 1_000,
            queries_per_sec: qps,
            p50_eval_us: 10,
            p99_eval_us: 20,
            lock_wait_us: 0,
            batch_splits: 0,
        }
    }

    fn gate_report(rows: Vec<ThroughputRow>) -> ThroughputReport {
        ThroughputReport {
            schema_version: SCHEMA_VERSION,
            scale: 1.0,
            shards: 4,
            repeats: 1,
            total_frames: 64,
            rows,
        }
    }

    #[test]
    fn scaling_gate_passes_when_sharded_wins_at_scale() {
        let rep = gate_report(vec![
            // Below the gate threshold the sharded pool may lose.
            gate_row("shared", 1, 40, 9000.0),
            gate_row("sharded[4]", 1, 40, 7000.0),
            gate_row("shared", 4, 160, 4000.0),
            gate_row("sharded[4]", 4, 160, 5000.0),
            gate_row("shared", 8, 320, 3700.0),
            gate_row("sharded[4]", 8, 320, 3700.0), // ties pass
        ]);
        let summary = gate_scaling(&rep, 4).expect("gate must pass");
        assert!(summary.contains("sessions 4"));
        assert!(summary.contains("sessions 8"));
    }

    #[test]
    fn scaling_gate_fails_on_qps_loss_or_query_drift() {
        let slow = gate_report(vec![
            gate_row("shared", 4, 160, 5000.0),
            gate_row("sharded[4]", 4, 160, 4999.0),
        ]);
        let problems = gate_scaling(&slow, 4).unwrap_err();
        assert!(problems[0].contains("lost to shared"), "{problems:?}");

        let drifted = gate_report(vec![
            gate_row("shared", 4, 160, 4000.0),
            gate_row("sharded[4]", 4, 159, 5000.0),
        ]);
        let problems = gate_scaling(&drifted, 4).unwrap_err();
        assert!(problems[0].contains("query counts diverge"), "{problems:?}");
    }

    #[test]
    fn scaling_gate_tolerates_zero_wall_rows() {
        // A machine fast enough to finish a cell inside the µs clock's
        // resolution reports wall_us == 0 and a saturated qps; the
        // ratio against a measured row is meaningless, so the cell
        // must pass on query parity instead of failing the gate.
        let mut sharded = gate_row("sharded[4]", 4, 160, 160_000_000.0);
        sharded.wall_us = 0;
        let rep = gate_report(vec![gate_row("shared", 4, 160, 5000.0), sharded]);
        let summary = gate_scaling(&rep, 4).expect("zero-wall cell must not fail the gate");
        assert!(summary.contains("below µs resolution"), "{summary}");

        // ... and the saturated side being *shared* (the losing shape
        // under the old code was a bogus ratio) must also pass.
        let mut shared = gate_row("shared", 4, 160, 160_000_000.0);
        shared.wall_us = 0;
        let rep = gate_report(vec![shared, gate_row("sharded[4]", 4, 160, 5000.0)]);
        let summary = gate_scaling(&rep, 4).expect("zero-wall shared row must not fail the gate");
        assert!(summary.contains("below µs resolution"), "{summary}");

        // Query drift is still an error even when the clock gave out.
        let mut sharded = gate_row("sharded[4]", 4, 159, 160_000_000.0);
        sharded.wall_us = 0;
        let rep = gate_report(vec![gate_row("shared", 4, 160, 5000.0), sharded]);
        let problems = gate_scaling(&rep, 4).unwrap_err();
        assert!(problems[0].contains("query counts diverge"), "{problems:?}");
    }

    #[test]
    fn scaling_gate_refuses_an_uncheckable_sweep() {
        let rep = gate_report(vec![
            gate_row("shared", 2, 80, 5000.0),
            gate_row("sharded[4]", 2, 80, 6000.0),
        ]);
        let problems = gate_scaling(&rep, 4).unwrap_err();
        assert!(problems[0].contains("no comparable"), "{problems:?}");
    }
}
