//! The `bench chaos` subcommand: every replacement policy × pool
//! layout combination run through the threaded [`SessionServer`] under
//! a seeded fault schedule, with the fault-tolerance contract checked
//! after each run.
//!
//! For every combination the driver executes the same four refinement
//! sessions twice — once fault-free, once through a
//! [`FaultConfig::chaos`] store with a retry budget covering the
//! consecutive-fault cap — and asserts:
//!
//! * **transparency** — every session completes and per-session disk
//!   reads equal the fault-free run's (recovered faults must not move
//!   the paper's metric);
//! * **pool invariants** — `hits + misses = requests`, occupancy never
//!   exceeds capacity, and the per-term `b_t` counters sum to the
//!   occupancy (no lost or duplicated frames);
//! * **coverage** — the seed actually injected faults and exercised
//!   the retry path, and no fetch exhausted its budget;
//! * **backend invisibility** — the file rows, the same sessions over
//!   the exported page file, read per session exactly what their
//!   policy's one-shard `sharded` row read.
//!
//! The emitted report contains no wall-clock numbers, so two runs with
//! the same seed and scale are byte-identical — CI diffs one run at
//! seed 193 and the default scale against the checked-in golden
//! `results/chaos_seed193.txt`.

use crate::setup::{pick_representatives, profile_queries, TestBed};
use ir_core::eval::evaluate;
use ir_core::{Algorithm, Query, RefinementKind};
use ir_engine::{PoolLayout, Schedule, ServerReport, SessionOutcome, SessionServer, SessionSpec};
use ir_storage::{
    FaultConfig, FaultStore, FetchPolicy, FileMode, FilePageStore, PageStore, PolicyKind,
    ShardedBufferPool,
};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;

/// Retry budget used for every chaotic run; covers the
/// `max_consecutive_faults` cap of [`FaultConfig::chaos`] with one
/// attempt to spare.
const RETRY_BUDGET: u32 = 4;

/// The exported page file; removed on drop, so a failed combination's
/// early `Err` — the run someone will repeat — leaves nothing behind.
struct TempPageFile(PathBuf);

impl Drop for TempPageFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn layout_name(layout: PoolLayout) -> String {
    let PoolLayout::Sharded {
        total_frames,
        shards,
        ..
    } = layout;
    format!("sharded[{total_frames}/{shards}]")
}

fn check_invariants(r: &ServerReport, label: &str) -> Result<(), String> {
    let s = r.pool_stats;
    if s.hits + s.misses != s.requests {
        return Err(format!(
            "{label}: request split broken: {} hits + {} misses != {} requests",
            s.hits, s.misses, s.requests
        ));
    }
    if r.final_occupancy > r.total_frames {
        return Err(format!(
            "{label}: pool over capacity: {} frames occupied of {}",
            r.final_occupancy, r.total_frames
        ));
    }
    if r.resident_term_pages != r.final_occupancy as u64 {
        return Err(format!(
            "{label}: b_t disagrees with occupancy ({} vs {}): lost or duplicated frame",
            r.resident_term_pages, r.final_occupancy
        ));
    }
    Ok(())
}

fn per_session_reads(r: &ServerReport) -> Vec<u64> {
    r.sessions
        .iter()
        .map(SessionOutcome::total_disk_reads)
        .collect()
}

/// Replays every session's sequence, interleaved round-robin, through
/// one cold one-shard pool over `store`, returning per-session
/// disk-read totals. The file-backend analogue of a round-robin
/// [`SessionServer`] run, handle for handle: each session evaluates
/// through a handle of its own — one RAP announcer — dropped after its
/// last step, so the pool sees the request stream the server's does.
fn drive_sessions<S: PageStore>(
    bed: &TestBed,
    specs: &[SessionSpec],
    store: Arc<S>,
    frames: usize,
    policy: PolicyKind,
    fetch: FetchPolicy,
) -> Result<Vec<u64>, String> {
    let pool = ShardedBufferPool::new(store, frames, policy, 1)
        .map_err(|e| format!("pool construction failed: {e}"))?;
    pool.set_fetch_policy(fetch);
    let mut handles: Vec<Option<ShardedBufferPool<S>>> =
        specs.iter().map(|_| Some(pool.clone())).collect();
    let mut reads = vec![0u64; specs.len()];
    let max_steps = specs
        .iter()
        .map(|s| s.sequence.steps.len())
        .max()
        .unwrap_or(0);
    for step in 0..max_steps {
        for (user, spec) in specs.iter().enumerate() {
            let Some(buffer) = handles[user].as_mut() else {
                continue;
            };
            if let Some(terms) = spec.sequence.steps.get(step) {
                let stats = Query::from_ids(&bed.index, terms)
                    .and_then(|q| evaluate(spec.algorithm, &bed.index, buffer, &q, spec.options))
                    .map_err(|e| format!("user {user} step {step}: {e}"))?
                    .stats;
                reads[user] += stats.disk_reads;
            }
            // A session out of queries leaves: its handle's last query
            // goes out of the pool's history, in its own turn.
            if step + 1 >= spec.sequence.steps.len() {
                handles[user] = None;
            }
        }
    }
    Ok(reads)
}

/// Runs the chaos matrix at `scale` with `seed` and returns the
/// deterministic report text, or the first contract violation.
pub fn run(seed: u64, scale: f64) -> Result<String, String> {
    let bed = TestBed::at_scale(scale).map_err(|e| format!("testbed construction failed: {e}"))?;
    let profiles = profile_queries(&bed).map_err(|e| format!("profiling failed: {e}"))?;
    let reps = pick_representatives(&profiles);
    let users = [reps.query1, reps.query2, reps.query3, reps.query4];
    let specs: Vec<SessionSpec> = users
        .iter()
        .map(|&t| {
            bed.sequence(t, RefinementKind::AddOnly)
                .map(|seq| SessionSpec::new(seq, Algorithm::Baf))
        })
        .collect::<Result<_, _>>()
        .map_err(|e| format!("building sessions: {e}"))?;
    let total_frames: usize = users
        .iter()
        .map(|&t| profiles[t].df_reads as usize)
        .sum::<usize>()
        .max(2)
        / 2;
    // Stripe count for the sharded rows: 4 when the pool affords it,
    // clamped so every shard keeps at least one frame at tiny scales.
    let shards = total_frames.clamp(1, 4);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "chaos matrix: seed {seed}, scale {scale}, {} sessions, retry budget {RETRY_BUDGET}",
        specs.len()
    );
    // Per-session reads of each policy's one-shard row, which its file
    // row must repeat.
    let mut one_shard_reads = Vec::with_capacity(PolicyKind::ALL.len());
    for policy in PolicyKind::ALL {
        for (i, layout) in [
            PoolLayout::Sharded {
                total_frames,
                policy,
                shards: 1,
            },
            PoolLayout::Sharded {
                total_frames,
                policy,
                shards,
            },
        ]
        .into_iter()
        .enumerate()
        {
            let label = format!("{policy:>9} / {}", layout_name(layout));
            let clean = SessionServer::new(&bed.index, layout)
                .run(&specs, Schedule::RoundRobin)
                .map_err(|e| format!("{label}: fault-free run failed: {e}"))?;
            let faulty = SessionServer::new(&bed.index, layout)
                .with_faults(FaultConfig::chaos(seed))
                .with_fetch_policy(FetchPolicy::retries(RETRY_BUDGET))
                .run(&specs, Schedule::RoundRobin)
                .map_err(|e| format!("{label}: chaotic run failed: {e}"))?;
            bed.index.disk().reset_stats();

            if let Some((i, e)) = faulty.failed_sessions().first() {
                return Err(format!(
                    "{label}: session {i} failed under recoverable faults: {e}"
                ));
            }
            check_invariants(&faulty, &label)?;
            let (clean_reads, faulty_reads) =
                (per_session_reads(&clean), per_session_reads(&faulty));
            if clean_reads != faulty_reads {
                return Err(format!(
                    "{label}: recovered faults changed per-session reads: \
                     {clean_reads:?} fault-free vs {faulty_reads:?} chaotic"
                ));
            }
            let f = faulty.fault_stats;
            if f.total_faults() == 0 {
                return Err(format!("{label}: seed {seed} injected no faults"));
            }
            if faulty.retries == 0 {
                return Err(format!("{label}: faults never exercised the retry path"));
            }
            if faulty.gave_up > 0 {
                return Err(format!(
                    "{label}: {} fetches exhausted a budget that covers the cap",
                    faulty.gave_up
                ));
            }
            let _ = writeln!(
                out,
                "{label}: reads {faulty_reads:?}, faults {} ({} transient / {} torn / {} latency), \
                 retries {}, torn admitted 0",
                f.total_faults(),
                f.transient_faults,
                f.torn_faults,
                f.latency_spikes,
                faulty.retries,
            );
            if i == 0 {
                one_shard_reads.push(faulty_reads);
            }
        }
    }
    // File-backend rows: the same transparency contract must hold when
    // pages come from the BFPG page file instead of the in-memory
    // simulator — faults injected above the file store, recovered by
    // the pool's retry machinery, may not move per-session reads — and
    // the backend itself must be invisible: every file row reads what
    // its policy's `sharded[…/1]` row read.
    let file = TempPageFile(
        std::env::temp_dir().join(format!("buffir-chaos-{}.bfpg", std::process::id())),
    );
    ir_index::save_page_file(&bed.index, &file.0)
        .map_err(|e| format!("page-file export failed: {e}"))?;
    let file_store = FilePageStore::open(&file.0, FileMode::Buffered)
        .map(Arc::new)
        .map_err(|e| format!("opening {}: {e}", file.0.display()))?;
    for (policy, one_shard) in PolicyKind::ALL.into_iter().zip(&one_shard_reads) {
        let label = format!("{policy:>9} / file[{total_frames}]");
        let clean = drive_sessions(
            &bed,
            &specs,
            Arc::clone(&file_store),
            total_frames,
            policy,
            FetchPolicy::NO_RETRY,
        )
        .map_err(|e| format!("{label}: fault-free run failed: {e}"))?;
        let faulty_store = Arc::new(FaultStore::new(
            Arc::clone(&file_store),
            FaultConfig::chaos(seed),
        ));
        let faulty = drive_sessions(
            &bed,
            &specs,
            Arc::clone(&faulty_store),
            total_frames,
            policy,
            FetchPolicy::retries(RETRY_BUDGET),
        )
        .map_err(|e| format!("{label}: chaotic run failed: {e}"))?;
        file_store.reset_stats();

        if clean != faulty {
            return Err(format!(
                "{label}: recovered faults changed per-session reads: \
                 {clean:?} fault-free vs {faulty:?} chaotic"
            ));
        }
        if &faulty != one_shard {
            return Err(format!(
                "{label}: the backend moved per-session reads: {faulty:?} from the page \
                 file vs {one_shard:?} on sharded[{total_frames}/1]"
            ));
        }
        let f = faulty_store.stats();
        if f.total_faults() == 0 {
            return Err(format!("{label}: seed {seed} injected no faults"));
        }
        let _ = writeln!(
            out,
            "{label}: reads {faulty:?}, faults {} ({} transient / {} torn / {} latency), \
             torn admitted 0",
            f.total_faults(),
            f.transient_faults,
            f.torn_faults,
            f.latency_spikes,
        );
    }
    let _ = writeln!(
        out,
        "all {} combinations recovered ({} file-backed); invariants hold under injected failure",
        PolicyKind::ALL.len() * 3,
        PolicyKind::ALL.len()
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn temp_page_file_is_removed_on_an_early_error_return() {
        let path = std::env::temp_dir().join(format!(
            "buffir-chaos-guard-test-{}.bfpg",
            std::process::id()
        ));
        let failing_run = |path: PathBuf| -> Result<(), String> {
            let file = TempPageFile(path);
            std::fs::write(&file.0, b"page file").map_err(|e| e.to_string())?;
            assert!(file.0.exists(), "the file lives while the guard does");
            Err("a combination failed".to_string())
        };
        assert!(failing_run(path.clone()).is_err());
        assert!(!path.exists(), "the early Err must not leak the file");
    }
}
