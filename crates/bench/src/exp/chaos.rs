//! The `chaos` experiment: every replacement policy × pool layout
//! combination run through the threaded [`SessionServer`] under a
//! seeded fault schedule, with the fault-tolerance contract checked
//! after each run.
//!
//! For every combination the driver executes the four users of the
//! multi-user experiment twice — once fault-free, once through a
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
//! The transcript contains no wall-clock numbers, so two runs at the
//! same scale are byte-identical: `scripts/check_goldens.sh` compares
//! the default scale's `chaos_seed193.txt` with the checked-in golden
//! `results/chaos_seed193.txt`.

use super::multiuser::{four_users, half_the_working_sets, pool, sessions};
use super::{ExpContext, ExpResult};
use crate::ledger::Ledger;
use crate::setup::TestBed;
use ir_core::Query;
use ir_engine::{PoolLayout, Schedule, ServerReport, SessionOutcome, SessionServer, SessionSpec};
use ir_storage::{
    BufferManager, FaultConfig, FaultStore, FetchPolicy, FileMode, FilePageStore, PageStore,
    PolicyKind,
};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;

/// The fault schedule's seed.
const SEED: u64 = 193;

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
    ledger: &Ledger,
    specs: &[SessionSpec],
    store: Arc<S>,
    frames: usize,
    policy: PolicyKind,
    fetch: FetchPolicy,
) -> Result<Vec<u64>, String> {
    let pool = BufferManager::new(store, frames, policy)
        .map_err(|e| format!("pool construction failed: {e}"))?;
    pool.set_fetch_policy(fetch);
    let mut handles: Vec<Option<BufferManager<Arc<S>>>> =
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
                    .and_then(|q| {
                        ledger.evaluate(spec.algorithm, &bed.index, buffer, &q, spec.options)
                    })
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

/// Runs the matrix, prints its transcript and writes it to
/// `chaos_seed193.txt`.
pub fn run(ctx: &ExpContext) -> ExpResult<()> {
    let transcript = report(ctx)?;
    print!("{transcript}");
    std::fs::write(
        ctx.out.path().join(format!("chaos_seed{SEED}.txt")),
        transcript,
    )?;
    Ok(())
}

/// Runs the matrix on the context's testbed and returns the
/// deterministic transcript, or the first contract violation.
fn report(ctx: &ExpContext) -> ExpResult<String> {
    let users = four_users(ctx);
    let specs = sessions(ctx, &users)?;
    let total_frames = half_the_working_sets(ctx, &users);
    // Stripe count for the sharded rows: 4 when the pool affords it,
    // clamped so every shard keeps at least one frame at tiny scales.
    let shards = total_frames.clamp(1, 4);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "chaos matrix: seed {SEED}, scale {}, {} sessions, retry budget {RETRY_BUDGET}",
        ctx.scale,
        specs.len()
    );
    // Per-session reads of each policy's one-shard row, which its file
    // row must repeat.
    let mut one_shard_reads = Vec::with_capacity(PolicyKind::ALL.len());
    for policy in PolicyKind::ALL {
        let layouts = [
            pool(total_frames, policy, 1),
            pool(total_frames, policy, shards),
        ];
        for (i, layout) in layouts.into_iter().enumerate() {
            let label = format!("{policy:>9} / {}", layout_name(layout));
            let clean = SessionServer::new(&ctx.bed.index, layout)
                .run(&specs, Schedule::RoundRobin)
                .map_err(|e| format!("{label}: fault-free run failed: {e}"))?;
            let faulty = SessionServer::new(&ctx.bed.index, layout)
                .with_faults(FaultConfig::chaos(SEED))
                .with_fetch_policy(FetchPolicy::retries(RETRY_BUDGET))
                .run(&specs, Schedule::RoundRobin)
                .map_err(|e| format!("{label}: chaotic run failed: {e}"))?;
            ctx.ledger.absorb(&clean.ledger);
            ctx.ledger.absorb(&faulty.ledger);

            if let Some((i, e)) = faulty.failed_sessions().first() {
                return Err(
                    format!("{label}: session {i} failed under recoverable faults: {e}").into(),
                );
            }
            check_invariants(&faulty, &label)?;
            let (clean_reads, faulty_reads) =
                (per_session_reads(&clean), per_session_reads(&faulty));
            if clean_reads != faulty_reads {
                return Err(format!(
                    "{label}: recovered faults changed per-session reads: \
                     {clean_reads:?} fault-free vs {faulty_reads:?} chaotic"
                )
                .into());
            }
            let f = faulty.fault_stats;
            if f.total_faults() == 0 {
                return Err(format!("{label}: seed {SEED} injected no faults").into());
            }
            if faulty.retries == 0 {
                return Err(format!("{label}: faults never exercised the retry path").into());
            }
            if faulty.gave_up > 0 {
                let gave_up = faulty.gave_up;
                return Err(format!(
                    "{label}: {gave_up} fetches exhausted a budget that covers the cap"
                )
                .into());
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
    ir_index::save_page_file(&ctx.bed.index, &file.0)
        .map_err(|e| format!("page-file export failed: {e}"))?;
    let file_store = FilePageStore::open(&file.0, FileMode::Buffered)
        .map(Arc::new)
        .map_err(|e| format!("opening {}: {e}", file.0.display()))?;
    for (policy, one_shard) in PolicyKind::ALL.into_iter().zip(&one_shard_reads) {
        let label = format!("{policy:>9} / file[{total_frames}]");
        let clean = drive_sessions(
            &ctx.bed,
            &ctx.ledger,
            &specs,
            Arc::clone(&file_store),
            total_frames,
            policy,
            FetchPolicy::NO_RETRY,
        )
        .map_err(|e| format!("{label}: fault-free run failed: {e}"))?;
        let faulty_store = Arc::new(FaultStore::new(
            Arc::clone(&file_store),
            FaultConfig::chaos(SEED),
        ));
        let faulty = drive_sessions(
            &ctx.bed,
            &ctx.ledger,
            &specs,
            Arc::clone(&faulty_store),
            total_frames,
            policy,
            FetchPolicy::retries(RETRY_BUDGET),
        )
        .map_err(|e| format!("{label}: chaotic run failed: {e}"))?;

        if clean != faulty {
            return Err(format!(
                "{label}: recovered faults changed per-session reads: \
                 {clean:?} fault-free vs {faulty:?} chaotic"
            )
            .into());
        }
        if &faulty != one_shard {
            return Err(format!(
                "{label}: the backend moved per-session reads: {faulty:?} from the page \
                 file vs {one_shard:?} on sharded[{total_frames}/1]"
            )
            .into());
        }
        let f = faulty_store.stats();
        if f.total_faults() == 0 {
            return Err(format!("{label}: seed {SEED} injected no faults").into());
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

    /// `chaos` shares the testbed every other experiment has used: what
    /// they leave behind must not reach the transcript. The coverage
    /// checks (faults injected and retried in every row, no budget
    /// exhausted) pass on the smallest collection that ranks at all, two
    /// documents (with one, every idf is 0), so the test runs there.
    #[test]
    fn a_testbed_another_experiment_ran_on_gives_the_same_transcript() {
        let context = |name: &str| {
            let out = std::env::temp_dir().join(format!(
                "buffir-chaos-{name}-context-test-{}",
                std::process::id()
            ));
            let two_documents = 2.0 / f64::from(ir_corpus::config::WSJ_DOCS);
            (ExpContext::new(two_documents, &out).unwrap(), out)
        };
        let (fresh, fresh_out) = context("fresh");
        let (used, used_out) = context("used");
        used.run(crate::exp::multiuser::run).unwrap();
        assert_eq!(report(&fresh).unwrap(), report(&used).unwrap());
        for out in [fresh_out, used_out] {
            std::fs::remove_dir_all(out).unwrap();
        }
    }
}
