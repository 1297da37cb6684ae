//! Extension experiment: multi-user buffering (§3.3's future-work
//! discussion and §7).
//!
//! Four users run their own ADD-ONLY refinement sequences **on four
//! OS threads** through [`ir_engine::SessionServer`], all under the
//! BAF algorithm, scheduled round-robin so the page request stream —
//! and therefore every number below — is reproducible. Four buffer
//! architectures compete at equal total memory, and two more rows
//! price lock striping:
//!
//! * **shared/LRU** — one pool, the query-oblivious default;
//! * **shared/RAP (per-query)** — one pool, RAP re-valued with *only*
//!   the active user's weights: other users' pages drop to value 0 and
//!   are evicted first. The naive extension the paper implicitly warns
//!   about;
//! * **shared/RAP (global)** — the paper's option 2: "maintain a global
//!   query history for all users ... if a term is shared by many
//!   queries, the highest `w_{q,t}` could be used". The server merges
//!   every session's current weights by per-term max;
//! * **partitioned/RAP** — the paper's option 1: each user a private
//!   pool of `total/4` frames with per-query RAP. Isolation only: the
//!   paper's read-only sibling borrowing was measured (25 of this
//!   row's 6 037 reads at scale 1/16) and removed — see EXPERIMENTS.md,
//!   "Multi-user buffering";
//! * **sharded\[4\]/LRU, sharded\[4\]/RAP** — the shared pool striped over
//!   four independently locked shards, each running its own policy
//!   instance over a quarter of the frames: what striping costs in
//!   reads against the one-shard `shared` rows (for RAP, what the
//!   per-shard approximation of global RAP costs).

use super::{ExpContext, ExpResult};
use crate::output::TextTable;
use ir_core::{Algorithm, RefinementKind};
use ir_engine::{PoolLayout, Schedule, SessionServer, SessionSpec};
use ir_storage::PolicyKind;

/// Summary for EXPERIMENTS.md.
#[derive(Clone, Copy, Debug, Default)]
pub struct MultiUserSummary {
    /// Total reads: shared LRU.
    pub shared_lru: u64,
    /// Total reads: shared RAP with per-query weights.
    pub shared_rap_naive: u64,
    /// Total reads: shared RAP with globally merged weights.
    pub shared_rap_global: u64,
    /// Total reads: partitioned RAP (one private pool per user).
    pub partitioned_rap: u64,
    /// Total reads: LRU over a pool striped into four shards.
    pub sharded_lru: u64,
    /// Total reads: per-query RAP over the same striped pool.
    pub sharded_rap: u64,
}

/// Stripe count of the sharded rows.
const SHARDS: usize = 4;

/// Runs the architecture comparison on the threaded server.
pub fn run(ctx: &ExpContext<'_>) -> ExpResult<MultiUserSummary> {
    println!("\n== Multi-user buffering (extension; §3.3 options) ==");
    let users = [
        ctx.reps.query1,
        ctx.reps.query2,
        ctx.reps.query3,
        ctx.reps.query4,
    ];
    let specs: Vec<SessionSpec> = users
        .iter()
        .map(|&t| {
            ctx.bed
                .sequence(t, RefinementKind::AddOnly)
                .map(|seq| SessionSpec::new(seq, Algorithm::Baf))
        })
        .collect::<Result<_, _>>()?;
    // Total memory: half the summed working sets — contended but not
    // hopeless.
    let total_frames: usize = users
        .iter()
        .map(|&t| ctx.profiles[t].df_reads as usize)
        .sum::<usize>()
        .max(2)
        / 2;
    let per_user = (total_frames / users.len()).max(1);

    // Disk reads of one fault-free round-robin run over `layout`: pool
    // misses == reads issued against the store.
    let reads = |layout: PoolLayout| -> ExpResult<u64> {
        let server = SessionServer::new(&ctx.bed.index, layout);
        let report = server.run(&specs, Schedule::RoundRobin)?;
        // This experiment runs fault-free, so a degraded session is a
        // harness bug, not data — its numbers must never reach the CSV.
        if let Some((i, e)) = report.failed_sessions().first() {
            return Err(format!("session {i} failed in a fault-free run: {e}").into());
        }
        ctx.bed.index.disk().reset_stats();
        Ok(report.pool_stats.misses)
    };
    let shared = |policy, global_history| PoolLayout::Shared {
        total_frames,
        policy,
        global_history,
    };
    let sharded = |policy| PoolLayout::Sharded {
        total_frames,
        policy,
        shards: SHARDS,
    };
    let summary = MultiUserSummary {
        shared_lru: reads(shared(PolicyKind::Lru, false))?,
        shared_rap_naive: reads(shared(PolicyKind::Rap, false))?,
        shared_rap_global: reads(shared(PolicyKind::Rap, true))?,
        partitioned_rap: reads(PoolLayout::Partitioned {
            frames_each: per_user,
            policy: PolicyKind::Rap,
        })?,
        sharded_lru: reads(sharded(PolicyKind::Lru))?,
        sharded_rap: reads(sharded(PolicyKind::Rap))?,
    };
    let rows = [
        (
            "shared / LRU".to_string(),
            "shared_lru",
            total_frames,
            summary.shared_lru,
        ),
        (
            "shared / RAP per-query".to_string(),
            "shared_rap_naive",
            total_frames,
            summary.shared_rap_naive,
        ),
        (
            "shared / RAP global-history".to_string(),
            "shared_rap_global",
            total_frames,
            summary.shared_rap_global,
        ),
        (
            format!("partitioned / RAP ({}×{})", users.len(), per_user),
            "partitioned_rap",
            per_user * users.len(),
            summary.partitioned_rap,
        ),
        (
            format!("sharded[{SHARDS}] / LRU"),
            "sharded4_lru",
            total_frames,
            summary.sharded_lru,
        ),
        (
            format!("sharded[{SHARDS}] / RAP per-query"),
            "sharded4_rap",
            total_frames,
            summary.sharded_rap,
        ),
    ];
    let mut t = TextTable::new(&["architecture", "total frames", "disk reads"]);
    for (label, _, frames, reads) in &rows {
        t.row(vec![label.clone(), frames.to_string(), reads.to_string()]);
    }
    print!("{}", t.render());
    ctx.out.write_csv(
        "multiuser.csv",
        &["architecture", "total_frames", "disk_reads"],
        rows.map(|(_, key, frames, reads)| {
            [key.to_string(), frames.to_string(), reads.to_string()]
        }),
    )?;
    println!(
        "(the paper leaves the trade-off open: \"The trade-offs between these \
         alternatives need to be investigated\" — these are the numbers.)"
    );
    Ok(summary)
}
