//! Extension experiment: multi-user buffering (§3.3's future-work
//! discussion and §7).
//!
//! Four users run their own ADD-ONLY refinement sequences through
//! [`ir_engine::SessionServer`], all under the BAF algorithm, stepped
//! round-robin on one thread so the page request stream — and
//! therefore every number below — is reproducible. Three buffer
//! architectures compete at equal total memory, and two more rows
//! price lock striping:
//!
//! * **shared/LRU** — one pool, the query-oblivious default;
//! * **shared/RAP** — the paper's option 2: "maintain a global query
//!   history for all users ... if a term is shared by many queries,
//!   the highest `w_{q,t}` could be used". The history is RAP's own:
//!   one weight context per session, a page valued by the highest
//!   weight any session's current query gives its term. (RAP valued
//!   by the *last* announcement alone — every other user's pages
//!   worth 0 — was the row `shared_rap_naive`; it read 6 612 pages
//!   where the merged history read 4 374 and was deleted with the
//!   mechanism, see EXPERIMENTS.md.)
//! * **partitioned/RAP** — the paper's option 1: each user a private
//!   pool of `total/4` frames. Nothing is shared between partitions,
//!   so the row is the sum of what each user reads *alone* on a pool
//!   of that size. Isolation only: the paper's read-only sibling
//!   borrowing was measured (25 of this row's 6 037 reads at scale
//!   1/16) and removed — see EXPERIMENTS.md, "Multi-user buffering";
//! * **sharded\[4\]/LRU, sharded\[4\]/RAP** — the shared pool striped over
//!   four independently locked shards, each running its own policy
//!   instance over a quarter of the frames: what striping costs in
//!   reads against the one-shard `shared` rows (for RAP, what the
//!   per-shard approximation of global RAP costs).
//!
//! A second table, `multiuser_scaling.csv`, asks what the per-term
//! maximum is worth as sessions multiply — with 16 current queries,
//! does it value everything? N = 2, 4, 8, 16 sessions share one pool
//! sized, like the four users' above, at half their summed working
//! sets; the rows give its reads under LRU and under RAP, beside what
//! the N sessions read when each has that pool to itself.

use super::{ExpContext, ExpResult};
use crate::output::TextTable;
use ir_core::{Algorithm, RefinementKind};
use ir_engine::{PoolLayout, Schedule, SessionServer, SessionSpec};
use ir_storage::PolicyKind;

/// Stripe count of the sharded rows.
const SHARDS: usize = 4;

/// Session counts of the scaling table. Session `k` of every count
/// refines topic `k · n_topics / 16`, so each count's sessions are a
/// prefix of the next one's.
const SCALING_SESSIONS: [usize; 4] = [2, 4, 8, 16];

/// The four representative queries, one user each.
pub(super) fn four_users(ctx: &ExpContext) -> [usize; 4] {
    let r = ctx.reps;
    [r.query1, r.query2, r.query3, r.query4]
}

/// Half the summed cold DF working sets of `topics`: contended but not
/// hopeless.
pub(super) fn half_the_working_sets(ctx: &ExpContext, topics: &[usize]) -> usize {
    let summed: usize = topics
        .iter()
        .map(|&t| ctx.profiles[t].df_reads as usize)
        .sum();
    summed.max(2) / 2
}

/// One BAF session per topic, each refining it ADD-ONLY.
pub(super) fn sessions(ctx: &ExpContext, topics: &[usize]) -> ExpResult<Vec<SessionSpec>> {
    topics
        .iter()
        .map(|&t| {
            Ok(SessionSpec::new(
                ctx.bed.sequence(t, RefinementKind::AddOnly)?,
                Algorithm::Baf,
            ))
        })
        .collect()
}

/// Disk reads of one fault-free round-robin run of `specs` over
/// `layout`: pool misses == reads issued against the store.
fn reads(ctx: &ExpContext, specs: &[SessionSpec], layout: PoolLayout) -> ExpResult<u64> {
    let report = SessionServer::new(&ctx.bed.index, layout).run(specs, Schedule::RoundRobin)?;
    ctx.ledger.absorb(&report.ledger);
    // These experiments run fault-free, so a degraded session is a
    // harness bug, not data — its numbers must never reach the CSV.
    if let Some((i, e)) = report.failed_sessions().first() {
        return Err(format!("session {i} failed in a fault-free run: {e}").into());
    }
    Ok(report.pool_stats.misses)
}

/// One pool of `total_frames` frames in `shards` stripes.
pub(super) fn pool(total_frames: usize, policy: PolicyKind, shards: usize) -> PoolLayout {
    PoolLayout::Sharded {
        total_frames,
        policy,
        shards,
    }
}

/// Disk reads of `specs` when each session runs alone on a private
/// one-shard pool of `frames` frames, summed over the sessions.
fn reads_alone(ctx: &ExpContext, specs: &[SessionSpec], frames: usize) -> ExpResult<u64> {
    let private = pool(frames, PolicyKind::Rap, 1);
    specs
        .iter()
        .map(|spec| reads(ctx, std::slice::from_ref(spec), private))
        .sum()
}

/// Runs the architecture comparison, then the scaling table, on the
/// session server.
pub fn run(ctx: &ExpContext) -> ExpResult<()> {
    println!("\n== Multi-user buffering (extension; §3.3 options) ==");
    let users = four_users(ctx);
    let specs = sessions(ctx, &users)?;
    let total_frames = half_the_working_sets(ctx, &users);
    let per_user = (total_frames / users.len()).max(1);
    let shared = |policy, shards| reads(ctx, &specs, pool(total_frames, policy, shards));
    let rows = [
        (
            "shared / LRU".to_string(),
            "shared_lru",
            total_frames,
            shared(PolicyKind::Lru, 1)?,
        ),
        (
            "shared / RAP".to_string(),
            "shared_rap",
            total_frames,
            shared(PolicyKind::Rap, 1)?,
        ),
        (
            format!("partitioned / RAP ({}×{per_user})", users.len()),
            "partitioned_rap",
            per_user * users.len(),
            reads_alone(ctx, &specs, per_user)?,
        ),
        (
            format!("sharded[{SHARDS}] / LRU"),
            "sharded4_lru",
            total_frames,
            shared(PolicyKind::Lru, SHARDS)?,
        ),
        (
            format!("sharded[{SHARDS}] / RAP"),
            "sharded4_rap",
            total_frames,
            shared(PolicyKind::Rap, SHARDS)?,
        ),
    ];
    let mut t = TextTable::new(["architecture", "total frames", "disk reads"]);
    let mut lines = Vec::with_capacity(rows.len());
    for (label, key, frames, reads) in rows {
        t.row(vec![label, frames.to_string(), reads.to_string()]);
        lines.push(format!("{key},{frames},{reads}"));
    }
    print!("{}", t.render());
    ctx.out.write_csv(
        "multiuser.csv",
        "architecture,total_frames,disk_reads",
        lines,
    )?;
    println!(
        "(the paper leaves the trade-off open: \"The trade-offs between these \
         alternatives need to be investigated\" — these are the numbers.)"
    );

    println!("\n== Sessions on one shared pool of half their working sets ==");
    let most = SCALING_SESSIONS[SCALING_SESSIONS.len() - 1];
    let topics: Vec<usize> = (0..most).map(|k| k * ctx.bed.n_queries() / most).collect();
    let specs = sessions(ctx, &topics)?;
    let header = [
        "sessions",
        "total_frames",
        "lru_reads",
        "rap_reads",
        "alone_reads",
    ];
    let mut t = TextTable::new(header);
    let mut lines = Vec::with_capacity(SCALING_SESSIONS.len());
    for n in SCALING_SESSIONS {
        let total_frames = half_the_working_sets(ctx, &topics[..n]);
        let row = [
            n as u64,
            total_frames as u64,
            reads(ctx, &specs[..n], pool(total_frames, PolicyKind::Lru, 1))?,
            reads(ctx, &specs[..n], pool(total_frames, PolicyKind::Rap, 1))?,
            reads_alone(ctx, &specs[..n], total_frames)?,
        ]
        .map(|v| v.to_string());
        lines.push(row.join(","));
        t.row(row.to_vec());
    }
    print!("{}", t.render());
    ctx.out
        .write_csv("multiuser_scaling.csv", &header.join(","), lines)?;
    Ok(())
}
