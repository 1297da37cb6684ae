//! Extension experiment: multi-user buffering (§3.3's future-work
//! discussion and §7).
//!
//! Four users run their own ADD-ONLY refinement sequences **on four
//! OS threads** through [`ir_engine::SessionServer`], all under the
//! BAF algorithm, scheduled round-robin so the page request stream —
//! and therefore every number below — is reproducible. Three buffer
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

/// Half the summed cold DF working sets of `topics`: contended but not
/// hopeless.
fn half_the_working_sets(ctx: &ExpContext<'_>, topics: &[usize]) -> usize {
    let summed: usize = topics
        .iter()
        .map(|&t| ctx.profiles[t].df_reads as usize)
        .sum();
    summed.max(2) / 2
}

/// Disk reads of one fault-free round-robin run of `specs` over
/// `layout`: pool misses == reads issued against the store.
fn reads(ctx: &ExpContext<'_>, specs: &[SessionSpec], layout: PoolLayout) -> ExpResult<u64> {
    let report = SessionServer::new(&ctx.bed.index, layout).run(specs, Schedule::RoundRobin)?;
    // These experiments run fault-free, so a degraded session is a
    // harness bug, not data — its numbers must never reach the CSV.
    if let Some((i, e)) = report.failed_sessions().first() {
        return Err(format!("session {i} failed in a fault-free run: {e}").into());
    }
    ctx.bed.index.disk().reset_stats();
    Ok(report.pool_stats.misses)
}

/// Disk reads of `specs` when each session runs alone on a private
/// one-shard pool of `frames` frames, summed over the sessions.
fn reads_alone(
    ctx: &ExpContext<'_>,
    specs: &[SessionSpec],
    frames: usize,
    policy: PolicyKind,
) -> ExpResult<u64> {
    let private = PoolLayout::Sharded {
        total_frames: frames,
        policy,
        shards: 1,
    };
    specs
        .iter()
        .map(|spec| reads(ctx, std::slice::from_ref(spec), private))
        .sum()
}

/// One BAF session refining `topic` ADD-ONLY.
fn session(ctx: &ExpContext<'_>, topic: usize) -> ExpResult<SessionSpec> {
    let sequence = ctx.bed.sequence(topic, RefinementKind::AddOnly)?;
    Ok(SessionSpec::new(sequence, Algorithm::Baf))
}

/// Runs the architecture comparison, then the scaling table, on the
/// threaded server.
pub fn run(ctx: &ExpContext<'_>) -> ExpResult<()> {
    println!("\n== Multi-user buffering (extension; §3.3 options) ==");
    let users = [
        ctx.reps.query1,
        ctx.reps.query2,
        ctx.reps.query3,
        ctx.reps.query4,
    ];
    let specs: Vec<SessionSpec> = users
        .iter()
        .map(|&t| session(ctx, t))
        .collect::<Result<_, _>>()?;
    let total_frames = half_the_working_sets(ctx, &users);
    let per_user = (total_frames / users.len()).max(1);
    let shared = |policy, shards| {
        let layout = PoolLayout::Sharded {
            total_frames,
            policy,
            shards,
        };
        reads(ctx, &specs, layout)
    };
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
            format!("partitioned / RAP ({}×{})", users.len(), per_user),
            "partitioned_rap",
            per_user * users.len(),
            reads_alone(ctx, &specs, per_user, PolicyKind::Rap)?,
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
    let mut t = TextTable::new(&["architecture", "total frames", "disk reads"]);
    let mut cells = Vec::with_capacity(rows.len());
    for (label, key, frames, reads) in rows {
        t.row(vec![label, frames.to_string(), reads.to_string()]);
        cells.push([key.to_string(), frames.to_string(), reads.to_string()]);
    }
    print!("{}", t.render());
    ctx.out.write_csv(
        "multiuser.csv",
        &["architecture", "total_frames", "disk_reads"],
        cells,
    )?;
    println!(
        "(the paper leaves the trade-off open: \"The trade-offs between these \
         alternatives need to be investigated\" — these are the numbers.)"
    );

    println!("\n== Sessions on one shared pool of half their working sets ==");
    let most = SCALING_SESSIONS[SCALING_SESSIONS.len() - 1];
    let topics: Vec<usize> = (0..most).map(|k| k * ctx.bed.n_queries() / most).collect();
    let specs: Vec<SessionSpec> = topics
        .iter()
        .map(|&t| session(ctx, t))
        .collect::<Result<_, _>>()?;
    let header = [
        "sessions",
        "total_frames",
        "lru_reads",
        "rap_reads",
        "alone_reads",
    ];
    let mut t = TextTable::new(&header);
    let mut cells = Vec::with_capacity(SCALING_SESSIONS.len());
    for n in SCALING_SESSIONS {
        let total_frames = half_the_working_sets(ctx, &topics[..n]);
        let shared = |policy| PoolLayout::Sharded {
            total_frames,
            policy,
            shards: 1,
        };
        let row = [
            n as u64,
            total_frames as u64,
            reads(ctx, &specs[..n], shared(PolicyKind::Lru))?,
            reads(ctx, &specs[..n], shared(PolicyKind::Rap))?,
            reads_alone(ctx, &specs[..n], total_frames, PolicyKind::Rap)?,
        ]
        .map(|v| v.to_string());
        t.row(row.to_vec());
        cells.push(row);
    }
    print!("{}", t.render());
    ctx.out.write_csv("multiuser_scaling.csv", &header, cells)?;
    Ok(())
}
