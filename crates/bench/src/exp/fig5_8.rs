//! Figures 5–8: total disk reads for whole refinement sequences as a
//! function of buffer size, for {DF, BAF} × {LRU, MRU, RAP}.
//!
//! * Fig. 5 — ADD-ONLY, QUERY1-like sequence
//! * Fig. 6 — ADD-ONLY, QUERY2-like sequence
//! * Fig. 7 — ADD-DROP, QUERY1-like sequence
//! * Fig. 8 — ADD-DROP, QUERY2-like sequence
//!
//! Expected shapes (paper §5.2.1/§5.3): DF/LRU is worst across the
//! range; BAF and/or MRU/RAP each improve substantially; BAF/RAP's
//! best case saves ≥ 70 % vs DF/LRU on ADD-ONLY; on ADD-DROP MRU
//! degrades (sometimes below LRU) while RAP stays best.

use super::{grid_table, sweep, sweep_points, ExpContext, ExpResult, PAPER_PAIRS};
use ir_core::{RefinementKind, SessionConfig};

/// Runs one figure: `topic`'s sequence of `kind`, full sweep.
fn figure(ctx: &ExpContext, label: &str, topic: usize, kind: RefinementKind) -> ExpResult<()> {
    let sequence = ctx.bed.sequence(topic, kind)?;
    let total_pages = ctx.profiles[topic].total_pages;
    println!(
        "\n== {label}: {kind} sequence of topic {topic} ({} refinements, {} query pages) ==",
        sequence.len(),
        total_pages
    );
    let points = sweep_points(total_pages);
    let grid = sweep(
        &ctx.ledger,
        &ctx.bed.index,
        &sequence,
        &points,
        &PAPER_PAIRS,
        None,
    )?;
    print!("{}", grid_table(&grid, SessionConfig::label));
    // Modeled I/O time under a 1998-era disk (10 ms seek, 0.5 ms page
    // transfer): sequential tail reads are cheap, the random re-reads
    // LRU induces are not.
    let rows = grid.iter().flatten().map(|c| {
        let (config, io_ms) = (&c.config, c.disk.modeled_io_ms(10.0, 0.5));
        let last = c.outcome.last_disk_reads();
        format!(
            "{},{},{},{last},{io_ms:.1}",
            config.buffer_pages,
            config.label(),
            c.reads()
        )
    });
    ctx.out.write_csv(
        &format!("{label}.csv"),
        "buffer_pages,combo,total_reads,last_refinement_reads,modeled_io_ms",
        rows,
    )?;

    let reads: Vec<Vec<u64>> = grid
        .iter()
        .map(|row| row.iter().map(|c| c.reads()).collect())
        .collect();
    let best_savings_baf_rap = reads
        .iter()
        .map(|row| 1.0 - row[5] as f64 / row[0].max(1) as f64)
        .fold(f64::MIN, f64::max);
    let df_lru_worst_everywhere = reads
        .iter()
        .all(|row| row[1..].iter().all(|&v| v <= row[0]));
    let mru_worse_than_lru_somewhere = reads.iter().any(|row| row[1] > row[0]);
    println!(
        "best-case BAF/RAP savings vs DF/LRU: {:.1} % | DF/LRU worst everywhere: {} | \
         DF/MRU ever worse than DF/LRU: {}",
        best_savings_baf_rap * 100.0,
        df_lru_worst_everywhere,
        mru_worse_than_lru_somewhere
    );
    Ok(())
}

/// Figures 5 & 6 (ADD-ONLY).
pub fn run_add_only(ctx: &ExpContext) -> ExpResult<()> {
    figure(ctx, "fig5", ctx.reps.query1, RefinementKind::AddOnly)?;
    figure(ctx, "fig6", ctx.reps.query2, RefinementKind::AddOnly)
}

/// Figures 7 & 8 (ADD-DROP).
pub fn run_add_drop(ctx: &ExpContext) -> ExpResult<()> {
    figure(ctx, "fig7", ctx.reps.query1, RefinementKind::AddDrop)?;
    figure(ctx, "fig8", ctx.reps.query2, RefinementKind::AddDrop)
}
