//! Table 7: disk reads for the **last** refinement of the ADD-ONLY
//! sequences, at the buffer size that yields the most improvement, for
//! all six algorithm/policy combinations — plus the §5.2.2 "collapsed
//! sequence" variant (everything but the last refinement merged into
//! one big first query), where BAF/LRU and BAF/MRU degrade but BAF/RAP
//! does not.

use super::{sweep, sweep_points, Cell, ExpContext, ExpResult, PAPER_PAIRS};
use crate::output::TextTable;
use ir_core::RefinementKind;

/// Runs Table 7.
pub fn run(ctx: &ExpContext) -> ExpResult<()> {
    println!("\n== Table 7: disk reads for the last refinement (best buffer size) ==");
    let last = |c: &Cell| c.outcome.last_disk_reads();
    let mut rows: Vec<String> = Vec::new();
    for (alias, topic) in [("QUERY1", ctx.reps.query1), ("QUERY2", ctx.reps.query2)] {
        let sequence = ctx.bed.sequence(topic, RefinementKind::AddOnly)?;
        let points = sweep_points(ctx.profiles[topic].total_pages);
        let grid = sweep(
            &ctx.ledger,
            &ctx.bed.index,
            &sequence,
            &points,
            &PAPER_PAIRS,
            None,
        )?;
        // The paper picks "the buffer sizes that yield the most
        // improvement" of BAF/RAP over DF/LRU; the smallest on a tie.
        let savings = |row: &[Cell]| 1.0 - last(&row[5]) as f64 / last(&row[0]).max(1) as f64;
        let mut best = &grid[0];
        for row in &grid[1..] {
            if savings(row) > savings(best) {
                best = row;
            }
        }
        let buffers = best[0].config.buffer_pages;
        // The collapsed variant (§5.2.2), BAF rows only as in the paper.
        let collapsed = sweep(
            &ctx.ledger,
            &ctx.bed.index,
            &sequence.collapsed(),
            &[buffers],
            &PAPER_PAIRS[3..],
            None,
        )?;

        println!(
            "\nADD-ONLY-{alias} (topic {topic}), {buffers} buffer pages \
             — best-case last-refinement savings {:.1} %:",
            savings(best) * 100.0
        );
        let row = |label: String, cells: &[Cell]| -> Vec<String> {
            let reads = cells.iter().map(|c| last(c).to_string());
            std::iter::once(label).chain(reads).collect()
        };
        let mut table = TextTable::new(["", "LRU", "MRU", "RAP"]);
        for alg in best.chunks(3) {
            table.row(row(alg[0].config.algorithm.to_string(), alg));
        }
        print!("{}", table.render());
        let mut table = TextTable::new(["", "LRU", "MRU", "RAP"]);
        table.row(row("BAF collapsed".to_string(), &collapsed[0]));
        print!("{}", table.render());
        for (variant, cells) in [("normal", best), ("collapsed", &collapsed[0])] {
            rows.extend(cells.iter().map(|c| {
                format!(
                    "{alias},{variant},{buffers},{},{}",
                    c.config.label(),
                    last(c)
                )
            }));
        }
    }
    ctx.out.write_csv(
        "table7.csv",
        "query,variant,buffer_pages,combo,last_refinement_reads",
        rows,
    )?;
    Ok(())
}
