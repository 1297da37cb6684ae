//! Extension ablation: the paper's §6 claim that "the newer LRU/k and
//! 2Q policies will fare no better than LRU in this case", tested with
//! actual LRU-2 and 2Q implementations (plus FIFO and Clock controls)
//! on both workload kinds.

use super::{grid_table, sweep, ExpContext, ExpResult};
use ir_core::{Algorithm, RefinementKind};
use ir_storage::PolicyKind;

/// Runs the policy ablation on the QUERY1 representative over every
/// policy of [`PolicyKind::ALL`].
pub fn run(ctx: &ExpContext) -> ExpResult<()> {
    let topic = ctx.reps.query1;
    let total_pages = ctx.profiles[topic].total_pages.max(8) as f64;
    println!(
        "\n== Ablation: {} policies (DF algorithm, topic {topic}) ==",
        PolicyKind::ALL.len()
    );
    let buffers =
        [1.0 / 32.0, 1.0 / 16.0, 1.0 / 8.0].map(|f| ((total_pages * f).round() as usize).max(1));
    let pairs = PolicyKind::ALL.map(|policy| (Algorithm::Df, policy));
    // Worst LRU-2 / LRU and 2Q / LRU ratios, best RAP / LRU ratio.
    let (mut lru2_vs_lru, mut twoq_vs_lru, mut rap_vs_lru) = (0.0f64, 0.0f64, f64::MAX);
    let mut rows = Vec::new();
    for kind in [RefinementKind::AddOnly, RefinementKind::AddDrop] {
        let sequence = ctx.bed.sequence(topic, kind)?;
        let grid = sweep(
            &ctx.ledger,
            &ctx.bed.index,
            &sequence,
            &buffers,
            &pairs,
            None,
        )?;
        for row in &grid {
            let lru = row[0].reads().max(1) as f64;
            lru2_vs_lru = lru2_vs_lru.max(row[3].reads() as f64 / lru);
            twoq_vs_lru = twoq_vs_lru.max(row[4].reads() as f64 / lru);
            rap_vs_lru = rap_vs_lru.min(row[2].reads() as f64 / lru);
            rows.extend(row.iter().map(|c| {
                format!(
                    "{kind},{},{},{}",
                    c.config.buffer_pages,
                    c.config.policy,
                    c.reads()
                )
            }));
        }
        println!("{kind}:");
        print!("{}", grid_table(&grid, |config| config.policy.to_string()));
    }
    ctx.out.write_csv(
        "ablation_policies.csv",
        "workload,buffer_pages,policy,total_reads",
        rows,
    )?;
    println!(
        "LRU-2/LRU worst-case ratio {lru2_vs_lru:.2}, 2Q/LRU {twoq_vs_lru:.2} \
         (≈1 ⇒ 'no better than LRU'); RAP/LRU best-case ratio {rap_vs_lru:.2}"
    );
    Ok(())
}
