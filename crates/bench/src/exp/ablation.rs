//! Extension ablation: the paper's §6 claim that "the newer LRU/k and
//! 2Q policies will fare no better than LRU in this case", tested with
//! actual LRU-2 and 2Q implementations (plus FIFO and Clock controls)
//! on both workload kinds.

use super::{ExpContext, ExpResult};
use crate::output::TextTable;
use ir_core::{run_sequence, Algorithm, RefinementKind, SessionConfig};
use ir_storage::PolicyKind;

/// Outcome for EXPERIMENTS.md: at the most contended size, how did
/// LRU-2 and 2Q compare to LRU and RAP?
#[derive(Clone, Copy, Debug, Default)]
pub struct AblationSummary {
    /// max over workloads of reads(LRU-2)/reads(LRU).
    pub lru2_vs_lru: f64,
    /// max over workloads of reads(2Q)/reads(LRU).
    pub twoq_vs_lru: f64,
    /// min over workloads of reads(RAP)/reads(LRU).
    pub rap_vs_lru: f64,
}

/// Runs the policy ablation on the QUERY1 representative over the
/// static policies of [`PolicyKind::ALL`]; the adaptive ones have their
/// own experiment ([`super::adaptive`]).
pub fn run(ctx: &ExpContext<'_>) -> ExpResult<AblationSummary> {
    let policies = PolicyKind::ALL;
    let topic = ctx.reps.query1;
    let total_pages = ctx.profiles[topic].total_pages.max(8) as f64;
    println!(
        "\n== Ablation: {} policies (DF algorithm, topic {topic}) ==",
        policies.len()
    );
    let mut summary = AblationSummary {
        rap_vs_lru: f64::MAX,
        ..AblationSummary::default()
    };
    let mut csv_rows = Vec::new();
    for kind in [RefinementKind::AddOnly, RefinementKind::AddDrop] {
        let sequence = ctx.bed.sequence(topic, kind)?;
        let mut table_header = vec!["buffers".to_string()];
        table_header.extend(policies.iter().map(|p| p.to_string()));
        let hdr: Vec<&str> = table_header.iter().map(String::as_str).collect();
        let mut table = TextTable::new(&hdr);
        for frac in [1.0 / 32.0, 1.0 / 16.0, 1.0 / 8.0] {
            let buffers = ((total_pages * frac).round() as usize).max(1);
            let mut cells = vec![buffers.to_string()];
            let mut reads_by_policy = Vec::new();
            for policy in policies {
                let out = run_sequence(
                    &ctx.bed.index,
                    &sequence,
                    SessionConfig::new(Algorithm::Df, policy, buffers),
                    None,
                )?;
                let reads = out.total_disk_reads();
                cells.push(reads.to_string());
                reads_by_policy.push(reads);
                csv_rows.push(vec![
                    kind.to_string(),
                    buffers.to_string(),
                    policy.to_string(),
                    reads.to_string(),
                ]);
            }
            table.row(cells);
            let lru = reads_by_policy[0].max(1) as f64;
            summary.lru2_vs_lru = summary.lru2_vs_lru.max(reads_by_policy[3] as f64 / lru);
            summary.twoq_vs_lru = summary.twoq_vs_lru.max(reads_by_policy[4] as f64 / lru);
            summary.rap_vs_lru = summary.rap_vs_lru.min(reads_by_policy[2] as f64 / lru);
        }
        println!("{kind}:");
        print!("{}", table.render());
    }
    ctx.out.write_csv(
        "ablation_policies.csv",
        &["workload", "buffer_pages", "policy", "total_reads"],
        csv_rows,
    )?;
    println!(
        "LRU-2/LRU worst-case ratio {:.2}, 2Q/LRU {:.2} (≈1 ⇒ 'no better than LRU'); \
         RAP/LRU best-case ratio {:.2}",
        summary.lru2_vs_lru, summary.twoq_vs_lru, summary.rap_vs_lru
    );
    ctx.bed.index.disk().reset_stats();
    Ok(summary)
}
