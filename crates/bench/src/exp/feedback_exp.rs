//! Extension experiment: refinement driven by **relevance feedback**
//! (§7 future work: "query re finement workloads generated using
//! relevance feedback"). Feedback-expanded queries are still ADD-ONLY
//! refinements — the system, not the user, picks the added terms — so
//! the paper's techniques should transfer. This experiment checks that
//! they do.

use super::{grid_table, sweep, ExpContext, ExpResult};
use ir_core::{feedback_sequence, Algorithm, FeedbackOptions, Query, SessionConfig};
use ir_storage::PolicyKind;

const PAIRS: [(Algorithm, PolicyKind); 4] = [
    (Algorithm::Df, PolicyKind::Lru),
    (Algorithm::Df, PolicyKind::Rap),
    (Algorithm::Baf, PolicyKind::Lru),
    (Algorithm::Baf, PolicyKind::Rap),
];

/// Runs the feedback-refinement comparison on the representative
/// queries.
pub fn run(ctx: &ExpContext) -> ExpResult<()> {
    println!("\n== Feedback-driven refinement (extension; §7 future work) ==");
    let mut rows = Vec::new();
    let mut best_savings = Vec::new();
    for (alias, topic) in [
        ("QUERY1", ctx.reps.query1),
        ("QUERY2", ctx.reps.query2),
        ("QUERY4", ctx.reps.query4),
    ] {
        // Seed query: the topic's five most salient terms; feedback
        // grows it by 3 terms per round, like the ADD-ONLY groups.
        let seed: Vec<_> = ctx.bed.queries[topic]
            .terms
            .iter()
            .take(5)
            .filter_map(|(name, fq)| ctx.bed.index.lexicon().lookup(name).map(|t| (t, *fq)))
            .collect();
        let sequence =
            feedback_sequence(&ctx.bed.index, &seed, 10, FeedbackOptions::default(), topic)?;
        // Working set of the final feedback query.
        let final_query = Query::from_ids(&ctx.bed.index, sequence.steps.last().unwrap())?;
        let total_pages = final_query.total_pages();
        let buffers =
            [0.125, 0.25, 0.5].map(|f| ((total_pages as f64 * f).round() as usize).max(1));
        let grid = sweep(
            &ctx.ledger,
            &ctx.bed.index,
            &sequence,
            &buffers,
            &PAIRS,
            None,
        )?;
        let topic_best = grid
            .iter()
            .map(|row| 1.0 - row[3].reads() as f64 / row[0].reads().max(1) as f64)
            .fold(0.0f64, f64::max);
        rows.extend(grid.iter().flatten().map(|c| {
            format!(
                "{alias},{},{},{}",
                c.config.buffer_pages,
                c.config.label(),
                c.reads()
            )
        }));
        println!(
            "{alias} (topic {topic}): {} feedback rounds, final query {} terms / {} pages; \
             best BAF/RAP savings {:.1} %",
            sequence.len() - 1,
            final_query.len(),
            total_pages,
            topic_best * 100.0
        );
        print!("{}", grid_table(&grid, SessionConfig::label));
        best_savings.push(topic_best);
    }
    ctx.out
        .write_csv("feedback.csv", "query,buffer_pages,combo,total_reads", rows)?;
    let mean = best_savings.iter().sum::<f64>() / best_savings.len().max(1) as f64;
    println!(
        "mean best-case BAF/RAP savings on feedback refinement: {:.1} %",
        mean * 100.0
    );
    Ok(())
}
