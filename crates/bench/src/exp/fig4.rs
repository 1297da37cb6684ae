//! Figure 4: evolution of `S_max` while the DF algorithm processes the
//! terms of the three representative queries. The paper's reading: the
//! *shape* of this curve explains the savings spread — QUERY1 spikes
//! early and high (77 % savings), QUERY2 rises in two jumps (44 %),
//! QUERY3 stays flat (9 %).

use super::{ExpContext, ExpResult};
use ir_core::eval::{evaluate, EvalOptions};
use ir_core::Algorithm;
use ir_storage::PolicyKind;
use ir_types::FilterParams;

/// Runs DF on the three representatives and emits the S_max series.
pub fn run(ctx: &ExpContext<'_>) -> ExpResult<()> {
    let reps = [
        ("QUERY1", ctx.reps.query1),
        ("QUERY2", ctx.reps.query2),
        ("QUERY3", ctx.reps.query3),
    ];
    println!("\n== Figure 4: S_max evolution during DF processing ==");
    let mut rows: Vec<Vec<String>> = Vec::new();
    for (alias, topic) in reps {
        let query = ctx.bed.query(topic);
        let pool = (query.total_pages() as usize).max(1);
        let mut buffer = ctx.bed.index.make_buffer(pool, PolicyKind::Lru)?;
        let result = evaluate(
            Algorithm::Df,
            &ctx.bed.index,
            &mut buffer,
            &query,
            EvalOptions {
                params: FilterParams::PERSIN,
                top_n: 20,
                baf_force_first_page: false,
            },
        )?;
        // Series: S_max before each term, plus the final value.
        let mut series: Vec<f64> = result.trace.iter().map(|r| r.s_max_before).collect();
        let final_smax = series
            .last()
            .copied()
            .unwrap_or(0.0)
            .max(result.trace.last().map(|r| r.s_max_before).unwrap_or(0.0));
        series.push(final_smax);
        for (i, v) in series.iter().enumerate() {
            rows.push(vec![alias.to_string(), i.to_string(), format!("{v:.2}")]);
        }
        // Compact sparkline-ish printout: value at every 5th term.
        let peaks: Vec<String> = series
            .iter()
            .step_by((series.len() / 8).max(1))
            .map(|v| format!("{v:.0}"))
            .collect();
        let savings = ctx.profiles[topic].savings * 100.0;
        println!(
            "  {alias} (topic {topic:>3}, {:>2} terms, savings {savings:>5.1} %): S_max → {}",
            result.trace.len(),
            peaks.join(" ")
        );
    }
    ctx.out
        .write_csv("fig4.csv", &["query", "term_index", "s_max"], rows)?;
    ctx.bed.index.disk().reset_stats();
    Ok(())
}
