//! Figure 3 (disk savings of DF per query vs total inverted-list
//! pages) and Table 5 (the four representative queries), plus the
//! §5.1.1 aggregate claims: DF cuts disk reads by ≈2/3 and accumulators
//! by ≈50× with the Persin constants.

use super::{ExpContext, ExpResult};
use crate::output::TextTable;

/// Prints Fig. 3 + Table 5 from the context's query profiles.
pub fn run(ctx: &ExpContext) -> ExpResult<()> {
    let profiles = &ctx.profiles;
    println!(
        "\n== Figure 3: DF savings vs query inverted-list size ({} queries) ==",
        profiles.len()
    );
    let rows = profiles.iter().map(|p| {
        format!(
            "{},{},{},{},{},{:.4},{},{}",
            p.topic,
            p.n_terms,
            p.total_pages,
            p.full_reads,
            p.df_reads,
            p.savings,
            p.full_accumulators,
            p.df_accumulators
        )
    });
    ctx.out.write_csv(
        "fig3.csv",
        "topic,n_terms,total_pages,full_reads,df_reads,savings,full_accumulators,df_accumulators",
        rows,
    )?;

    // Scatter summary in deciles of total pages.
    let mut sorted: Vec<_> = profiles.iter().collect();
    sorted.sort_by_key(|p| p.total_pages);
    let mut table = TextTable::new([
        "pages decile",
        "queries",
        "mean savings %",
        "min %",
        "max %",
    ]);
    for chunk in sorted.chunks(sorted.len().div_ceil(10).max(1)) {
        let mean = chunk.iter().map(|p| p.savings).sum::<f64>() / chunk.len() as f64;
        let min = chunk.iter().map(|p| p.savings).fold(f64::MAX, f64::min);
        let max = chunk.iter().map(|p| p.savings).fold(f64::MIN, f64::max);
        let (first, last) = (chunk[0].total_pages, chunk[chunk.len() - 1].total_pages);
        table.row(vec![
            format!("{first}–{last}"),
            chunk.len().to_string(),
            format!("{:.1}", mean * 100.0),
            format!("{:.1}", min * 100.0),
            format!("{:.1}", max * 100.0),
        ]);
    }
    print!("{}", table.render());

    let mean_savings = profiles.iter().map(|p| p.savings).sum::<f64>() / profiles.len() as f64;
    let total_full: u64 = profiles.iter().map(|p| p.full_reads).sum();
    let total_df: u64 = profiles.iter().map(|p| p.df_reads).sum();
    let aggregate_savings = 1.0 - total_df as f64 / total_full.max(1) as f64;
    let accumulator_factor = profiles
        .iter()
        .filter(|p| p.df_accumulators > 0)
        .map(|p| p.full_accumulators as f64 / p.df_accumulators as f64)
        .sum::<f64>()
        / profiles.len() as f64;
    println!(
        "aggregate: savings {:.1} % (paper: ~67 %), mean per-query {:.1} %, \
         accumulator reduction ×{:.0} (paper: ×50)",
        aggregate_savings * 100.0,
        mean_savings * 100.0,
        accumulator_factor
    );

    // Table 5: the four representatives.
    let reps = [
        ("QUERY1", ctx.reps.query1, "68 Health Hazards (77.2 %)"),
        ("QUERY2", ctx.reps.query2, "54 Satellite Launch (44.1 %)"),
        ("QUERY3", ctx.reps.query3, "96 Computer-Aided (9.4 %)"),
        ("QUERY4", ctx.reps.query4, "57 MCI (83.4 %)"),
    ];
    println!("\n== Table 5: representative queries ==");
    let mut t5 = TextTable::new([
        "alias",
        "topic",
        "terms",
        "pages",
        "read",
        "savings %",
        "paper analogue",
    ]);
    let mut rows = Vec::new();
    for (alias, idx, paper) in reps {
        let p = &profiles[idx];
        let (topic, terms, pages, read) = (p.topic, p.n_terms, p.total_pages, p.df_reads);
        t5.row(vec![
            alias.to_string(),
            topic.to_string(),
            terms.to_string(),
            pages.to_string(),
            read.to_string(),
            format!("{:.1}", p.savings * 100.0),
            paper.to_string(),
        ]);
        rows.push(format!(
            "{alias},{topic},{terms},{pages},{read},{:.4}",
            p.savings
        ));
    }
    print!("{}", t5.render());
    ctx.out
        .write_csv("table5.csv", "alias,topic,terms,pages,read,savings", rows)?;
    Ok(())
}
