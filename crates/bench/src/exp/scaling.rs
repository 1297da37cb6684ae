//! Methodology self-check: the proportional-shrink scaling (documents
//! and page size together — the paper's own §4.2 trick in reverse) must
//! leave the experiment-relevant statistics invariant. If it does, the
//! default σ = 1/16 results speak for the full-scale collection.
//!
//! Invariants checked across two scales (the context's σ and σ/2):
//! pages-per-term spectrum (multi-page fraction, longest list), DF
//! savings distribution (Figure 3's y-axis), and accumulator reduction.

use super::{ExpContext, ExpResult};
use crate::ledger::Ledger;
use crate::output::TextTable;
use crate::setup::{profile_queries_into, TestBed};
use ir_corpus::CorpusConfig;

/// Mean DF savings, multi-page term fraction, longest list (pages) and
/// mean accumulator reduction of a testbed.
fn stats_of(bed: &TestBed, ledger: &Ledger) -> ExpResult<[f64; 4]> {
    let profiles = profile_queries_into(bed, ledger)?;
    let n = profiles.len().max(1) as f64;
    let mean_savings = profiles.iter().map(|p| p.savings).sum::<f64>() / n;
    let lexicon = bed.index.lexicon();
    let multi = lexicon
        .iter()
        .filter(|(_, e)| !e.stopped && e.n_pages > 1)
        .count() as f64;
    let indexed = lexicon.n_indexed_terms().max(1) as f64;
    let longest = lexicon.iter().map(|(_, e)| e.n_pages).max().unwrap_or(0);
    let accumulators = profiles
        .iter()
        .filter(|p| p.df_accumulators > 0)
        .map(|p| p.full_accumulators as f64 / p.df_accumulators as f64)
        .sum::<f64>()
        / n;
    Ok([
        mean_savings,
        multi / indexed,
        f64::from(longest),
        accumulators,
    ])
}

/// Runs the scaling comparison.
pub fn run(ctx: &ExpContext) -> ExpResult<()> {
    println!("\n== Scaling self-check: proportional shrink preserves the statistics ==");
    // σ as the collection realises it: `scaling.csv` is baselined on
    // this, not on the requested `ctx.scale`.
    let sigma = ctx.bed.corpus.config.n_docs as f64 / f64::from(ir_corpus::config::WSJ_DOCS);
    let half = CorpusConfig::paper_scaled(sigma / 2.0);
    println!(
        "building a second testbed at σ = {:.4} (the context runs at σ = {:.4}) ...",
        sigma / 2.0,
        sigma
    );
    let half_bed = TestBed::from_config(half)?;

    let (full, half) = (
        stats_of(&ctx.bed, &ctx.ledger)?,
        stats_of(&half_bed, &ctx.ledger)?,
    );
    let mut t = TextTable::new([
        "statistic".to_string(),
        format!("σ={sigma:.4}"),
        format!("σ={:.4}", sigma / 2.0),
    ]);
    let mut rows = Vec::new();
    // Printed label, CSV name, printed scale and decimals, CSV decimals.
    for (i, (label, name, scale, shown, written)) in [
        ("mean DF savings %", "mean_savings", 100.0, 1, 4),
        (
            "multi-page term fraction %",
            "multi_page_fraction",
            100.0,
            2,
            4,
        ),
        ("longest list (pages)", "longest_list_pages", 1.0, 0, 0),
        ("accumulator reduction ×", "accumulator_factor", 1.0, 0, 1),
    ]
    .into_iter()
    .enumerate()
    {
        let (full, half) = (full[i], half[i]);
        t.row(vec![
            label.into(),
            format!("{:.shown$}", full * scale),
            format!("{:.shown$}", half * scale),
        ]);
        rows.push(format!("{name},{full:.written$},{half:.written$}"));
    }
    print!("{}", t.render());
    println!(
        "(savings and page spectra should agree within a few points; that is\n\
         what licenses reading the σ-scaled results as full-scale results)"
    );
    ctx.out
        .write_csv("scaling.csv", "statistic,full_scale,half_scale", rows)?;
    Ok(())
}
