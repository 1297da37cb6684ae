//! Extension experiment: frequency-sorted vs document-sorted inverted
//! lists (§2.3 / footnote 14).
//!
//! The paper: "Since algorithms that use inverted lists ordered by
//! document identifiers can be expected to read most of the inverted
//! list pages \[Bro95\], those algorithms would perform significantly
//! worse than DF here." We build the *same* collection under both
//! organizations and run identical DF queries and refinement sequences:
//! the doc-ordered index cannot terminate scans early, so its read
//! counts should collapse back toward full evaluation.

use super::{ExpContext, ExpResult};
use crate::output::TextTable;
use ir_core::eval::{evaluate, EvalOptions};
use ir_core::{run_sequence, Algorithm, Query, RefinementKind, SessionConfig};
use ir_engine::{index_corpus_opts, IndexCorpusOptions};
use ir_storage::PolicyKind;
use ir_types::ListOrdering;

/// Summary for EXPERIMENTS.md.
#[derive(Clone, Copy, Debug, Default)]
pub struct OrderingSummary {
    /// Aggregate single-query reads, frequency-sorted DF.
    pub freq_reads: u64,
    /// Aggregate single-query reads, doc-sorted DF.
    pub doc_reads: u64,
    /// Aggregate full-evaluation reads (upper bound).
    pub full_reads: u64,
}

/// Runs the ordering ablation.
pub fn run(ctx: &ExpContext<'_>) -> ExpResult<OrderingSummary> {
    println!("\n== List-ordering ablation (footnote 14): frequency vs doc-id sorted ==");
    println!("building a doc-ordered index of the same collection ...");
    let doc_index = index_corpus_opts(
        &ctx.bed.corpus,
        IndexCorpusOptions {
            ordering: ListOrdering::DocIdSorted,
            ..IndexCorpusOptions::default()
        },
    )?;

    // Single cold queries, DF with Persin constants, both indexes.
    let mut freq_reads = 0u64;
    let mut doc_reads = 0u64;
    let mut full_reads = 0u64;
    let sample: Vec<usize> = (0..ctx.bed.n_queries()).step_by(4).collect();
    for &topic in &sample {
        let q_freq = ctx.bed.query(topic);
        let q_doc = Query::from_named(&doc_index, &ctx.bed.queries[topic].terms);
        let pool = (q_freq.total_pages() as usize).max(1);
        let mut b1 = ctx.bed.index.make_buffer(pool, PolicyKind::Lru)?;
        let r1 = evaluate(
            Algorithm::Df,
            &ctx.bed.index,
            &mut b1,
            &q_freq,
            EvalOptions::default(),
        )?;
        let mut b2 = doc_index.make_buffer(pool, PolicyKind::Lru)?;
        let r2 = evaluate(
            Algorithm::Df,
            &doc_index,
            &mut b2,
            &q_doc,
            EvalOptions::default(),
        )?;
        freq_reads += r1.stats.disk_reads;
        doc_reads += r2.stats.disk_reads;
        full_reads += q_freq.total_pages();
    }
    let mut t = TextTable::new(&["organization", "DF disk reads", "% of full"]);
    t.row(vec![
        "frequency-sorted [WL93, Per94]".into(),
        freq_reads.to_string(),
        format!(
            "{:.1}",
            100.0 * freq_reads as f64 / full_reads.max(1) as f64
        ),
    ]);
    t.row(vec![
        "doc-id-sorted (traditional)".into(),
        doc_reads.to_string(),
        format!("{:.1}", 100.0 * doc_reads as f64 / full_reads.max(1) as f64),
    ]);
    t.row(vec![
        "full evaluation".into(),
        full_reads.to_string(),
        "100.0".into(),
    ]);
    print!("{}", t.render());

    // One refinement sequence under BAF/RAP on both organizations: the
    // buffering techniques still help, but from a much worse baseline.
    let topic = ctx.reps.query1;
    let sequence = ctx.bed.sequence(topic, RefinementKind::AddOnly)?;
    let buffers = (ctx.profiles[topic].df_reads as usize * 3 / 4).max(1);
    let freq_seq = run_sequence(
        &ctx.bed.index,
        &sequence,
        SessionConfig::new(Algorithm::Baf, PolicyKind::Rap, buffers),
        None,
    )?
    .total_disk_reads();
    let doc_seq = run_sequence(
        &doc_index,
        &sequence,
        SessionConfig::new(Algorithm::Baf, PolicyKind::Rap, buffers),
        None,
    )?
    .total_disk_reads();
    println!(
        "ADD-ONLY sequence (topic {topic}, BAF/RAP, {buffers} buffers): \
         frequency-sorted {freq_seq} reads vs doc-sorted {doc_seq} reads"
    );
    ctx.out.write_csv(
        "ordering.csv",
        &["metric", "frequency_sorted", "doc_sorted", "full"],
        [
            vec![
                "single_query_reads".to_string(),
                freq_reads.to_string(),
                doc_reads.to_string(),
                full_reads.to_string(),
            ],
            vec![
                "sequence_reads".to_string(),
                freq_seq.to_string(),
                doc_seq.to_string(),
                String::new(),
            ],
        ],
    )?;
    ctx.bed.index.disk().reset_stats();
    Ok(OrderingSummary {
        freq_reads,
        doc_reads,
        full_reads,
    })
}
