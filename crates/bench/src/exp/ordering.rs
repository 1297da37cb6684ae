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

use super::{sweep, ExpContext, ExpResult};
use crate::output::TextTable;
use ir_core::eval::EvalOptions;
use ir_core::{Algorithm, Query, RefinementKind};
use ir_engine::{index_corpus_opts, IndexCorpusOptions};
use ir_index::InvertedIndex;
use ir_storage::PolicyKind;
use ir_types::ListOrdering;

/// Runs the ordering ablation.
pub fn run(ctx: &ExpContext) -> ExpResult<()> {
    println!("\n== List-ordering ablation (footnote 14): frequency vs doc-id sorted ==");
    println!("building a doc-ordered index of the same collection ...");
    let doc_index = index_corpus_opts(
        &ctx.bed.corpus,
        IndexCorpusOptions {
            ordering: ListOrdering::DocIdSorted,
            ..IndexCorpusOptions::default()
        },
    )?;

    // Single cold queries of every fourth topic, DF with Persin
    // constants, both indexes, on a pool the query's lists fit.
    let cold_df = |index: &InvertedIndex, query: &Query, pool| -> ExpResult<u64> {
        let mut buffer = index.make_buffer(pool, PolicyKind::Lru)?;
        let options = EvalOptions::default();
        Ok(ctx
            .ledger
            .evaluate(Algorithm::Df, index, &mut buffer, query, options)?
            .stats
            .disk_reads)
    };
    let (mut freq_reads, mut doc_reads, mut full_reads) = (0u64, 0u64, 0u64);
    for topic in (0..ctx.bed.n_queries()).step_by(4) {
        let q_freq = ctx.bed.query(topic);
        let q_doc = Query::from_named(&doc_index, &ctx.bed.queries[topic].terms);
        let pool = (q_freq.total_pages() as usize).max(1);
        freq_reads += cold_df(&ctx.bed.index, &q_freq, pool)?;
        doc_reads += cold_df(&doc_index, &q_doc, pool)?;
        full_reads += q_freq.total_pages();
    }
    let mut t = TextTable::new(["organization", "DF disk reads", "% of full"]);
    for (organization, reads) in [
        ("frequency-sorted [WL93, Per94]", freq_reads),
        ("doc-id-sorted (traditional)", doc_reads),
        ("full evaluation", full_reads),
    ] {
        let percent = 100.0 * reads as f64 / full_reads.max(1) as f64;
        t.row(vec![
            organization.into(),
            reads.to_string(),
            format!("{percent:.1}"),
        ]);
    }
    print!("{}", t.render());

    // One refinement sequence under BAF/RAP on both organizations: the
    // buffering techniques still help, but from a much worse baseline.
    let topic = ctx.reps.query1;
    let sequence = ctx.bed.sequence(topic, RefinementKind::AddOnly)?;
    let buffers = (ctx.profiles[topic].df_reads as usize * 3 / 4).max(1);
    let baf_rap = |index: &InvertedIndex| -> ExpResult<u64> {
        let pair = (Algorithm::Baf, PolicyKind::Rap);
        Ok(sweep(&ctx.ledger, index, &sequence, &[buffers], &[pair], None)?[0][0].reads())
    };
    let (freq_seq, doc_seq) = (baf_rap(&ctx.bed.index)?, baf_rap(&doc_index)?);
    println!(
        "ADD-ONLY sequence (topic {topic}, BAF/RAP, {buffers} buffers): \
         frequency-sorted {freq_seq} reads vs doc-sorted {doc_seq} reads"
    );
    ctx.out.write_csv(
        "ordering.csv",
        "metric,frequency_sorted,doc_sorted,full",
        [
            format!("single_query_reads,{freq_reads},{doc_reads},{full_reads}"),
            format!("sequence_reads,{freq_seq},{doc_seq},"),
        ],
    )?;
    Ok(())
}
