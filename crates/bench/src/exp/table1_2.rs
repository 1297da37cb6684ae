//! Tables 1 & 2: the §3.2.1 refinement walk-through, DF vs BAF.
//!
//! The paper evaluates "drastic price increas american stockmarket"
//! (five terms with list lengths 1/4/85/109/114 pages), then refines it
//! by adding "invest" (84 pages) and re-runs with warm buffers under
//! the example tuning constants (`c_ins = 0.2`, `c_add = 0.02`). DF
//! processes the added term third (idf order) and reads 37 pages from
//! disk; BAF pushes it last and reads 20.
//!
//! We select six synthetic terms whose list lengths match the paper's
//! profile and replay the same protocol.

use super::{ExpContext, ExpResult};
use crate::output::{fnum, TextTable};
use ir_core::eval::EvalOptions;
use ir_core::{Algorithm, Query, QueryResult};
use ir_storage::PolicyKind;
use ir_types::{FilterParams, TermId};

/// Runs the experiment.
pub fn run(ctx: &ExpContext) -> ExpResult<()> {
    let index = &ctx.bed.index;
    // The paper's example query is *topical* — its six terms co-occur
    // in the same documents, which is what makes S_max keep growing
    // while the long lists are scanned (333 → 591 in Table 1) and so
    // makes deferring the added term profitable. We therefore pick the
    // example terms from a single synthetic topic's salient set:
    // two short rare lists whose best partial similarity lands S_max
    // near the paper's ~300 regime, and four long lists; the added
    // "invest" analogue is the long list with the *highest* idf, so DF
    // (idf order) processes it before the other long lists while BAF
    // defers it.
    let lex = index.lexicon();
    let mut chosen: Vec<TermId> = Vec::new();
    let mut added_term: Option<TermId> = None;
    let mut best_score = f64::MAX;
    for topic in &ctx.bed.corpus.topics {
        let entries: Vec<(TermId, &ir_index::TermEntry)> = topic
            .salient
            .iter()
            .filter_map(|&(rank, _)| lex.lookup(&ir_corpus::term_name(rank)))
            .filter_map(|id| lex.entry(id).ok().map(|e| (id, e)))
            .filter(|(_, e)| !e.stopped && e.n_pages > 0)
            .collect();
        let mut short: Vec<_> = entries
            .iter()
            .filter(|(_, e)| e.n_pages <= 6)
            .filter(|(_, e)| {
                let drive = f64::from(e.f_max) * e.idf * e.idf;
                (120.0..=700.0).contains(&drive)
            })
            .collect();
        let mut long: Vec<_> = entries.iter().filter(|(_, e)| e.n_pages >= 30).collect();
        if short.len() < 2 || long.len() < 4 {
            continue;
        }
        // Prefer the topic whose short-term drive is nearest the
        // paper's S_max ≈ 300.
        short.sort_by(|(_, a), (_, b)| {
            let da = (f64::from(a.f_max) * a.idf * a.idf - 300.0).abs();
            let db = (f64::from(b.f_max) * b.idf * b.idf - 300.0).abs();
            da.total_cmp(&db)
        });
        long.sort_by_key(|(_, e)| std::cmp::Reverse(e.n_pages));
        let (s0, e0) = short[0];
        let score = (f64::from(e0.f_max) * e0.idf * e0.idf - 300.0).abs();
        if score < best_score {
            best_score = score;
            let mut picks = vec![*s0, short[1].0];
            let mut longs: Vec<(TermId, &ir_index::TermEntry)> =
                long.iter().take(4).map(|(id, e)| (*id, *e)).collect();
            // The added term: highest idf among the long lists.
            longs.sort_by(|(_, a), (_, b)| b.idf.total_cmp(&a.idf));
            added_term = Some(longs[0].0);
            picks.extend(longs.iter().map(|(id, _)| *id));
            chosen = picks;
        }
    }
    assert!(
        chosen.len() == 6 && added_term.is_some(),
        "no topic offers the Table 1 term profile at this scale"
    );
    let added = added_term.expect("set above");
    let initial: Vec<(TermId, u32)> = chosen
        .iter()
        .filter(|&&t| t != added)
        .map(|&t| (t, 1))
        .collect();
    let refined: Vec<(TermId, u32)> = chosen.iter().map(|&t| (t, 1)).collect();
    let q_initial = Query::from_ids(index, &initial)?;
    let q_refined = Query::from_ids(index, &refined)?;

    let options = EvalOptions {
        params: FilterParams::EXAMPLE,
        top_n: 20,
        baf_force_first_page: false,
    };
    // Buffer sizing: "the inverted lists from the initial query are
    // still in buffers" — but only just. §3.2.1 notes that with limited
    // buffer space DF performs even worse than its Table 1 trace: the
    // mid-order read of the added term evicts pages of terms that are
    // still to be processed, which must then be re-read. We measure how
    // many pages the initial query touches and give the pool a small
    // margin beyond that, the same regime as the paper's example.
    let pool = {
        let mut probe =
            index.make_buffer((q_refined.total_pages() as usize).max(8), PolicyKind::Lru)?;
        let warm = ctx
            .ledger
            .evaluate(Algorithm::Df, index, &mut probe, &q_initial, options)?;
        (warm.stats.pages_processed as usize + 4).max(8)
    };

    let replay = |alg: Algorithm| -> ir_types::IrResult<QueryResult> {
        let mut buffer = index.make_buffer(pool, PolicyKind::Lru)?;
        // Initial query warms the buffers (DF order for both runs, as
        // in the paper's setup).
        let ledger = &ctx.ledger;
        ledger.evaluate(Algorithm::Df, index, &mut buffer, &q_initial, options)?;
        ledger.evaluate(alg, index, &mut buffer, &q_refined, options)
    };

    let df = replay(Algorithm::Df)?;
    let baf = replay(Algorithm::Baf)?;

    let mut rows = Vec::new();
    for (name, alg, result) in [("Table 1 (DF)", "DF", &df), ("Table 2 (BAF)", "BAF", &baf)] {
        let mut table = TextTable::new([
            "term", "idf", "pages", "Smax", "f_ins", "f_add", "proc", "read",
        ]);
        for r in &result.trace {
            let marker = if r.term == added { " (+)" } else { "" };
            let (pages, processed, read) = (r.list_pages, r.pages_processed, r.pages_read);
            table.row(vec![
                format!("{}{marker}", r.term),
                format!("{:.2}", r.idf),
                pages.to_string(),
                fnum(r.s_max_before),
                fnum(r.f_ins),
                fnum(r.f_add),
                processed.to_string(),
                read.to_string(),
            ]);
            rows.push(format!(
                "{alg},{},{:.4},{pages},{:.2},{:.2},{:.2},{processed},{read}",
                r.term, r.idf, r.s_max_before, r.f_ins, r.f_add
            ));
        }
        println!("\n== {name}: refined query, warm buffers ==");
        print!("{}", table.render());
        println!(
            "totals: {} pages read from disk, {} entries processed",
            result.stats.disk_reads, result.stats.entries_processed
        );
    }
    let overlap = ir_core::rank::overlap(&df.hits, &baf.hits);
    println!(
        "\nanswer overlap (top-20): {:.0} % — the paper reports 19/20 identical",
        overlap * 100.0
    );
    // The added term must be processed last under BAF.
    let last = baf.trace.last().map(|r| r.term);
    println!("BAF processed the added term last: {}", last == Some(added));
    println!(
        "disk reads for the refinement: DF {} vs BAF {} (paper: 37 vs 20)",
        df.stats.disk_reads, baf.stats.disk_reads
    );
    ctx.out.write_csv(
        "table1_2.csv",
        "algorithm,term,idf,pages,smax,f_ins,f_add,processed,read",
        rows,
    )?;
    Ok(())
}
