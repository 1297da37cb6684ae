//! Table 4: characteristics of the inverted lists (idf bands), plus the
//! §4.2 physical statistics and the \[PZSD96\] compression premise.

use super::{ExpContext, ExpResult};
use crate::output::TextTable;

/// Paper values for reference printing (N = 173,252 scale).
const PAPER_BANDS: [(&str, &str, &str, u32); 4] = [
    ("Low-idf", "1.91–3.10", "51–115", 265),
    ("Medium-idf", "3.10–5.42", "11–50", 1_255),
    ("High-idf", "5.42–8.74", "2–10", 4_540),
    ("Very-high-idf", "8.74–17.40", "1", 160_957),
];

/// Runs the census; returns the number of multi-page terms.
pub fn run(ctx: &ExpContext<'_>) -> ExpResult<usize> {
    let index = &ctx.bed.index;
    let n = index.n_docs();
    println!(
        "\n== Table 4: inverted-list census ==\ncollection: {} docs, {} terms, {} postings, {} pages (PageSize {})",
        n,
        index.lexicon().n_indexed_terms(),
        index.total_postings(),
        index.total_pages(),
        index.params().page_size
    );
    let max_idf = f64::from(n).log2();
    let bounds = [1.91, 3.10, 5.42, 8.74, max_idf.max(8.75) + 0.01];
    let bands = index.lexicon().idf_bands(&bounds);
    let mut table = TextTable::new(&[
        "group",
        "idf range",
        "pages",
        "terms",
        "paper idf",
        "paper pages",
        "paper terms",
    ]);
    let mut rows = Vec::new();
    for (band, paper) in bands.iter().zip(PAPER_BANDS.iter()) {
        table.row(vec![
            paper.0.to_string(),
            format!("{:.2}–{:.2}", band.idf_low, band.idf_high),
            if band.min_pages == band.max_pages {
                band.min_pages.to_string()
            } else {
                format!("{}–{}", band.min_pages, band.max_pages)
            },
            band.n_terms.to_string(),
            paper.1.to_string(),
            paper.2.to_string(),
            paper.3.to_string(),
        ]);
        rows.push(vec![
            paper.0.to_string(),
            format!("{:.3}", band.idf_low),
            format!("{:.3}", band.idf_high),
            band.min_pages.to_string(),
            band.max_pages.to_string(),
            band.n_terms.to_string(),
        ]);
    }
    print!("{}", table.render());
    ctx.out.write_csv(
        "table4.csv",
        &[
            "group",
            "idf_low",
            "idf_high",
            "min_pages",
            "max_pages",
            "n_terms",
        ],
        rows,
    )?;

    let multi_page = index
        .lexicon()
        .iter()
        .filter(|(_, e)| !e.stopped && e.n_pages > 1)
        .count();
    println!(
        "multi-page terms: {} of {} ({:.1} %; paper: 6,060 of 167,017 = 3.6 %)",
        multi_page,
        index.lexicon().n_indexed_terms(),
        100.0 * multi_page as f64 / index.lexicon().n_indexed_terms().max(1) as f64
    );
    if let Some(c) = index.compression_stats() {
        println!(
            "compression: {:.2} bytes/entry over {} postings (paper assumes ≈1 B/entry \
             per [PZSD96]; raw is 6 B/entry)",
            c.bytes_per_entry(),
            c.n_postings
        );
    }
    // Footnote 6's memory-compact table: one `p_t` per integer
    // threshold `0..=10` (the largest `f_add` of importance), kept for
    // multi-page terms only — its size is arithmetic on the census.
    const PAPER_CAP: usize = 10;
    println!(
        "conversion-table resident size: exact {} KB, compact (footnote-6 scheme, cap {PAPER_CAP})          \
         {} KB over {multi_page} multi-page rows (paper: ~121 KB over 6,060 rows)",
        index.conversion().memory_bytes() / 1024,
        multi_page * (PAPER_CAP + 1) * std::mem::size_of::<u32>() / 1024,
    );
    Ok(multi_page)
}
