//! Anatomy of a frequency-sorted inverted index: the Table 4 census,
//! compression statistics, and a conversion-table walkthrough.
//!
//! ```sh
//! cargo run --release --example index_anatomy
//! ```

use buffir::corpus::{Corpus, CorpusConfig};
use buffir::engine::index_corpus;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let corpus = Corpus::generate(CorpusConfig::small());
    let index = index_corpus(&corpus, true)?;
    let n = index.n_docs();

    println!(
        "collection: {} docs, {} terms, {} postings, {} pages (PageSize {})",
        n,
        index.n_terms(),
        index.total_postings(),
        index.total_pages(),
        index.params().page_size
    );

    // Table 4-style census. The paper's bands for N = 173,252:
    // low 1.91–3.10, medium 3.10–5.42, high 5.42–8.74, very-high 8.74–17.40.
    let max_idf = f64::from(n).log2();
    let bounds = [1.91, 3.10, 5.42, 8.74, max_idf + 0.01];
    println!("\ninverted-list census (Table 4 analogue):");
    println!(
        "{:>22} {:>12} {:>12} {:>8}",
        "idf range", "pages", "terms", ""
    );
    for band in index.lexicon().idf_bands(&bounds) {
        println!(
            "{:>10.2} – {:<9.2} {:>5} – {:<6} {:>8}",
            band.idf_low, band.idf_high, band.min_pages, band.max_pages, band.n_terms
        );
    }

    if let Some(c) = index.compression_stats() {
        println!(
            "\ncompression ([PZSD96] analogue): {} postings, {:.2} bytes/entry \
             ({} KB compressed vs {} KB at 6 B/entry)",
            c.n_postings,
            c.bytes_per_entry(),
            c.compressed_bytes / 1024,
            c.raw_bytes / 1024
        );
    }

    // Conversion-table walkthrough for the longest list.
    let (term, entry) = index
        .lexicon()
        .iter()
        .max_by_key(|(_, e)| e.n_pages)
        .expect("nonempty lexicon");
    println!(
        "\nBAF conversion table for the longest list ({}: {} pages, f_max {}):",
        index.lexicon().name(term),
        entry.n_pages,
        entry.f_max
    );
    println!("{:>8} {:>12} {:>10}", "f_add", "entries >", "p_t");
    for f_add in [0.0, 0.5, 1.0, 2.0, 3.0, 5.0, 10.0, f64::from(entry.f_max)] {
        let above = index.conversion().postings_above(term, f_add)?;
        let pages = index.conversion().pages_to_process(term, f_add)?;
        println!("{f_add:>8.1} {above:>12} {pages:>10}");
    }
    println!(
        "\n(conversion table resident size: {} KB)",
        index.conversion().memory_bytes() / 1024
    );
    Ok(())
}
