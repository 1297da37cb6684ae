//! The assembled inverted index.

use crate::conversion::ConversionTable;
use crate::docstats::DocStats;
use crate::forward::ForwardIndex;
use crate::lexicon::Lexicon;
use ir_storage::{BufferManager, CompressionStats, DiskSim, PolicyKind};
use ir_types::{IndexParams, IrResult, TermId};
use std::sync::Arc;

/// A complete frequency-sorted inverted index: pages on the simulated
/// disk plus the memory-resident structures (lexicon with `idf_t` /
/// `f_max`, document vector lengths, BAF conversion table).
#[derive(Debug)]
pub struct InvertedIndex {
    lexicon: Lexicon,
    doc_stats: DocStats,
    conversion: ConversionTable,
    params: IndexParams,
    disk: Arc<DiskSim>,
    compression: Option<CompressionStats>,
    forward: Option<ForwardIndex>,
}

impl InvertedIndex {
    /// Assembles an index from its parts (normally called by
    /// [`IndexBuilder::build`](crate::builder::IndexBuilder::build)).
    pub fn from_parts(
        lexicon: Lexicon,
        doc_stats: DocStats,
        conversion: ConversionTable,
        params: IndexParams,
        disk: Arc<DiskSim>,
        compression: Option<CompressionStats>,
        forward: Option<ForwardIndex>,
    ) -> Self {
        InvertedIndex {
            lexicon,
            doc_stats,
            conversion,
            params,
            disk,
            compression,
            forward,
        }
    }

    /// The lexicon (term metadata).
    pub fn lexicon(&self) -> &Lexicon {
        &self.lexicon
    }

    /// Per-document statistics (`W_d`).
    pub fn doc_stats(&self) -> &DocStats {
        &self.doc_stats
    }

    /// The BAF conversion table.
    pub fn conversion(&self) -> &ConversionTable {
        &self.conversion
    }

    /// Physical parameters the index was built with.
    pub fn params(&self) -> IndexParams {
        self.params
    }

    /// The simulated disk holding the inverted lists.
    pub fn disk(&self) -> &Arc<DiskSim> {
        &self.disk
    }

    /// Collection size `N`.
    pub fn n_docs(&self) -> u32 {
        self.doc_stats.n_docs()
    }

    /// Number of terms in the lexicon (including stopped ones).
    pub fn n_terms(&self) -> usize {
        self.lexicon.len()
    }

    /// Total inverted-list pages on disk.
    pub fn total_pages(&self) -> usize {
        self.disk.total_pages()
    }

    /// Total postings across all lists.
    pub fn total_postings(&self) -> u64 {
        self.lexicon.iter().map(|(_, e)| e.n_postings).sum()
    }

    /// Compression statistics, if measured at build time.
    pub fn compression_stats(&self) -> Option<CompressionStats> {
        self.compression
    }

    /// The forward index, if retained at build time
    /// ([`BuildOptions::keep_forward`](crate::BuildOptions)).
    pub fn forward(&self) -> Option<&ForwardIndex> {
        self.forward.as_ref()
    }

    /// Convenience: `idf_t` for a term.
    pub fn idf(&self, term: TermId) -> IrResult<f64> {
        Ok(self.lexicon.entry(term)?.idf)
    }

    /// Convenience: `f_max` for a term.
    pub fn f_max(&self, term: TermId) -> IrResult<u32> {
        Ok(self.lexicon.entry(term)?.f_max)
    }

    /// Convenience: pages in a term's list.
    pub fn n_pages(&self, term: TermId) -> IrResult<u32> {
        Ok(self.lexicon.entry(term)?.n_pages)
    }

    /// Creates a buffer pool of `capacity` pages with `policy` over this
    /// index's disk (the `BufferSize` knob of Table 3).
    pub fn make_buffer(
        &self,
        capacity: usize,
        policy: PolicyKind,
    ) -> IrResult<BufferManager<Arc<DiskSim>>> {
        BufferManager::new(Arc::clone(&self.disk), capacity, policy)
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::{BuildOptions, IndexBuilder};
    use ir_storage::PolicyKind;
    use ir_types::IndexParams;

    fn index() -> super::InvertedIndex {
        let mut b = IndexBuilder::new();
        b.add_document(["alpha", "beta", "alpha"]);
        b.add_document(["beta", "gamma"]);
        b.build(BuildOptions {
            params: IndexParams::with_page_size(1),
            measure_compression: true,
            ..BuildOptions::default()
        })
        .unwrap()
    }

    #[test]
    fn facade_exposes_consistent_counts() {
        let idx = index();
        assert_eq!(idx.n_docs(), 2);
        assert_eq!(idx.n_terms(), 3);
        assert_eq!(idx.total_postings(), 4);
        // page_size 1 → one page per posting.
        assert_eq!(idx.total_pages(), 4);
        assert!(idx.compression_stats().is_some());
        assert_eq!(idx.conversion().len(), 3);
    }

    #[test]
    fn make_buffer_wires_to_disk() {
        let idx = index();
        let mut buf = idx.make_buffer(2, PolicyKind::Lru).unwrap();
        let alpha = idx.lexicon().lookup("alpha").unwrap();
        let page = buf.fetch(ir_types::PageId::new(alpha, 0)).unwrap();
        assert_eq!(page.max_freq(), 2);
        assert_eq!(idx.disk().stats().reads, 1);
    }

    #[test]
    fn convenience_lookups() {
        let idx = index();
        let gamma = idx.lexicon().lookup("gamma").unwrap();
        assert_eq!(idx.f_max(gamma).unwrap(), 1);
        assert_eq!(idx.n_pages(gamma).unwrap(), 1);
        assert!((idx.idf(gamma).unwrap() - 1.0).abs() < 1e-12); // log2(2/1)
    }
}
