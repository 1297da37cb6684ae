//! Per-document statistics: the vector lengths `W_d` used to normalize
//! accumulated scores (Eq. 1/2), computed once at build time.

use ir_types::{weights, DocId, IrError, IrResult, Posting};

/// Dense per-document statistics for a collection of `N` documents.
#[derive(Debug, Clone, Default)]
pub struct DocStats {
    vector_lengths: Vec<f64>,
}

impl DocStats {
    /// Wraps precomputed vector lengths; index = document id.
    pub fn new(vector_lengths: Vec<f64>) -> Self {
        DocStats { vector_lengths }
    }

    /// The vector lengths of a collection of `n_docs` documents whose
    /// inverted lists, each with its term's `idf_t`, come in term-id
    /// order. `W_d²` is summed from 0 one addition per term in that
    /// order, so the build and the load get the same lengths to the
    /// last bit on every machine.
    ///
    /// # Panics
    /// If a posting's document is not below `n_docs`.
    pub(crate) fn from_lists<'a>(
        n_docs: u32,
        lists: impl Iterator<Item = (f64, &'a [Posting])>,
    ) -> Self {
        let mut wd_sq = vec![0.0f64; n_docs as usize];
        for (idf, list) in lists {
            for p in list {
                let w = weights::term_weight(p.freq, idf);
                wd_sq[p.doc.index()] += w * w;
            }
        }
        DocStats::new(wd_sq.into_iter().map(f64::sqrt).collect())
    }

    /// `W_d` for a document.
    pub fn vector_length(&self, doc: DocId) -> IrResult<f64> {
        self.vector_lengths
            .get(doc.index())
            .copied()
            .ok_or(IrError::UnknownDoc(doc))
    }

    /// Collection size `N`.
    pub fn n_docs(&self) -> u32 {
        self.vector_lengths.len() as u32
    }

    /// Raw access for hot loops (index = `DocId::index()`).
    pub fn as_slice(&self) -> &[f64] {
        &self.vector_lengths
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_and_bounds() {
        let s = DocStats::new(vec![1.0, 2.5]);
        assert_eq!(s.n_docs(), 2);
        assert_eq!(s.vector_length(DocId(1)).unwrap(), 2.5);
        assert!(matches!(
            s.vector_length(DocId(2)),
            Err(IrError::UnknownDoc(_))
        ));
    }

    #[test]
    fn empty_collection() {
        let s = DocStats::default();
        assert_eq!(s.n_docs(), 0);
        assert!(s.as_slice().is_empty());
    }
}
