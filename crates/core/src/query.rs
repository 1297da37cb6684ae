//! Query representation: a bag of lexicon-resolved terms with the
//! per-term statistics the evaluator needs in memory.

use ir_index::{InvertedIndex, TermEntry};
use ir_types::{IdMap, IrResult, TermId};

/// One resolved query term.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct QueryTerm {
    /// The lexicon id.
    pub term: TermId,
    /// `f_{q,t}` — the term's frequency in the query.
    pub query_freq: u32,
    /// `idf_t`, copied from the lexicon.
    pub idf: f64,
    /// `f_max` of the term's inverted list.
    pub f_max: u32,
    /// Pages in the term's inverted list.
    pub n_pages: u32,
}

impl QueryTerm {
    /// `w_{q,t} = f_{q,t} · idf_t`.
    #[inline]
    pub fn weight(&self) -> f64 {
        ir_types::weights::term_weight(self.query_freq, self.idf)
    }
}

/// A resolved query. Construction drops terms that cannot contribute:
/// unknown strings, stopped terms, and terms with empty inverted lists
/// (a real system would report them; the evaluator must not see them).
#[derive(Clone, Debug, Default)]
pub struct Query {
    terms: Vec<QueryTerm>,
    dropped: usize,
}

/// Sums the frequencies of duplicate keys, leaving `pairs` sorted by
/// key with one entry each.
fn merge_duplicates<K: Ord + Copy>(pairs: &mut Vec<(K, u32)>) {
    pairs.sort_unstable_by_key(|&(key, _)| key);
    pairs.dedup_by(|later, kept| {
        let same = later.0 == kept.0;
        if same {
            kept.1 += later.1;
        }
        same
    });
}

impl Query {
    /// Resolves `(term name, f_{q,t})` pairs against the index.
    /// Duplicate names have their frequencies summed.
    pub fn from_named(index: &InvertedIndex, terms: &[(String, u32)]) -> Query {
        let mut merged: Vec<(&str, u32)> = terms.iter().map(|(n, f)| (n.as_str(), *f)).collect();
        merge_duplicates(&mut merged);
        let lexicon = index.lexicon();
        let mut resolved: Vec<QueryTerm> = Vec::with_capacity(merged.len());
        for &(name, freq) in &merged {
            let term = lexicon
                .lookup(name)
                .and_then(|id| Self::resolve(id, freq, lexicon.entry(id).ok()?));
            resolved.extend(term);
        }
        // Deterministic base order (the evaluators re-order anyway).
        resolved.sort_by_key(|t| t.term);
        Query {
            dropped: merged.len() - resolved.len(),
            terms: resolved,
        }
    }

    /// Resolves `(term id, f_{q,t})` pairs (the workload path, where
    /// ids are already known).
    ///
    /// # Errors
    /// Propagates lexicon lookup failures for unknown ids.
    pub fn from_ids(index: &InvertedIndex, terms: &[(TermId, u32)]) -> IrResult<Query> {
        // Merged by sorting: the result is in term order anyway, and a
        // query is a few dozen terms.
        let mut merged = terms.to_vec();
        merge_duplicates(&mut merged);
        let mut resolved = Vec::with_capacity(merged.len());
        for &(id, freq) in &merged {
            let e = index.lexicon().entry(id)?; // unknown ids are an error here
            resolved.extend(Self::resolve(id, freq, e));
        }
        Ok(Query {
            dropped: merged.len() - resolved.len(),
            terms: resolved,
        })
    }

    /// The query term for lexicon entry `e`, unless it cannot
    /// contribute (stopped, empty list, zero frequency).
    fn resolve(id: TermId, freq: u32, e: &TermEntry) -> Option<QueryTerm> {
        if e.n_postings() == 0 || freq == 0 {
            return None;
        }
        Some(QueryTerm {
            term: id,
            query_freq: freq,
            idf: e.idf,
            f_max: e.f_max,
            n_pages: e.n_pages,
        })
    }

    /// The resolved terms (unordered; evaluators impose their own
    /// processing order).
    pub fn terms(&self) -> &[QueryTerm] {
        &self.terms
    }

    /// Number of resolved terms.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// `true` when nothing resolved.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Terms dropped during resolution (unknown/stopped/empty).
    pub fn dropped(&self) -> usize {
        self.dropped
    }

    /// Total pages across the query's inverted lists (the x-axis of the
    /// paper's Figure 3).
    pub fn total_pages(&self) -> u64 {
        self.terms.iter().map(|t| u64::from(t.n_pages)).sum()
    }

    /// `w_{q,t}` per term — what the buffer manager's
    /// [`begin_query`](ir_storage::BufferManager::begin_query) wants.
    pub fn weights(&self) -> IdMap<TermId, f64> {
        self.terms.iter().map(|t| (t.term, t.weight())).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ir_index::{BuildOptions, IndexBuilder};

    fn index() -> InvertedIndex {
        let mut b = IndexBuilder::new();
        b.add_document(["apple", "bond", "apple"]);
        b.add_document(["bond", "crash"]);
        b.build(BuildOptions::default()).unwrap()
    }

    #[test]
    fn named_resolution_drops_unknown() {
        let idx = index();
        let q = Query::from_named(
            &idx,
            &[("apple".into(), 2), ("zebra".into(), 1), ("bond".into(), 1)],
        );
        assert_eq!(q.len(), 2);
        assert_eq!(q.dropped(), 1);
    }

    #[test]
    fn duplicate_names_merge() {
        let idx = index();
        let q = Query::from_named(&idx, &[("bond".into(), 1), ("bond".into(), 2)]);
        assert_eq!(q.len(), 1);
        assert_eq!(q.terms()[0].query_freq, 3);
    }

    #[test]
    fn weights_are_freq_times_idf() {
        let idx = index();
        let q = Query::from_named(&idx, &[("crash".into(), 2)]);
        let t = q.terms()[0];
        let w = q.weights();
        assert!((w[&t.term] - 2.0 * t.idf).abs() < 1e-12);
    }

    #[test]
    fn from_ids_errors_on_unknown_id() {
        let idx = index();
        assert!(Query::from_ids(&idx, &[(TermId(99), 1)]).is_err());
    }

    #[test]
    fn zero_freq_terms_dropped() {
        let idx = index();
        let apple = idx.lexicon().lookup("apple").unwrap();
        let q = Query::from_ids(&idx, &[(apple, 0)]).unwrap();
        assert!(q.is_empty());
        assert_eq!(q.dropped(), 1);
    }

    #[test]
    fn total_pages_sums_lists() {
        let idx = index();
        let q = Query::from_named(&idx, &[("apple".into(), 1), ("bond".into(), 1)]);
        // Tiny index: every list fits one page.
        assert_eq!(q.total_pages(), 2);
    }
}
