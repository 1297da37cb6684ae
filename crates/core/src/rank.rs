//! Final ranking: normalize accumulated scores by `W_d` and select the
//! `n` highest (Fig. 1 steps 5–6).

use crate::accumulator::Accumulators;
use ir_index::DocStats;
use ir_types::{DocId, IrResult};
use std::cell::RefCell;

/// One ranked answer.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Hit {
    /// The document.
    pub doc: DocId,
    /// Cosine relevance `A_d / W_d`.
    pub score: f64,
}

thread_local! {
    /// Reusable candidate buffer (the `FETCH_SCRATCH` idiom of
    /// `eval::scan`): every candidate is scored but only `n` are kept,
    /// so the thread's buffer grows to the largest candidate set and
    /// each answer list is allocated at exactly its length.
    static CANDIDATES: RefCell<Vec<Hit>> = const { RefCell::new(Vec::new()) };
}

/// Divides each accumulator by the document's vector length and returns
/// the top `n` hits, score-descending (ties broken by ascending doc id
/// for determinism).
pub fn top_n(accs: &Accumulators, doc_stats: &DocStats, n: usize) -> IrResult<Vec<Hit>> {
    CANDIDATES.with_borrow_mut(|hits| {
        hits.clear();
        for (doc, raw) in accs.iter() {
            let w = doc_stats.vector_length(doc)?;
            // W_d = 0: every term of the document occurs in every
            // document (idf 0), so its raw score is 0 too and it has no
            // cosine. Only a zero threshold (Full, or any order before
            // S_max moves) admits such a zero partial; it is not ranked.
            if w == 0.0 {
                continue;
            }
            hits.push(Hit {
                doc,
                score: raw / w,
            });
        }
        // A strict total order (documents are distinct), so selecting the
        // n best and sorting those returns what sorting everything would.
        let by_rank =
            |a: &Hit, b: &Hit| b.score.total_cmp(&a.score).then_with(|| a.doc.cmp(&b.doc));
        if n < hits.len() {
            hits.select_nth_unstable_by(n, by_rank);
            hits.truncate(n);
        }
        hits.sort_unstable_by(by_rank);
        Ok(hits.to_vec())
    })
}

/// Overlap between two answer lists (fraction of `a`'s documents also
/// in `b`) — used to compare DF and BAF answers as in §3.2.1 ("of the
/// 20 highest ranked documents, only one document is affected").
pub fn overlap(a: &[Hit], b: &[Hit]) -> f64 {
    if a.is_empty() {
        return 1.0;
    }
    let set: std::collections::HashSet<DocId> = b.iter().map(|h| h.doc).collect();
    a.iter().filter(|h| set.contains(&h.doc)).count() as f64 / a.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(lengths: &[f64]) -> DocStats {
        DocStats::new(lengths.to_vec())
    }

    #[test]
    fn normalizes_and_orders() {
        let mut a = Accumulators::new();
        a.upsert(DocId(0), 10.0); // W=2 → 5.0
        a.upsert(DocId(1), 9.0); // W=1 → 9.0
        a.upsert(DocId(2), 12.0); // W=4 → 3.0
        let hits = top_n(&a, &stats(&[2.0, 1.0, 4.0]), 10).unwrap();
        assert_eq!(hits.len(), 3);
        assert_eq!(hits[0].doc, DocId(1));
        assert_eq!(hits[1].doc, DocId(0));
        assert_eq!(hits[2].doc, DocId(2));
    }

    #[test]
    fn truncates_to_n() {
        let mut a = Accumulators::new();
        for d in 0..100 {
            a.upsert(DocId(d), (d + 1) as f64);
        }
        let hits = top_n(&a, &stats(&[1.0; 100]), 20).unwrap();
        assert_eq!(hits.len(), 20);
        assert_eq!(hits[0].doc, DocId(99));
        assert_eq!(hits.capacity(), hits.len(), "only the answers are kept");
    }

    #[test]
    fn ties_break_by_doc_id() {
        let mut a = Accumulators::new();
        a.upsert(DocId(5), 3.0);
        a.upsert(DocId(2), 3.0);
        let hits = top_n(&a, &stats(&[1.0; 6]), 10).unwrap();
        assert_eq!(hits[0].doc, DocId(2));
        assert_eq!(hits[1].doc, DocId(5));
    }

    /// Selection returns exactly what the full sort it replaced did,
    /// on scores drawn from a handful of values (so most documents
    /// tie) that underflow to both zeros — which `total_cmp` tells
    /// apart — under the odd documents' huge `W_d`.
    #[test]
    fn selection_matches_sorting_everything() {
        const RAW: [f64; 6] = [1e-300, -1e-300, 0.5, 1.0, 1.0 / 3.0, 7.25];
        let lengths: Vec<f64> = (0..97)
            .map(|d| if d % 2 == 0 { 1.0 } else { f64::MAX })
            .collect();
        let mut rng = proptest::TestRng::from_name("top-n");
        let mut zeros = [false; 2];
        for case in 0..200 {
            let len = 1 + rng.below(60) as usize;
            let mut a = Accumulators::new();
            // Distinct ids in a scrambled creation order.
            for i in 0..len {
                let doc = DocId(((i * 37 + case) % 97) as u32);
                a.upsert(doc, RAW[rng.below(6) as usize]);
            }
            let mut sorted: Vec<(u64, DocId)> = a
                .iter()
                .map(|(doc, raw)| ((raw / lengths[doc.index()]).to_bits(), doc))
                .collect();
            sorted.sort_by(|a, b| {
                let (x, y) = (f64::from_bits(a.0), f64::from_bits(b.0));
                y.total_cmp(&x).then_with(|| a.1.cmp(&b.1))
            });
            zeros[0] |= sorted.iter().any(|s| s.0 == 0.0f64.to_bits());
            zeros[1] |= sorted.iter().any(|s| s.0 == (-0.0f64).to_bits());
            for n in [0, 1, len - 1, len, len + 1] {
                let got: Vec<(u64, DocId)> = top_n(&a, &stats(&lengths), n)
                    .unwrap()
                    .iter()
                    .map(|h| (h.score.to_bits(), h.doc))
                    .collect();
                assert_eq!(got, sorted[..n.min(len)], "case {case}, n = {n} of {len}");
            }
        }
        assert_eq!(zeros, [true; 2], "both zeros were ranked");
    }

    /// A document whose every term has idf 0 has `W_d = 0`, and a zero
    /// threshold admits it with a zero score: it is left out of the
    /// answers, not ranked as `0 / 0`.
    #[test]
    fn a_candidate_without_a_vector_length_is_not_ranked() {
        let mut a = Accumulators::new();
        a.upsert(DocId(0), 0.0);
        a.upsert(DocId(1), 2.0);
        let hits = top_n(&a, &stats(&[0.0, 4.0]), 10).unwrap();
        assert_eq!(
            hits,
            [Hit {
                doc: DocId(1),
                score: 0.5
            }]
        );
    }

    #[test]
    fn unknown_doc_propagates_error() {
        let mut a = Accumulators::new();
        a.upsert(DocId(9), 1.0);
        assert!(top_n(&a, &stats(&[1.0]), 5).is_err());
    }

    #[test]
    fn overlap_measures_shared_docs() {
        let a = vec![
            Hit {
                doc: DocId(0),
                score: 1.0,
            },
            Hit {
                doc: DocId(1),
                score: 0.5,
            },
        ];
        let b = vec![
            Hit {
                doc: DocId(1),
                score: 0.7,
            },
            Hit {
                doc: DocId(2),
                score: 0.6,
            },
        ];
        assert!((overlap(&a, &b) - 0.5).abs() < 1e-12);
        assert_eq!(overlap(&[], &b), 1.0);
    }
}
