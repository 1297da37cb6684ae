//! The `(d, f_{d,t})` inverted-list entry and its frequency ordering.

use crate::ids::DocId;
use std::cmp::Ordering;

/// One inverted-list entry: document `d` contains the list's term
/// `freq` times (`f_{d,t}` in the paper, always ≥ 1).
///
/// Uncompressed, the paper budgets 4 bytes for the document id and
/// 2 bytes for the frequency; this struct is the in-memory decoded form
/// (`ir-index::compress` handles the ≈1-byte-per-entry on-page form).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Posting {
    /// The document containing the term.
    pub doc: DocId,
    /// Number of occurrences of the term in the document (`f_{d,t}` ≥ 1).
    pub freq: u32,
}

impl Posting {
    /// Convenience constructor.
    #[inline]
    pub fn new(doc: u32, freq: u32) -> Self {
        Posting {
            doc: DocId(doc),
            freq,
        }
    }
}

/// The paper's *frequency ordering* of inverted lists (§2.3, [WL93, Per94]):
/// primary key `f_{d,t}` **descending**, secondary key `d` **ascending**.
///
/// Sorting a list with this comparator puts the postings most likely to
/// produce highly-ranked documents on the head pages, which is what makes
/// Document Filtering's early list termination (and RAP's head-page bias)
/// effective.
#[inline]
pub fn frequency_order(a: &Posting, b: &Posting) -> Ordering {
    b.freq.cmp(&a.freq).then(a.doc.cmp(&b.doc))
}

/// The traditional *document ordering* (§2.3): doc id ascending.
#[inline]
pub fn doc_order(a: &Posting, b: &Posting) -> Ordering {
    a.doc.cmp(&b.doc).then(b.freq.cmp(&a.freq))
}

/// Returns `true` if `postings` is sorted by [`frequency_order`].
pub fn is_frequency_sorted(postings: &[Posting]) -> bool {
    postings
        .windows(2)
        .all(|w| frequency_order(&w[0], &w[1]) != Ordering::Greater)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frequency_order_is_freq_desc_doc_asc() {
        let hi = Posting::new(9, 5);
        let lo = Posting::new(1, 2);
        assert_eq!(
            frequency_order(&hi, &lo),
            Ordering::Less,
            "higher freq first"
        );
        let a = Posting::new(1, 3);
        let b = Posting::new(2, 3);
        assert_eq!(
            frequency_order(&a, &b),
            Ordering::Less,
            "doc asc within equal freq"
        );
        assert_eq!(frequency_order(&a, &a), Ordering::Equal);
    }

    #[test]
    fn sort_produces_frequency_sorted() {
        let mut v = vec![
            Posting::new(4, 1),
            Posting::new(2, 7),
            Posting::new(9, 7),
            Posting::new(1, 3),
        ];
        v.sort_by(frequency_order);
        assert!(is_frequency_sorted(&v));
        assert_eq!(v[0], Posting::new(2, 7));
        assert_eq!(v[1], Posting::new(9, 7));
        assert_eq!(v[3], Posting::new(4, 1));
    }

    #[test]
    fn is_frequency_sorted_detects_violation() {
        let v = vec![Posting::new(0, 1), Posting::new(1, 2)];
        assert!(!is_frequency_sorted(&v));
        assert!(is_frequency_sorted(&[]));
        assert!(is_frequency_sorted(&[Posting::new(0, 1)]));
    }
}
