//! Identifier newtypes.
//!
//! The paper's data model has three kinds of identity: documents, terms
//! (one inverted list per term), and the fixed-size pages an inverted
//! list is packed into. Using distinct newtypes keeps `u32` document
//! numbers from being confused with term numbers at API boundaries —
//! a bug class the buffer-manager/evaluator interface is otherwise very
//! prone to (`b_t` lookups take a *term*, page loads take a *page*).

use std::fmt;

/// Identifier of a document in the collection.
///
/// Documents are numbered densely from zero in collection order.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct DocId(pub u32);

/// Identifier of a term in the lexicon (equivalently, of its inverted list).
///
/// Terms are numbered densely from zero in lexicon insertion order.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TermId(pub u32);

/// Zero-based position of a page within one term's inverted list.
///
/// Frequency-sorted lists mean page 0 holds the highest-frequency
/// postings; the "head" of a list is its low-numbered pages.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PageNo(pub u32);

/// Globally unique page address: an inverted list plus an offset in it.
///
/// The paper stores each inverted list as a separate file (§4.1), so a
/// page is addressed by `(term, page-within-list)` rather than by a flat
/// disk offset.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PageId {
    /// The term whose inverted list contains this page.
    pub term: TermId,
    /// Position of the page within that list (0 = head).
    pub page: PageNo,
}

impl DocId {
    /// Returns the raw index, for use as a dense-array subscript.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl TermId {
    /// Returns the raw index, for use as a dense-array subscript.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl PageNo {
    /// Returns the raw index, for use as a dense-array subscript.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl PageId {
    /// Convenience constructor from raw parts.
    #[inline]
    pub fn new(term: TermId, page: u32) -> Self {
        PageId {
            term,
            page: PageNo(page),
        }
    }
}

impl fmt::Debug for DocId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "d{}", self.0)
    }
}

impl fmt::Display for DocId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "d{}", self.0)
    }
}

impl fmt::Debug for TermId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

impl fmt::Display for TermId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

impl fmt::Debug for PageNo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl fmt::Debug for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}:p{}", self.term.0, self.page.0)
    }
}

impl fmt::Display for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}:p{}", self.term.0, self.page.0)
    }
}

impl From<u32> for DocId {
    fn from(v: u32) -> Self {
        DocId(v)
    }
}

impl From<u32> for TermId {
    fn from(v: u32) -> Self {
        TermId(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn page_id_ordering_is_term_major() {
        let a = PageId::new(TermId(1), 9);
        let b = PageId::new(TermId(2), 0);
        assert!(a < b, "ordering must group pages of the same list");
        let c = PageId::new(TermId(1), 10);
        assert!(a < c);
    }

    #[test]
    fn ids_hash_distinctly() {
        let mut set = HashSet::new();
        for t in 0..100u32 {
            for p in 0..10u32 {
                assert!(set.insert(PageId::new(TermId(t), p)));
            }
        }
        assert_eq!(set.len(), 1000);
    }

    #[test]
    fn display_formats() {
        assert_eq!(DocId(7).to_string(), "d7");
        assert_eq!(TermId(3).to_string(), "t3");
        assert_eq!(PageId::new(TermId(3), 4).to_string(), "t3:p4");
    }

    #[test]
    fn index_round_trip() {
        assert_eq!(DocId(42).index(), 42);
        assert_eq!(TermId(42).index(), 42);
        assert_eq!(PageNo(42).index(), 42);
    }
}
