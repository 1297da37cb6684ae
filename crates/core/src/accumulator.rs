//! The accumulator set `A`: partial scores for the candidate documents.
//!
//! The paper treats the candidate-set size as the memory cost of query
//! evaluation (§2.4): without filtering it "frequently includes more
//! than half of the documents in the collection", and DF's `c_ins`
//! exists precisely to bound it. The peak size is tracked so the
//! experiments can report the accumulator reductions of §5.1.1/§5.2.3.

use ir_types::DocId;
use std::cell::RefCell;

/// Partial-score accumulators: a dense array over the document ids,
/// reused from query to query.
///
/// Document `d` has an accumulator iff `stamp[d] == epoch`, so emptying
/// the set is an epoch bump, not a sweep, and a posting costs one
/// indexed load instead of a hash probe. `touched` lists the candidates
/// in creation order; accumulators are never removed within a query, so
/// its length is both the current and the peak size.
#[derive(Debug)]
pub struct Accumulators {
    /// Epoch in which each document's accumulator was created; 0 is
    /// never a live epoch.
    stamp: Vec<u32>,
    /// `A_d`, meaningful only where `stamp[d] == epoch`.
    score: Vec<f64>,
    touched: Vec<DocId>,
    epoch: u32,
}

impl Default for Accumulators {
    fn default() -> Self {
        Accumulators::new()
    }
}

thread_local! {
    /// The thread's reusable set (the `FETCH_SCRATCH` idiom of
    /// `eval::scan`): an evaluation takes it, and hands it back on
    /// every way out.
    static SCRATCH: RefCell<Accumulators> = const { RefCell::new(Accumulators::new()) };
}

impl Accumulators {
    /// Creates an empty set; it grows to the largest document id it is
    /// given.
    pub const fn new() -> Self {
        Accumulators {
            stamp: Vec::new(),
            score: Vec::new(),
            touched: Vec::new(),
            epoch: 1,
        }
    }

    /// Runs `f` over this thread's scratch set, emptied and sized for a
    /// collection of `n_docs` documents. The set goes back to the
    /// thread when `f` returns — with a result or with an error — and
    /// whatever `f` left in it is discarded by the next call's reset,
    /// so no query can see another's scores.
    pub(crate) fn with_scratch<R>(n_docs: usize, f: impl FnOnce(&mut Accumulators) -> R) -> R {
        let mut accs = SCRATCH.with(|c| std::mem::take(&mut *c.borrow_mut()));
        accs.reset(n_docs);
        let out = f(&mut accs);
        SCRATCH.with(|c| *c.borrow_mut() = accs);
        out
    }

    /// Empties the set in O(1) and makes room for documents
    /// `0..n_docs`. Stamps are re-zeroed only when the epoch wraps.
    fn reset(&mut self, n_docs: usize) {
        self.touched.clear();
        self.epoch = match self.epoch.checked_add(1) {
            Some(next) => next,
            None => {
                self.stamp.fill(0);
                1
            }
        };
        if self.stamp.len() < n_docs {
            self.grow(n_docs);
        }
    }

    #[cold]
    fn grow(&mut self, len: usize) {
        self.stamp.resize(len, 0);
        self.score.resize(len, 0.0);
    }

    /// Does document `d` have an accumulator (`A_d ∈ A`)?
    #[inline]
    pub fn contains(&self, d: DocId) -> bool {
        self.stamp.get(d.index()) == Some(&self.epoch)
    }

    /// Adds `partial` to an **existing** accumulator; returns the new
    /// value, or `None` if `d` has no accumulator (the caller decides
    /// whether the threshold permits creating one).
    #[inline]
    pub fn add_existing(&mut self, d: DocId, partial: f64) -> Option<f64> {
        if !self.contains(d) {
            return None;
        }
        let v = &mut self.score[d.index()];
        *v += partial;
        Some(*v)
    }

    /// Creates (or adds to) the accumulator for `d`; returns the new
    /// value.
    #[inline]
    pub fn upsert(&mut self, d: DocId, partial: f64) -> f64 {
        let i = d.index();
        if i >= self.stamp.len() {
            self.grow(i + 1);
        }
        if self.stamp[i] != self.epoch {
            self.stamp[i] = self.epoch;
            self.score[i] = 0.0;
            self.touched.push(d);
        }
        let v = &mut self.score[i];
        *v += partial;
        *v
    }

    /// Current number of accumulators.
    pub fn len(&self) -> usize {
        self.touched.len()
    }

    /// `true` when no document has a partial score.
    pub fn is_empty(&self) -> bool {
        self.touched.is_empty()
    }

    /// Largest size the set reached since it was last emptied (nothing
    /// removes an accumulator, so this is [`len`](Self::len)).
    pub fn peak(&self) -> usize {
        self.touched.len()
    }

    /// Iterates `(doc, raw score)` in the order the accumulators were
    /// created.
    pub fn iter(&self) -> impl Iterator<Item = (DocId, f64)> + '_ {
        self.touched.iter().map(|&d| (d, self.score[d.index()]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::TestRng;
    use std::collections::HashMap;

    impl Accumulators {
        /// An empty set whose current epoch is `epoch`, to reach the
        /// wrap without four billion resets.
        fn at_epoch(epoch: u32) -> Self {
            Accumulators {
                epoch,
                ..Accumulators::new()
            }
        }
    }

    /// One "query" of random operations against `accs` and against the
    /// set this type used to be — a `HashMap` built from empty — with
    /// every answer compared. Documents `0..40`, so ids 32 and up lie
    /// beyond what the caller pre-sized.
    fn run_query(accs: &mut Accumulators, rng: &mut TestRng, ctx: &str) {
        let mut oracle: HashMap<DocId, f64> = HashMap::new();
        assert!(accs.is_empty(), "{ctx}: starts empty");
        for step in 0..rng.below(300) {
            let d = DocId(rng.below(40) as u32);
            let partial = rng.next_f64() * 8.0 - 1.0;
            // `None` on both sides is a refused `add_existing`.
            let (got, want) = if rng.below(3) == 0 {
                let v = oracle.entry(d).or_insert(0.0);
                *v += partial;
                (Some(accs.upsert(d, partial)), Some(*v))
            } else {
                let want = oracle.get_mut(&d).map(|v| {
                    *v += partial;
                    *v
                });
                (accs.add_existing(d, partial), want)
            };
            assert_eq!(
                got.map(f64::to_bits),
                want.map(f64::to_bits),
                "{ctx}, step {step}: {d}"
            );
            assert_eq!(accs.len(), oracle.len(), "{ctx}, step {step}: len");
            assert_eq!(accs.peak(), oracle.len(), "{ctx}, step {step}: peak");
        }
        for d in (0..48).map(DocId) {
            assert_eq!(accs.contains(d), oracle.contains_key(&d), "{ctx}: {d}");
        }
        let sorted = |mut v: Vec<(DocId, u64)>| {
            v.sort_unstable();
            v
        };
        assert_eq!(
            sorted(accs.iter().map(|(d, s)| (d, s.to_bits())).collect()),
            sorted(oracle.iter().map(|(d, s)| (*d, s.to_bits())).collect()),
            "{ctx}: iter"
        );
    }

    #[test]
    fn a_reused_set_matches_a_fresh_hash_map_per_query() {
        let mut rng = TestRng::from_name("accumulators");
        // Two resets from the wrap: queries 0 and 1 run at the last two
        // epochs, query 2 right after the stamps were re-zeroed.
        let mut reused = Accumulators::at_epoch(u32::MAX - 1);
        for query in 0..6 {
            let ctx = format!("query {query}");
            run_query(&mut reused, &mut rng, &ctx);
            reused.reset(32);
            run_query(&mut Accumulators::default(), &mut rng, &ctx);
        }
        assert!(reused.epoch < 8, "the epoch wrapped during the test");
    }

    #[test]
    fn scratch_is_empty_whatever_the_last_user_left() {
        let left = Accumulators::with_scratch(4, |accs| {
            accs.upsert(DocId(1), 1.0);
            accs.upsert(DocId(9), 2.0);
            accs.len()
        });
        assert_eq!(left, 2);
        Accumulators::with_scratch(4, |accs| {
            assert!(accs.is_empty());
            assert!(!accs.contains(DocId(1)) && !accs.contains(DocId(9)));
            assert_eq!(accs.add_existing(DocId(9), 1.0), None);
            assert_eq!(accs.upsert(DocId(9), 0.5), 0.5, "no stale score");
        });
    }

    #[test]
    fn upsert_creates_and_accumulates() {
        let mut a = Accumulators::new();
        assert!(!a.contains(DocId(3)));
        assert_eq!(a.upsert(DocId(3), 1.5), 1.5);
        assert_eq!(a.upsert(DocId(3), 2.0), 3.5);
        assert!(a.contains(DocId(3)));
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn add_existing_refuses_new_documents() {
        let mut a = Accumulators::new();
        assert_eq!(a.add_existing(DocId(1), 1.0), None);
        assert_eq!(a.len(), 0, "a refused add must not create an accumulator");
        a.upsert(DocId(1), 1.0);
        assert_eq!(a.add_existing(DocId(1), 0.5), Some(1.5));
    }

    #[test]
    fn peak_tracks_high_water_mark() {
        let mut a = Accumulators::new();
        for d in 0..10 {
            a.upsert(DocId(d), 1.0);
        }
        assert_eq!(a.peak(), 10);
        assert_eq!(a.len(), 10);
        // add_existing on present docs does not change sizes.
        a.add_existing(DocId(0), 1.0);
        assert_eq!(a.peak(), 10);
    }

    #[test]
    fn iter_yields_all() {
        let mut a = Accumulators::new();
        a.upsert(DocId(0), 1.0);
        a.upsert(DocId(1), 2.0);
        let mut v: Vec<_> = a.iter().collect();
        v.sort_by_key(|(d, _)| *d);
        assert_eq!(v, vec![(DocId(0), 1.0), (DocId(1), 2.0)]);
    }
}
