//! The evaluation algorithms: Full (safe), DF (Fig. 1), BAF (Fig. 2).

mod baf;
mod df;
mod scan;

pub use baf::evaluate_baf;
pub use df::evaluate_df;

use crate::query::Query;
use crate::stats::QueryResult;
use ir_index::InvertedIndex;
use ir_storage::QueryBuffer;
use ir_types::{FilterParams, IrResult, DEFAULT_TOP_N};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

/// Which evaluation algorithm to run.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum Algorithm {
    /// Safe evaluation: DF with the filters off (`c_add = c_ins = 0`).
    Full,
    /// Document Filtering \[Per94\], the paper's baseline.
    Df,
    /// Buffer-Aware Filtering — the paper's proposal.
    Baf,
}

impl fmt::Display for Algorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Algorithm::Full => "FULL",
            Algorithm::Df => "DF",
            Algorithm::Baf => "BAF",
        })
    }
}

impl FromStr for Algorithm {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "full" => Ok(Algorithm::Full),
            "df" => Ok(Algorithm::Df),
            "baf" => Ok(Algorithm::Baf),
            other => Err(format!("unknown algorithm {other:?}")),
        }
    }
}

/// Evaluation knobs shared by the algorithms.
#[derive(Clone, Copy, Debug)]
pub struct EvalOptions {
    /// Filtering constants (ignored by [`Algorithm::Full`], which
    /// forces them to zero).
    pub params: FilterParams,
    /// Answer-set size `n`.
    pub top_n: usize,
    /// BAF only: the §3.2.2 safety fix — always read at least the first
    /// page of a term instead of skipping it outright, guaranteeing a
    /// newly added term is never entirely ignored. The paper observed
    /// the guard never fires in practice; off by default.
    pub baf_force_first_page: bool,
}

impl Default for EvalOptions {
    fn default() -> Self {
        EvalOptions {
            params: FilterParams::PERSIN,
            top_n: DEFAULT_TOP_N,
            baf_force_first_page: false,
        }
    }
}

impl EvalOptions {
    /// Persin-tuned filtering with answer size `n`.
    pub fn with_top_n(top_n: usize) -> Self {
        EvalOptions {
            top_n,
            ..EvalOptions::default()
        }
    }
}

/// Runs `algorithm` over `query`.
///
/// The buffer pool is **not** flushed — refinement workloads rely on
/// pages surviving across calls; flush explicitly between sequences.
///
/// ```
/// use ir_core::eval::{evaluate, EvalOptions};
/// use ir_core::{Algorithm, Query};
/// use ir_index::{BuildOptions, IndexBuilder};
/// use ir_storage::PolicyKind;
///
/// let mut b = IndexBuilder::new();
/// b.add_document(["stock", "crash"]);
/// b.add_document(["stock", "rally"]);
/// let index = b.build(BuildOptions::default())?;
/// let mut buffer = index.make_buffer(8, PolicyKind::Rap)?;
/// let query = Query::from_named(&index, &[("crash".into(), 1)]);
/// let result = evaluate(Algorithm::Baf, &index, &mut buffer, &query, EvalOptions::default())?;
/// assert_eq!(result.hits.len(), 1);
/// assert_eq!(result.hits[0].doc, ir_types::DocId(0));
/// # Ok::<(), ir_types::IrError>(())
/// ```
pub fn evaluate<B: QueryBuffer>(
    algorithm: Algorithm,
    index: &InvertedIndex,
    buffer: &mut B,
    query: &Query,
    options: EvalOptions,
) -> IrResult<QueryResult> {
    match algorithm {
        Algorithm::Full => {
            let opts = EvalOptions {
                params: FilterParams::OFF,
                ..options
            };
            evaluate_df(index, buffer, query, opts)
        }
        Algorithm::Df => evaluate_df(index, buffer, query, options),
        Algorithm::Baf => evaluate_baf(index, buffer, query, options),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ir_index::{BuildOptions, IndexBuilder};
    use ir_storage::{BufferManager, DiskSim, Page, PageStore, PolicyKind};
    use ir_types::{IndexParams, IrError, PageId};
    use std::cell::Cell;
    use std::sync::Arc;

    /// The index's store, failing every read after the first `allow`.
    struct FailAfter {
        inner: Arc<DiskSim>,
        allow: Cell<u32>,
    }

    impl PageStore for FailAfter {
        fn read_page(&self, id: PageId) -> IrResult<Page> {
            match self.allow.get() {
                0 => Err(IrError::CorruptPage {
                    page: id,
                    reason: "injected failure".into(),
                }),
                n => {
                    self.allow.set(n - 1);
                    self.inner.read_page(id)
                }
            }
        }
    }

    /// The accumulators are a per-thread scratch: whatever ran on this
    /// thread before — another query, or one that died mid-scan with
    /// candidates already scored — a query must return what it returns
    /// on a thread that never evaluated anything.
    #[test]
    fn a_query_is_blind_to_what_ran_before_it_on_its_thread() {
        let mut b = IndexBuilder::new();
        for d in 0..40u32 {
            let mut doc = vec!["commn"; 1 + (d % 3) as usize];
            doc.extend(std::iter::repeat_n("mid", (d % 4) as usize));
            doc.extend(std::iter::repeat_n("other", (d % 5) as usize));
            if d % 7 == 0 {
                doc.extend(["rare", "rare"]);
            }
            b.add_document(doc);
            b.add_document(["filler"]); // keeps every idf above zero
        }
        let index = b
            .build(BuildOptions {
                params: IndexParams::with_page_size(4),
                ..BuildOptions::default()
            })
            .unwrap();
        let named = |terms: &[(&str, u32)]| {
            let terms: Vec<_> = terms.iter().map(|&(t, f)| (t.to_string(), f)).collect();
            Query::from_named(&index, &terms)
        };
        let probe = named(&[("rare", 2), ("mid", 1), ("commn", 1)]);
        let unrelated = named(&[("other", 3), ("commn", 2)]);
        for algorithm in [Algorithm::Full, Algorithm::Df, Algorithm::Baf] {
            let run = |q: &Query| {
                let mut pool = index.make_buffer(64, PolicyKind::Lru).unwrap();
                evaluate(algorithm, &index, &mut pool, q, EvalOptions::default()).unwrap()
            };
            let first = run(&probe);
            assert!(!first.hits.is_empty());
            let other = run(&unrelated);
            let after_unrelated = run(&probe);

            // Fails on the unrelated query's last read: in its second
            // list, with the first one's candidates already scored.
            assert_eq!(other.stats.terms_scanned, 2, "{algorithm}");
            let allow = other.stats.disk_reads as u32 - 1;
            let failing = FailAfter {
                inner: Arc::clone(index.disk()),
                allow: Cell::new(allow),
            };
            let mut pool = BufferManager::new(failing, 64, PolicyKind::Lru).unwrap();
            let died = evaluate(
                algorithm,
                &index,
                &mut pool,
                &unrelated,
                EvalOptions::default(),
            );
            assert!(
                matches!(died, Err(IrError::CorruptPage { .. })),
                "{algorithm}"
            );
            assert_eq!(pool.stats().misses, u64::from(allow), "{algorithm}");
            let after_failure = run(&probe);

            for (when, again) in [
                ("an unrelated query", after_unrelated),
                ("a failed one", after_failure),
            ] {
                let bits = |r: &QueryResult| -> Vec<_> {
                    r.hits.iter().map(|h| (h.doc, h.score.to_bits())).collect()
                };
                assert_eq!(bits(&again), bits(&first), "{algorithm} after {when}");
                assert_eq!(again.stats, first.stats, "{algorithm} after {when}");
            }
        }
    }

    #[test]
    fn algorithm_round_trips_str() {
        for a in [Algorithm::Full, Algorithm::Df, Algorithm::Baf] {
            assert_eq!(a.to_string().parse::<Algorithm>().unwrap(), a);
        }
        assert!("dfx".parse::<Algorithm>().is_err());
    }

    #[test]
    fn default_options_are_paper_tuned() {
        let o = EvalOptions::default();
        assert_eq!(o.params, FilterParams::PERSIN);
        assert_eq!(o.top_n, 20);
        assert!(!o.baf_force_first_page);
    }
}
