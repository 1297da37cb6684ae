//! The refinement-session driver: runs a [`RefinementSequence`] under a
//! chosen algorithm / policy / buffer size, exactly as the paper's
//! experiments do — buffers flushed before the sequence, shared across
//! the refinements inside it (§5.2.1: "the cache is cleared before the
//! start of each sequence").

use crate::effectiveness::average_precision;
use crate::eval::{evaluate, Algorithm, EvalOptions};
use crate::query::Query;
use crate::rank::Hit;
use crate::stats::{EvalStats, QueryResult};
use crate::workload::RefinementSequence;
use ir_index::InvertedIndex;
use ir_storage::PolicyKind;
use ir_types::{DocId, FilterParams, IrResult, DEFAULT_TOP_N};
use std::collections::HashSet;

/// One cell of the experiment grid.
#[derive(Clone, Copy, Debug)]
pub struct SessionConfig {
    /// DF or BAF (or Full for calibration runs).
    pub algorithm: Algorithm,
    /// Buffer replacement policy.
    pub policy: PolicyKind,
    /// Buffer pool size in pages (`BufferSize`).
    pub buffer_pages: usize,
    /// Filtering constants.
    pub params: FilterParams,
    /// Answer-set size.
    pub top_n: usize,
}

impl SessionConfig {
    /// The paper's default cell: given algorithm and policy, Persin
    /// constants, top-20 answers.
    pub fn new(algorithm: Algorithm, policy: PolicyKind, buffer_pages: usize) -> Self {
        SessionConfig {
            algorithm,
            policy,
            buffer_pages,
            params: FilterParams::PERSIN,
            top_n: DEFAULT_TOP_N,
        }
    }

    /// The evaluation knobs of the cell.
    pub fn options(&self) -> EvalOptions {
        EvalOptions {
            params: self.params,
            top_n: self.top_n,
            baf_force_first_page: false,
        }
    }

    /// Label like `"BAF/RAP"` as used in the paper's figures.
    pub fn label(&self) -> String {
        format!("{}/{}", self.algorithm, self.policy)
    }
}

/// Result of one refinement within a sequence.
#[derive(Clone, Debug)]
pub struct StepOutcome {
    /// Evaluation counters for this refinement alone.
    pub stats: EvalStats,
    /// The ranked answers.
    pub hits: Vec<Hit>,
    /// Average precision against the topic's relevance set, if one was
    /// supplied.
    pub avg_precision: Option<f64>,
}

/// Result of a whole refinement sequence.
#[derive(Clone, Debug, Default)]
pub struct SequenceOutcome {
    /// Per-refinement outcomes, in submission order.
    pub steps: Vec<StepOutcome>,
}

impl SequenceOutcome {
    /// Total disk reads over the sequence (the y-axis of Figures 5–8).
    pub fn total_disk_reads(&self) -> u64 {
        self.steps.iter().map(|s| s.stats.disk_reads).sum()
    }

    /// Disk reads of the last refinement (Table 7).
    pub fn last_disk_reads(&self) -> u64 {
        self.steps.last().map_or(0, |s| s.stats.disk_reads)
    }

    /// Mean average precision over the refinements (only meaningful
    /// when relevance judgments were supplied).
    pub fn mean_avg_precision(&self) -> Option<f64> {
        let aps: Vec<f64> = self.steps.iter().filter_map(|s| s.avg_precision).collect();
        if aps.is_empty() {
            None
        } else {
            Some(aps.iter().sum::<f64>() / aps.len() as f64)
        }
    }

    /// Peak accumulator count over the refinements (§5.2.3's memory
    /// metric).
    pub fn peak_accumulators(&self) -> usize {
        self.steps
            .iter()
            .map(|s| s.stats.peak_accumulators)
            .max()
            .unwrap_or(0)
    }
}

/// Runs one sequence under one configuration. A fresh (empty) buffer
/// pool is created for the sequence; pages persist across refinements.
pub fn run_sequence(
    index: &InvertedIndex,
    sequence: &RefinementSequence,
    config: SessionConfig,
    relevant: Option<&HashSet<DocId>>,
) -> IrResult<SequenceOutcome> {
    let mut buffer = index.make_buffer(config.buffer_pages, config.policy)?;
    run_sequence_by(index, sequence, relevant, |query| {
        evaluate(
            config.algorithm,
            index,
            &mut buffer,
            query,
            config.options(),
        )
    })
}

/// Runs one sequence through `eval`, which evaluates each refinement's
/// query on whatever buffer and clock the caller keeps — a buffer that
/// outlives the sequence, such as a clone of a shared pool, is **not**
/// flushed: pages persist across refinements (and across the sessions
/// sharing the pool).
pub fn run_sequence_by(
    index: &InvertedIndex,
    sequence: &RefinementSequence,
    relevant: Option<&HashSet<DocId>>,
    mut eval: impl FnMut(&Query) -> IrResult<QueryResult>,
) -> IrResult<SequenceOutcome> {
    let mut steps = Vec::with_capacity(sequence.steps.len());
    for step_terms in &sequence.steps {
        let query = Query::from_ids(index, step_terms)?;
        let result = eval(&query)?;
        steps.push(StepOutcome {
            avg_precision: relevant.map(|rel| average_precision(&result.hits, rel)),
            stats: result.stats,
            hits: result.hits,
        });
    }
    Ok(SequenceOutcome { steps })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{RefinementKind, RefinementSequence};
    use ir_index::{BuildOptions, IndexBuilder};
    use ir_types::{IndexParams, TermId};

    fn index() -> InvertedIndex {
        let mut b = IndexBuilder::new();
        for d in 0..12u32 {
            let mut doc = vec!["alpha"];
            if d % 2 == 0 {
                doc.push("beta");
            }
            if d % 3 == 0 {
                doc.push("gamma");
            }
            if d == 0 {
                doc.extend(["delta", "delta"]);
            }
            b.add_document(doc);
        }
        b.build(BuildOptions {
            params: IndexParams::with_page_size(2),
            ..BuildOptions::default()
        })
        .unwrap()
    }

    fn seq(idx: &InvertedIndex) -> RefinementSequence {
        let t = |n: &str| idx.lexicon().lookup(n).unwrap();
        RefinementSequence {
            kind: RefinementKind::AddOnly,
            source: 0,
            steps: vec![
                vec![(t("delta"), 2)],
                vec![(t("delta"), 2), (t("gamma"), 1)],
                vec![(t("delta"), 2), (t("gamma"), 1), (t("beta"), 1)],
            ],
        }
    }

    #[test]
    fn sequence_accumulates_per_step_stats() {
        let idx = index();
        let out = run_sequence(
            &idx,
            &seq(&idx),
            SessionConfig::new(Algorithm::Df, PolicyKind::Lru, 64),
            None,
        )
        .unwrap();
        assert_eq!(out.steps.len(), 3);
        assert_eq!(
            out.total_disk_reads(),
            out.steps.iter().map(|s| s.stats.disk_reads).sum::<u64>()
        );
        assert_eq!(out.last_disk_reads(), out.steps[2].stats.disk_reads);
        assert!(out.steps.iter().all(|s| s.avg_precision.is_none()));
    }

    #[test]
    fn warm_buffers_reduce_later_steps() {
        let idx = index();
        // Pool large enough to hold everything: step 2 re-reads only
        // the newly added term's pages.
        let out = run_sequence(
            &idx,
            &seq(&idx),
            SessionConfig::new(Algorithm::Df, PolicyKind::Lru, 64),
            None,
        )
        .unwrap();
        let beta = idx.lexicon().lookup("beta").unwrap();
        let beta_pages = u64::from(idx.n_pages(beta).unwrap());
        assert_eq!(
            out.steps[2].stats.disk_reads, beta_pages,
            "with ample buffers only the added term is read"
        );
    }

    #[test]
    fn effectiveness_computed_when_relevance_supplied() {
        let idx = index();
        let relevant: HashSet<DocId> = [DocId(0)].into_iter().collect();
        let out = run_sequence(
            &idx,
            &seq(&idx),
            SessionConfig::new(Algorithm::Df, PolicyKind::Rap, 64),
            Some(&relevant),
        )
        .unwrap();
        // delta appears only in d0; it must rank first in step 0.
        let ap0 = out.steps[0].avg_precision.unwrap();
        assert!((ap0 - 1.0).abs() < 1e-12, "AP {ap0}");
        assert!(out.mean_avg_precision().unwrap() > 0.0);
    }

    #[test]
    fn tiny_buffer_still_completes() {
        let idx = index();
        for policy in PolicyKind::ALL {
            let out = run_sequence(
                &idx,
                &seq(&idx),
                SessionConfig::new(Algorithm::Baf, policy, 1),
                None,
            )
            .unwrap();
            assert_eq!(out.steps.len(), 3, "{policy}");
            assert!(out.total_disk_reads() > 0);
        }
    }

    #[test]
    fn config_label_matches_paper_style() {
        let c = SessionConfig::new(Algorithm::Baf, PolicyKind::Rap, 100);
        assert_eq!(c.label(), "BAF/RAP");
    }

    #[test]
    fn unknown_term_in_sequence_errors() {
        let idx = index();
        let bad = RefinementSequence {
            kind: RefinementKind::AddOnly,
            source: 0,
            steps: vec![vec![(TermId(999), 1)]],
        };
        assert!(run_sequence(
            &idx,
            &bad,
            SessionConfig::new(Algorithm::Df, PolicyKind::Lru, 4),
            None
        )
        .is_err());
    }
}
