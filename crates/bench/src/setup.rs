//! Shared experiment fixture: corpus + index + queries + profiles.

use ir_core::workload::TermContribution;
use ir_core::{contribution_ranking, make_sequence, Query, RefinementKind, RefinementSequence};
use ir_corpus::{Corpus, CorpusConfig, TopicQuery};
use ir_engine::index_corpus_with;
use ir_index::InvertedIndex;
use ir_storage::PolicyKind;
use ir_types::{DocId, FilterParams, IrResult};
use std::collections::HashSet;

/// Corpus + index + the 100 topic queries, ready for experiments.
pub struct TestBed {
    /// The generated collection.
    pub corpus: Corpus,
    /// Its inverted index (compression measured, forward index kept for
    /// relevance-feedback experiments).
    pub index: InvertedIndex,
    /// One query per topic.
    pub queries: Vec<TopicQuery>,
}

impl TestBed {
    /// Generates and indexes a collection at the given paper scale.
    pub fn at_scale(sigma: f64) -> IrResult<TestBed> {
        TestBed::from_config(CorpusConfig::paper_scaled(sigma))
    }

    /// Generates and indexes a collection from an explicit config.
    pub fn from_config(config: CorpusConfig) -> IrResult<TestBed> {
        let corpus = Corpus::generate(config);
        let index = index_corpus_with(&corpus, true, true)?;
        let queries = corpus.queries();
        Ok(TestBed {
            corpus,
            index,
            queries,
        })
    }

    /// Resolves topic query `i` against the index.
    pub fn query(&self, i: usize) -> Query {
        Query::from_named(&self.index, &self.queries[i].terms)
    }

    /// Contribution ranking for topic query `i` (§5.1.2). Resets disk
    /// statistics afterwards: construction reads are not experiment
    /// reads.
    pub fn ranking(&self, i: usize) -> IrResult<Vec<TermContribution>> {
        let ranked = contribution_ranking(&self.index, &self.query(i), 20)?;
        self.index.disk().reset_stats();
        Ok(ranked)
    }

    /// Builds the refinement sequence of topic `i`.
    pub fn sequence(&self, i: usize, kind: RefinementKind) -> IrResult<RefinementSequence> {
        Ok(make_sequence(&self.ranking(i)?, kind, 3, i))
    }

    /// Relevance set for a topic.
    pub fn relevant_set(&self, topic: usize) -> HashSet<DocId> {
        self.corpus
            .relevant_docs(topic)
            .iter()
            .map(|&d| DocId(d))
            .collect()
    }

    /// Number of topic queries.
    pub fn n_queries(&self) -> usize {
        self.queries.len()
    }
}

/// Cold-buffer DF-vs-Full profile of one query (the data behind
/// Figure 3 / Table 5).
#[derive(Clone, Copy, Debug)]
pub struct QueryProfile {
    /// Topic index.
    pub topic: usize,
    /// Resolved query terms.
    pub n_terms: usize,
    /// Total pages over the query's inverted lists (Fig. 3 x-axis).
    pub total_pages: u64,
    /// Disk reads under full (safe) evaluation — equals `total_pages`.
    pub full_reads: u64,
    /// Disk reads under DF with Persin constants.
    pub df_reads: u64,
    /// Fraction of reads DF avoids (Fig. 3 y-axis).
    pub savings: f64,
    /// Peak accumulators under full evaluation.
    pub full_accumulators: usize,
    /// Peak accumulators under DF.
    pub df_accumulators: usize,
}

/// Profiles every topic query: cold buffers, pool large enough that the
/// only effect is the filtering itself (the paper flushes buffers
/// between the Fig. 3 queries).
pub fn profile_queries(bed: &TestBed) -> IrResult<Vec<QueryProfile>> {
    use ir_core::eval::{evaluate, EvalOptions};
    use ir_core::Algorithm;
    let mut out = Vec::with_capacity(bed.n_queries());
    for topic in 0..bed.n_queries() {
        let query = bed.query(topic);
        let pool = (query.total_pages() as usize).max(1);
        let run = |alg: Algorithm| -> IrResult<ir_core::EvalStats> {
            let mut buffer = bed.index.make_buffer(pool, PolicyKind::Lru)?;
            let r = evaluate(
                alg,
                &bed.index,
                &mut buffer,
                &query,
                EvalOptions {
                    params: FilterParams::PERSIN,
                    top_n: 20,
                    baf_force_first_page: false,
                },
            )?;
            Ok(r.stats)
        };
        let full = run(Algorithm::Full)?;
        let df = run(Algorithm::Df)?;
        let savings = if full.disk_reads == 0 {
            0.0
        } else {
            1.0 - df.disk_reads as f64 / full.disk_reads as f64
        };
        out.push(QueryProfile {
            topic,
            n_terms: query.len(),
            total_pages: query.total_pages(),
            full_reads: full.disk_reads,
            df_reads: df.disk_reads,
            savings,
            full_accumulators: full.peak_accumulators,
            df_accumulators: df.peak_accumulators,
        });
    }
    bed.index.disk().reset_stats();
    Ok(out)
}

/// The four representative queries of Table 5, selected from the
/// profiles by the same criteria the paper used: a high-savings query,
/// a mid-savings query, a near-flat query (all of moderate length), and
/// the longest query.
#[derive(Clone, Copy, Debug)]
pub struct Representatives {
    /// High savings, moderate length (paper's QUERY1, 77 %).
    pub query1: usize,
    /// Mid savings (paper's QUERY2, 44 %).
    pub query2: usize,
    /// Low savings (paper's QUERY3, 9 %).
    pub query3: usize,
    /// Longest query (paper's QUERY4, 99 terms, 83 %).
    pub query4: usize,
}

/// Picks the representatives deterministically from profiles.
pub fn pick_representatives(profiles: &[QueryProfile]) -> Representatives {
    let moderate: Vec<&QueryProfile> = profiles
        .iter()
        .filter(|p| (25..=60).contains(&p.n_terms))
        .collect();
    let pool: Vec<&QueryProfile> = if moderate.is_empty() {
        profiles.iter().collect()
    } else {
        moderate
    };
    let by_savings = |target: f64| -> usize {
        pool.iter()
            .min_by(|a, b| {
                (a.savings - target)
                    .abs()
                    .total_cmp(&(b.savings - target).abs())
            })
            .map(|p| p.topic)
            .unwrap_or(0)
    };
    let max_savings = pool
        .iter()
        .max_by(|a, b| a.savings.total_cmp(&b.savings))
        .map(|p| p.topic)
        .unwrap_or(0);
    let min_savings = pool
        .iter()
        .min_by(|a, b| a.savings.total_cmp(&b.savings))
        .map(|p| p.topic)
        .unwrap_or(0);
    let longest = profiles
        .iter()
        .max_by_key(|p| p.n_terms)
        .map(|p| p.topic)
        .unwrap_or(0);
    Representatives {
        query1: max_savings,
        query2: by_savings(0.45),
        query3: min_savings,
        query4: longest,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_bed() -> TestBed {
        TestBed::from_config(CorpusConfig::tiny()).unwrap()
    }

    #[test]
    fn testbed_wires_everything() {
        let bed = tiny_bed();
        assert_eq!(bed.n_queries(), bed.corpus.topics.len());
        let q = bed.query(0);
        assert!(!q.is_empty());
        assert!(!bed.relevant_set(0).is_empty());
    }

    #[test]
    fn sequences_are_buildable_for_all_topics() {
        let bed = tiny_bed();
        for i in 0..bed.n_queries() {
            let seq = bed.sequence(i, RefinementKind::AddOnly).unwrap();
            assert!(!seq.is_empty());
            let seq = bed.sequence(i, RefinementKind::AddDrop).unwrap();
            assert!(!seq.is_empty());
        }
        // Construction reads were reset.
        assert_eq!(bed.index.disk().stats().reads, 0);
    }

    #[test]
    fn profiles_have_consistent_savings() {
        let bed = tiny_bed();
        let profiles = profile_queries(&bed).unwrap();
        assert_eq!(profiles.len(), bed.n_queries());
        for p in &profiles {
            assert_eq!(p.full_reads, p.total_pages, "full eval reads every page");
            assert!(p.df_reads <= p.full_reads);
            assert!((0.0..=1.0).contains(&p.savings));
            assert!(p.df_accumulators <= p.full_accumulators);
        }
    }

    #[test]
    fn representatives_are_distinctive() {
        let bed = tiny_bed();
        let profiles = profile_queries(&bed).unwrap();
        let reps = pick_representatives(&profiles);
        let s = |i: usize| profiles[i].savings;
        assert!(s(reps.query1) >= s(reps.query2));
        assert!(s(reps.query2) >= s(reps.query3));
        assert_eq!(
            profiles[reps.query4].n_terms,
            profiles.iter().map(|p| p.n_terms).max().unwrap()
        );
    }
}
