//! One module per paper artifact (table/figure), plus the chaos matrix.
//! Each `run` prints the artifact and writes it into the output
//! directory; the refinement-sequence grids all go through one `sweep`.

pub mod ablation;
pub mod aggregate;
pub mod chaos;
pub mod effectiveness;
pub mod feedback_exp;
pub mod fig3_table5;
pub mod fig4;
pub mod fig5_8;
pub mod multiuser;
pub mod ordering;
pub mod scaling;
pub mod table1_2;
pub mod table4;
pub mod table7;

use crate::ledger::Ledger;
use crate::output::{OutputDir, TextTable};
use crate::setup::{
    pick_representatives, profile_queries_into, QueryProfile, Representatives, TestBed,
};
use ir_core::{run_sequence_by, Algorithm, RefinementSequence, SequenceOutcome, SessionConfig};
use ir_corpus::{Corpus, CorpusConfig};
use ir_index::InvertedIndex;
use ir_storage::{DiskStats, PolicyKind};
use ir_types::DocId;
use std::collections::HashSet;
use std::path::Path;
use std::time::Instant;

/// Everything an experiment needs: the fixture, the output sink, the
/// query profiles, and the representative query picks.
pub struct ExpContext {
    /// The paper scale σ the testbed was generated at.
    pub scale: f64,
    /// Corpus + index + queries.
    pub bed: TestBed,
    /// Artifact sink.
    pub out: OutputDir,
    /// Cold DF-vs-Full profiles of all topic queries.
    pub profiles: Vec<QueryProfile>,
    /// The four Table 5-style representative queries.
    pub reps: Representatives,
    /// Every query the running experiment evaluated, timed by layer.
    pub ledger: Ledger,
}

/// Result type for experiment modules: mixes simulator errors with I/O
/// errors from CSV output.
pub type ExpResult<T> = Result<T, Box<dyn std::error::Error>>;

/// One experiment: prints its artifact and writes it into `ctx.out`.
pub type Experiment = fn(&ExpContext) -> ExpResult<()>;

impl ExpContext {
    /// Builds the testbed at paper scale `scale`, profiles its topic
    /// queries and picks the representatives, narrating each step on
    /// stdout; artifacts go to `out`.
    pub fn new(scale: f64, out: impl AsRef<Path>) -> ExpResult<ExpContext> {
        println!("building testbed at scale {scale} (paper geometry) ...");
        let started = Instant::now();
        let corpus = Corpus::generate(CorpusConfig::paper_scaled(scale));
        let generated = started.elapsed();
        let started = Instant::now();
        let bed = TestBed::from_corpus(corpus)
            .map_err(|e| format!("testbed construction failed: {e}"))?;
        let mb = |bytes: usize| bytes as f64 / 1e6;
        println!(
            "  {} docs, {} terms, {} postings, {} pages (PageSize {}), \
             built in {:.1?} (generate) + {:.1?} (index); \
             corpus {:.1} MB, index {:.1} MB in memory",
            bed.index.n_docs(),
            bed.index.n_terms(),
            bed.index.total_postings(),
            bed.index.total_pages(),
            bed.index.params().page_size,
            generated,
            started.elapsed(),
            mb(bed.corpus.memory_bytes()),
            mb(bed.index.memory().total()),
        );
        let out = OutputDir::new(&out)
            .map_err(|e| format!("cannot create output dir {}: {e}", out.as_ref().display()))?;
        println!(
            "profiling the {} topic queries (DF vs Full, cold) ...",
            bed.n_queries()
        );
        let ledger = Ledger::new();
        let profiles =
            profile_queries_into(&bed, &ledger).map_err(|e| format!("profiling failed: {e}"))?;
        if let Some(line) = ledger.drain_line() {
            println!("{line}");
        }
        let reps = pick_representatives(&profiles);
        let savings = |topic: usize| profiles[topic].savings * 100.0;
        println!(
            "representatives: QUERY1=topic {} ({:.0} %), QUERY2=topic {} ({:.0} %), \
             QUERY3=topic {} ({:.0} %), QUERY4=topic {} ({} terms)",
            reps.query1,
            savings(reps.query1),
            reps.query2,
            savings(reps.query2),
            reps.query3,
            savings(reps.query3),
            reps.query4,
            profiles[reps.query4].n_terms
        );
        Ok(ExpContext {
            scale,
            bed,
            out,
            profiles,
            reps,
            ledger,
        })
    }

    /// Runs one experiment, prints the µs per query by layer of the
    /// queries it evaluated (if any), then zeroes the disk counters its
    /// reads left behind, so each experiment starts from a clean disk.
    pub fn run(&self, experiment: Experiment) -> ExpResult<()> {
        let result = experiment(self);
        if let Some(line) = self.ledger.drain_line() {
            println!("{line}");
        }
        self.bed.index.disk().reset_stats();
        result
    }
}

/// The paper's six algorithm/policy pairings of Figures 5–8 and Table 7.
pub(crate) const PAPER_PAIRS: [(Algorithm, PolicyKind); 6] = [
    (Algorithm::Df, PolicyKind::Lru),
    (Algorithm::Df, PolicyKind::Mru),
    (Algorithm::Df, PolicyKind::Rap),
    (Algorithm::Baf, PolicyKind::Lru),
    (Algorithm::Baf, PolicyKind::Mru),
    (Algorithm::Baf, PolicyKind::Rap),
];

/// One cell of a [`sweep`]: a refinement sequence run on a fresh pool.
pub(crate) struct Cell {
    /// Algorithm, policy and pool size of the run.
    pub config: SessionConfig,
    /// What each refinement read and answered.
    pub outcome: SequenceOutcome,
    /// The disk's counters over this cell alone.
    pub disk: DiskStats,
}

impl Cell {
    /// Disk reads over the whole sequence.
    pub(crate) fn reads(&self) -> u64 {
        self.outcome.total_disk_reads()
    }
}

/// Runs `sequence` over `index` on a fresh pool for every buffer size ×
/// `(algorithm, policy)` pair, resetting the disk counters before each
/// run, and returns the cells row by row: `grid[i][j]` is `buffers[i]`
/// pages under `pairs[j]`. `relevant` turns on average precision. Every
/// query is timed into `ledger`.
pub(crate) fn sweep(
    ledger: &Ledger,
    index: &InvertedIndex,
    sequence: &RefinementSequence,
    buffers: &[usize],
    pairs: &[(Algorithm, PolicyKind)],
    relevant: Option<&HashSet<DocId>>,
) -> ExpResult<Vec<Vec<Cell>>> {
    let cell = |buffers, (algorithm, policy)| -> ExpResult<Cell> {
        let config = SessionConfig::new(algorithm, policy, buffers);
        index.disk().reset_stats();
        let mut buffer = index.make_buffer(config.buffer_pages, config.policy)?;
        let outcome = run_sequence_by(index, sequence, relevant, |query| {
            ledger.evaluate(
                config.algorithm,
                index,
                &mut buffer,
                query,
                config.options(),
            )
        })?;
        let disk = index.disk().stats();
        Ok(Cell {
            config,
            outcome,
            disk,
        })
    };
    buffers
        .iter()
        .map(|&b| pairs.iter().map(|&pair| cell(b, pair)).collect())
        .collect()
}

/// Renders a [`sweep`] grid one buffer size a row and one pair a column
/// (headed `column(pair)`), each cell its total disk reads.
pub(crate) fn grid_table(grid: &[Vec<Cell>], column: impl Fn(&SessionConfig) -> String) -> String {
    let mut table = TextTable::new(
        std::iter::once("buffers".to_string()).chain(grid[0].iter().map(|c| column(&c.config))),
    );
    for row in grid {
        let mut cells = vec![row[0].config.buffer_pages.to_string()];
        cells.extend(row.iter().map(|c| c.reads().to_string()));
        table.row(cells);
    }
    table.render()
}

/// Buffer-size sweep points for a refinement sequence whose query
/// touches `total_pages` pages: from a sliver of the working set up to
/// saturation, mirroring the x-axes of Figures 5–8.
pub fn sweep_points(total_pages: u64) -> Vec<usize> {
    let p = total_pages.max(8) as f64;
    let mut points: Vec<usize> = [
        1.0 / 32.0,
        1.0 / 16.0,
        1.0 / 8.0,
        3.0 / 16.0,
        1.0 / 4.0,
        3.0 / 8.0,
        1.0 / 2.0,
        5.0 / 8.0,
        3.0 / 4.0,
        1.0,
        1.25,
    ]
    .iter()
    .map(|f| ((p * f).round() as usize).max(1))
    .collect();
    points.dedup();
    points
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_points_are_increasing_and_span_saturation() {
        let pts = sweep_points(320);
        assert!(pts.windows(2).all(|w| w[0] < w[1]), "{pts:?}");
        assert!(*pts.first().unwrap() >= 1);
        assert!(*pts.last().unwrap() > 320);
    }

    #[test]
    fn tiny_lists_get_valid_sweeps() {
        let pts = sweep_points(1);
        assert!(!pts.is_empty());
        assert!(pts.iter().all(|&p| p >= 1));
    }
}
