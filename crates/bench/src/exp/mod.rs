//! One module per paper artifact (table/figure). Each `run` prints the
//! artifact and writes CSVs into the output directory.

pub mod ablation;
pub mod adaptive;
pub mod aggregate;
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

use crate::output::OutputDir;
use crate::setup::{QueryProfile, Representatives, TestBed};

/// Everything an experiment needs: the fixture, the output sink, the
/// query profiles, and the representative query picks.
pub struct ExpContext<'a> {
    /// Corpus + index + queries.
    pub bed: &'a TestBed,
    /// Artifact sink.
    pub out: &'a OutputDir,
    /// Cold DF-vs-Full profiles of all topic queries.
    pub profiles: &'a [QueryProfile],
    /// The four Table 5-style representative queries.
    pub reps: Representatives,
}

/// Result type for experiment modules: mixes simulator errors with I/O
/// errors from CSV output.
pub type ExpResult<T> = Result<T, Box<dyn std::error::Error>>;

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
