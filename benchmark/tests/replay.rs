//! The traced pass replays each query's captured page sequence into a
//! twin pool; the twin's `stats()` must equal the real pool's, or the
//! replay is timing a different reference string.

use buffir_benchmark::adapter::{span, Backend, Geometry, Pairing, SoloRig, StoreCounts, Testbed};
use buffir_benchmark::stream::sessions;
use buffir_benchmark::trace::SpanRecorder;
use std::path::PathBuf;

#[test]
fn twin_pool_stats_equal_the_real_pools_on_tiny() {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("replay.bfpg");
    let bed = Testbed::build(Geometry::Tiny, &path).expect("tiny testbed builds");
    let steps = bed.steps(&sessions(bed.n_topics(), 24, 1));
    let footprint = bed.footprint(&steps).unwrap();
    for backend in [Backend::DiskSim, Backend::FileQd4] {
        for pairing in [Pairing::BafRap, Pairing::DfLru] {
            for frames in [footprint, (footprint / 8).max(2)] {
                let mut rig = SoloRig::new(&bed, pairing, backend, frames, true).unwrap();
                let mut rec = SpanRecorder::default();
                let mut store = StoreCounts::default();
                // The scheduler sleeps its modeled waits; a short
                // prefix keeps the file-backed cases quick.
                let n = if backend == Backend::FileQd4 {
                    12
                } else {
                    steps.len()
                };
                for (i, step) in steps[..n].iter().enumerate() {
                    rig.query_traced(step, &mut rec, i as u32, &mut store)
                        .unwrap();
                }
                assert_eq!(
                    rig.twin_agrees(),
                    Some(true),
                    "{pairing:?} over {backend:?} with {frames} frames"
                );
                let evals = rec.spans().iter().filter(|s| s.name == span::EVAL).count();
                assert_eq!(evals, n);
                assert!(rec.total_ns(span::POOL_FETCH) > 0);
            }
        }
    }
}

#[test]
fn untraced_rigs_have_no_twin() {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("replay-untraced.bfpg");
    let bed = Testbed::build(Geometry::Tiny, &path).expect("tiny testbed builds");
    let rig = SoloRig::new(&bed, Pairing::DfLru, Backend::DiskSim, 4, false).unwrap();
    assert_eq!(rig.twin_agrees(), None);
}
