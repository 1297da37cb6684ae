//! The stream generator is a measuring instrument: same seed, same
//! queries; different seeds, different order; composition Zipf(1).

use buffir_benchmark::adapter::{Geometry, Testbed};
use buffir_benchmark::stream::{sessions, zipf_quotas};
use buffir_benchmark::workloads::{Plan, WORKLOADS};
use std::path::PathBuf;

fn tiny_bed(tag: &str) -> Testbed {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("generator-{tag}.bfpg"));
    Testbed::build(Geometry::Tiny, &path).expect("tiny testbed builds")
}

#[test]
fn quotas_sum_to_the_session_count_and_follow_zipf() {
    for n in [1, 13, 45, 120, 1000] {
        assert_eq!(zipf_quotas(100, n).iter().sum::<usize>(), n);
    }
    let quotas = zipf_quotas(100, 120);
    assert!(
        quotas.windows(2).all(|w| w[0] >= w[1]),
        "popularity falls with topic id"
    );
    // Zipf(1) over 100 topics puts H_10 / H_100 = 56.5 % on the top ten.
    let top10 = quotas[..10].iter().sum::<usize>() as f64 / 120.0;
    assert!((top10 - 0.565).abs() < 0.03, "top-10 share {top10}");
}

#[test]
fn sessions_keep_the_apportioned_composition_under_every_seed() {
    let quotas = zipf_quotas(100, 120);
    for seed in [1, 2, 77] {
        let s = sessions(100, 120, seed);
        assert_eq!(s.len(), 120);
        for (topic, &quota) in quotas.iter().enumerate() {
            let of_topic: Vec<_> = s.iter().filter(|x| x.topic == topic).collect();
            assert_eq!(of_topic.len(), quota, "topic {topic} under seed {seed}");
            let drops = of_topic.iter().filter(|x| x.add_drop).count();
            assert!(drops.abs_diff(quota - drops) <= 1, "patterns split evenly");
        }
    }
    assert_ne!(sessions(100, 120, 1), sessions(100, 120, 2));
    assert_eq!(sessions(100, 120, 1), sessions(100, 120, 1));
}

#[test]
fn same_seed_same_stream_and_seeds_one_and_two_differ() {
    let bed = tiny_bed("digest");
    for w in &WORKLOADS {
        let a = Plan::new(&bed, w, 1, None).unwrap();
        let b = Plan::new(&bed, w, 1, None).unwrap();
        let c = Plan::new(&bed, w, 2, None).unwrap();
        assert_eq!(a.stream_digest, b.stream_digest, "{}", w.name);
        assert_eq!(a.footprint, b.footprint, "{}", w.name);
        assert_eq!(a.frames, b.frames, "{}", w.name);
        assert_ne!(a.stream_digest, c.stream_digest, "{}", w.name);
        // The composition is apportioned, so the held-out seed offers
        // the same amount of work over the same working set.
        assert_eq!(a.timed_queries(), c.timed_queries(), "{}", w.name);
        assert_eq!(a.footprint, c.footprint, "{}", w.name);
    }
}

#[test]
fn every_emitted_step_resolves() {
    let bed = tiny_bed("resolve");
    for w in &WORKLOADS {
        let plan = Plan::new(&bed, w, 1, None).unwrap();
        for stream in plan.warmup.iter().chain(&plan.timed) {
            assert!(!stream.is_empty());
            for step in stream {
                assert!(bed.resolves(step), "{}: a step does not resolve", w.name);
            }
        }
    }
}
