//! End-to-end query evaluation: Full vs DF vs BAF, cold and warm — the
//! wall-clock view of the paper's disk-read results, plus BAF's term
//! selection on a warm refinement step and one refinement-sequence
//! cell from the Figures 5–8 grid.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use ir_bench::TestBed;
use ir_core::eval::{evaluate, EvalOptions};
use ir_core::{run_sequence, Algorithm, Query, RefinementKind, SessionConfig};
use ir_corpus::CorpusConfig;
use ir_storage::PolicyKind;

fn bench_evaluation(c: &mut Criterion) {
    let bed = TestBed::from_config(CorpusConfig::tiny()).expect("testbed");
    // The longest tiny-topic query.
    let topic = (0..bed.n_queries())
        .max_by_key(|&i| bed.query(i).len())
        .unwrap();
    let query = bed.query(topic);
    let pool = (query.total_pages() as usize).max(8);

    let mut g = c.benchmark_group("evaluate_cold");
    for alg in [Algorithm::Full, Algorithm::Df, Algorithm::Baf] {
        g.bench_with_input(BenchmarkId::from_parameter(alg), &alg, |b, &alg| {
            b.iter(|| {
                let mut buffer = bed.index.make_buffer(pool, PolicyKind::Rap).unwrap();
                black_box(
                    evaluate(alg, &bed.index, &mut buffer, &query, EvalOptions::default()).unwrap(),
                )
            })
        });
    }
    g.finish();

    let mut g = c.benchmark_group("evaluate_warm_refinement");
    for alg in [Algorithm::Df, Algorithm::Baf] {
        g.bench_with_input(BenchmarkId::from_parameter(alg), &alg, |b, &alg| {
            let mut buffer = bed.index.make_buffer(pool, PolicyKind::Rap).unwrap();
            evaluate(alg, &bed.index, &mut buffer, &query, EvalOptions::default()).unwrap();
            b.iter(|| {
                black_box(
                    evaluate(alg, &bed.index, &mut buffer, &query, EvalOptions::default()).unwrap(),
                )
            })
        });
    }
    g.finish();

    // What BAF pays to choose its order, as isolated as the public
    // entry point allows: the last two steps of the topic's ADD-DROP
    // sequence take turns, so every evaluation is a warm refinement
    // step over short lists and the rounds (one per term: `b_t`
    // inquiries, `(f_add, p_t)` refreshes, the pick) are most of it.
    // `fit` holds both steps — every scan is hits and the first
    // round's `b_t` answers stand for the whole query; `tight` holds a
    // sixteenth, so rounds read and the next round asks again.
    let add_drop = bed.sequence(topic, RefinementKind::AddDrop).unwrap();
    let steps: Vec<Query> = add_drop.steps[add_drop.len().saturating_sub(2)..]
        .iter()
        .map(|terms| Query::from_ids(&bed.index, terms).unwrap())
        .collect();
    let fit: usize = steps.iter().map(|q| q.total_pages() as usize).sum();
    let mut g = c.benchmark_group("baf_select");
    for (shape, frames) in [("fit", fit), ("tight", (fit / 16).max(2))] {
        g.bench_function(BenchmarkId::from_parameter(shape), |b| {
            let mut buffer = bed.index.make_buffer(frames, PolicyKind::Rap).unwrap();
            let mut i = 0usize;
            b.iter(|| {
                i += 1;
                let query = &steps[i % steps.len()];
                black_box(
                    evaluate(
                        Algorithm::Baf,
                        &bed.index,
                        &mut buffer,
                        query,
                        EvalOptions::default(),
                    )
                    .unwrap(),
                )
            })
        });
    }
    g.finish();

    // One cell of the Figures 5–8 grid: a whole ADD-ONLY sequence.
    let sequence = bed.sequence(topic, RefinementKind::AddOnly).unwrap();
    let buffers = (query.total_pages() as usize / 4).max(2);
    let mut g = c.benchmark_group("sequence_cell");
    g.sample_size(20);
    for (alg, policy) in [
        (Algorithm::Df, PolicyKind::Lru),
        (Algorithm::Baf, PolicyKind::Rap),
    ] {
        let label = format!("{alg}/{policy}");
        g.bench_function(BenchmarkId::from_parameter(label), |b| {
            b.iter(|| {
                black_box(
                    run_sequence(
                        &bed.index,
                        &sequence,
                        SessionConfig::new(alg, policy, buffers),
                        None,
                    )
                    .unwrap(),
                )
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_evaluation);
criterion_main!(benches);
