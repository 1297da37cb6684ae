//! Buffer-manager overhead per replacement policy: hit-dominated and
//! eviction-dominated reference streams. RAP's value bookkeeping and
//! the simpler queues should all be within the same order of magnitude
//! — the paper's policies trade *reads*, not CPU.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use ir_storage::{
    BufferManager, DiskSim, Page, PolicyKind, QueryBuffer, QueryBufferExt, ShardedBufferPool,
};
use ir_types::{IdMap, PageId, Posting, TermId};
use std::sync::Arc;

fn store(n_terms: u32, pages_per_term: u32) -> DiskSim {
    let lists = (0..n_terms)
        .map(|t| {
            (0..pages_per_term)
                .map(|p| {
                    let postings: Vec<Posting> = vec![Posting::new(p, pages_per_term - p)];
                    Page::new(PageId::new(TermId(t), p), postings.into(), 2.0)
                })
                .collect()
        })
        .collect();
    DiskSim::new(lists)
}

/// Footnote 8's concern: RAP's per-query re-valuation ("a reorganizing
/// capability is required"). It touches the resident pages of the terms
/// whose `w_{q,t}` changed, so measure `begin_query` by how much of the
/// query changes between announcements, against pool occupancy: the
/// same 16-term query again, a refinement step (3 of 16 terms swapped)
/// and a topic switch (two disjoint 16-term queries), each alternating
/// between its two queries over a pool holding 32 terms' pages. Then
/// two sessions — two handles to a one-shard pool — taking turns to
/// announce a refinement step each, their queries sharing 6 terms.
fn bench_rap_reorganize(c: &mut Criterion) {
    const TERMS: u32 = 32;
    let query = |terms: std::ops::Range<u32>| -> IdMap<TermId, f64> {
        terms.map(|t| (TermId(t), 1.0 + f64::from(t))).collect()
    };
    let shapes = [
        ("unchanged", query(0..16)),
        ("refine", query(3..19)),
        ("switch", query(16..32)),
    ];
    let mut g = c.benchmark_group("rap_begin_query");
    for resident in [1024usize, 16384] {
        for (shape, other) in &shapes {
            let id = BenchmarkId::new(shape, resident);
            g.bench_with_input(id, &resident, |b, &resident| {
                let pages = resident as u32 / TERMS;
                let mut bm =
                    BufferManager::new(store(TERMS, pages), resident, PolicyKind::Rap).unwrap();
                for t in 0..TERMS {
                    for p in 0..pages {
                        bm.fetch(PageId::new(TermId(t), p)).unwrap();
                    }
                }
                let queries = [query(0..16), other.clone()];
                let mut i = 0usize;
                b.iter(|| {
                    i += 1;
                    bm.begin_query(black_box(&queries[i % 2]))
                })
            });
        }
        let id = BenchmarkId::new("two_sessions", resident);
        g.bench_with_input(id, &resident, |b, &resident| {
            let pages = resident as u32 / TERMS;
            let store = Arc::new(store(TERMS, pages));
            let mut pool = ShardedBufferPool::new(store, resident, PolicyKind::Rap, 1).unwrap();
            for t in 0..TERMS {
                for p in 0..pages {
                    pool.fetch(PageId::new(TermId(t), p)).unwrap();
                }
            }
            let mut sessions = [pool.clone(), pool];
            let queries = [[query(0..16), query(3..19)], [query(13..29), query(16..32)]];
            let mut i = 0usize;
            b.iter(|| {
                i += 1;
                sessions[i % 2].begin_query(black_box(&queries[i % 2][i / 2 % 2]))
            })
        });
    }
    g.finish();
}

fn bench_policies(c: &mut Criterion) {
    // Hit-dominated: working set fits.
    let mut g = c.benchmark_group("buffer_hits");
    for kind in PolicyKind::ALL {
        g.bench_with_input(BenchmarkId::from_parameter(kind), &kind, |b, &kind| {
            let mut bm = BufferManager::new(store(4, 16), 64, kind).unwrap();
            // Pre-warm.
            for t in 0..4 {
                for p in 0..16 {
                    bm.fetch(PageId::new(TermId(t), p)).unwrap();
                }
            }
            let mut i = 0u32;
            b.iter(|| {
                let id = PageId::new(TermId(i % 4), (i / 4) % 16);
                i = i.wrapping_add(1);
                black_box(bm.fetch(id).unwrap());
            })
        });
    }
    g.finish();

    // Eviction-dominated: sequential flooding through a small pool.
    let mut g = c.benchmark_group("buffer_evictions");
    for kind in PolicyKind::ALL {
        g.bench_with_input(BenchmarkId::from_parameter(kind), &kind, |b, &kind| {
            let mut bm = BufferManager::new(store(2, 64), 16, kind).unwrap();
            let mut i = 0u32;
            b.iter(|| {
                let id = PageId::new(TermId(i % 2), (i / 2) % 64);
                i = i.wrapping_add(1);
                black_box(bm.fetch(id).unwrap());
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_policies, bench_rap_reorganize);
criterion_main!(benches);
