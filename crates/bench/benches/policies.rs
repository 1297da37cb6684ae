//! Buffer-manager overhead per replacement policy: hit-dominated and
//! eviction-dominated reference streams. RAP's value bookkeeping and
//! the simpler queues should all be within the same order of magnitude
//! — the paper's policies trade *reads*, not CPU.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ir_storage::{BufferManager, DiskSim, FetchOutcome, Page, PolicyKind, QueryBuffer};
use ir_types::{IdMap, PageId, Posting, ReadPlan, TermId};
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
            let mut pool = BufferManager::new(store, resident, PolicyKind::Rap).unwrap();
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

/// The hit path in isolation: a warm 16-page plan (one term's list, so
/// one shard) through `fetch_batch_into`, 64 plans over four lists an
/// iteration — elements are pages. On the one-shard pool under LRU
/// (every hit owes the policy a call, under the shard mutex) and RAP
/// (nobody consumes a hit), on a 2-shard RAP pool, and on that pool
/// while a second thread runs the same loop through its own handle over
/// four *other* lists on the same two shards: what two sessions pay for
/// sharing the pool's structures — frame-table lock, counters — rather
/// than for sharing pages (scanning the same lists, the pages'
/// reference counts dominate: ≈ 140 ns a page, whatever the pool does).
/// Wants two free cores.
fn bench_hit_run(c: &mut Criterion) {
    use std::sync::atomic::{AtomicBool, Ordering};
    const ROUNDS: u32 = 64;
    let plans: Vec<ReadPlan> = (0..8)
        .map(|t| ReadPlan::for_term_pages(TermId(t), 16))
        .collect();
    let (plans, other_plans) = plans.split_at(4);
    fn run(pool: &mut impl QueryBuffer, plans: &[ReadPlan], out: &mut Vec<(Page, FetchOutcome)>) {
        for round in 0..ROUNDS {
            pool.fetch_batch_into(&plans[round as usize % plans.len()], out)
                .unwrap();
            black_box(&*out);
        }
    }
    let mut g = c.benchmark_group("pool_hit_run");
    g.throughput(Throughput::Elements(u64::from(ROUNDS) * 16));
    g.sample_size(100);
    for (name, kind) in [
        ("one_shard_lru", PolicyKind::Lru),
        ("one_shard_rap", PolicyKind::Rap),
    ] {
        g.bench_function(name, |b| {
            let mut bm = BufferManager::new(store(4, 16), 64, kind).unwrap();
            let mut out = Vec::new();
            run(&mut bm, plans, &mut out);
            b.iter(|| run(&mut bm, plans, &mut out))
        });
    }
    for (name, contended) in [("sharded2_rap", false), ("sharded2_rap_two_threads", true)] {
        g.bench_function(name, |b| {
            // 512 frames: a routing chunk holds a whole list, and no
            // hash skew can evict.
            let mut pool = BufferManager::sharded(store(8, 16), 512, PolicyKind::Rap, 2).unwrap();
            let mut out = Vec::new();
            run(&mut pool, plans, &mut out);
            run(&mut pool, other_plans, &mut out);
            let stop = AtomicBool::new(false);
            let started = std::sync::Barrier::new(2);
            std::thread::scope(|scope| {
                if contended {
                    let mut other = pool.clone();
                    let (plans, stop, started) = (other_plans, &stop, &started);
                    scope.spawn(move || {
                        let mut out = Vec::new();
                        started.wait();
                        while !stop.load(Ordering::Relaxed) {
                            run(&mut other, plans, &mut out);
                        }
                    });
                    started.wait();
                }
                b.iter(|| run(&mut pool, plans, &mut out));
                stop.store(true, Ordering::Relaxed);
            });
        });
    }
    g.finish();
}

criterion_group!(benches, bench_policies, bench_hit_run, bench_rap_reorganize);
criterion_main!(benches);
