//! Property-based tests over the core data structures and invariants.

use buffir::core::{rank, Accumulators, Query};
use buffir::index::{decode_postings, encode_postings, ConversionTable};
use buffir::storage::{
    BufferManager, DiskSim, EventLog, Page, PolicyKind, QueryBuffer, ShardedBufferPool,
};
use buffir::text::stem;
use ir_types::{frequency_order, DocId, IdMap, PageId, Posting, ReadPlan, TermId};
use proptest::prelude::*;
use std::sync::Arc;

/// A simulated disk of `n_terms` lists of `pages` one-posting pages.
fn disk(n_terms: u32, pages: u32) -> DiskSim {
    let lists = (0..n_terms)
        .map(|t| {
            (0..pages)
                .map(|p| {
                    let postings: Vec<Posting> = vec![Posting::new(p, pages - p)];
                    Page::new(PageId::new(TermId(t), p), postings.into(), 1.5)
                })
                .collect()
        })
        .collect();
    DiskSim::new(lists)
}

/// Strategy: a valid inverted list — distinct doc ids, freqs ≥ 1,
/// frequency-sorted.
fn inverted_list(max_len: usize) -> impl Strategy<Value = Vec<Posting>> {
    prop::collection::btree_map(0u32..50_000, 1u32..60, 0..max_len).prop_map(|m| {
        let mut v: Vec<Posting> = m.into_iter().map(|(d, f)| Posting::new(d, f)).collect();
        v.sort_by(frequency_order);
        v
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Codec: decode(encode(x)) == x for any valid list.
    #[test]
    fn codec_round_trips(postings in inverted_list(300)) {
        let encoded = encode_postings(&postings);
        let decoded = decode_postings(encoded).expect("well-formed input decodes");
        prop_assert_eq!(decoded, postings);
    }

    /// Codec: compression never exceeds ~2.2 bytes/entry on valid lists
    /// plus a small constant (the paper's premise is ≈1 B/entry on
    /// realistic skew; this bounds the worst case of our scheme).
    #[test]
    fn codec_stays_compact(postings in inverted_list(300)) {
        let encoded = encode_postings(&postings);
        prop_assert!(encoded.len() <= postings.len() * 5 + 10,
            "{} bytes for {} postings", encoded.len(), postings.len());
    }

    /// Codec: decoding arbitrary bytes never panics.
    #[test]
    fn codec_survives_garbage(bytes in prop::collection::vec(any::<u8>(), 0..200)) {
        let _ = decode_postings(bytes::Bytes::from(bytes));
    }

    /// Porter stemmer: total, never yields an empty string, output no
    /// longer than input.
    #[test]
    fn stemmer_is_total(word in "[a-z]{1,20}") {
        let out = stem(&word);
        prop_assert!(!out.is_empty());
        prop_assert!(out.len() <= word.len());
    }

    /// Conversion table agrees with a brute-force scan simulation for
    /// every integer threshold.
    #[test]
    fn conversion_table_matches_scan_simulation(
        postings in inverted_list(200),
        page_size in 1usize..20,
    ) {
        let table = ConversionTable::build(
            std::iter::once(postings.as_slice()),
            page_size,
        );
        let f_max = postings.first().map_or(0, |p| p.freq);
        for f_add in 0..=(f_max + 2) {
            // Brute force: the f_max test skips the list outright;
            // otherwise pages are read until the first failing entry.
            let expected = if f64::from(f_max) <= f64::from(f_add) {
                0
            } else {
                let mut pages = 0u32;
                'outer: for chunk in postings.chunks(page_size) {
                    pages += 1;
                    for p in chunk {
                        if f64::from(p.freq) <= f64::from(f_add) {
                            break 'outer;
                        }
                    }
                }
                pages
            };
            let got = table.pages_to_process(TermId(0), f64::from(f_add)).unwrap();
            prop_assert_eq!(got, expected, "f_add={} postings={:?}", f_add, postings);
        }
    }

    /// Buffer manager: under any fetch stream, every policy respects
    /// capacity, keeps b_t counters equal to true occupancy, and counts
    /// hits+misses == requests.
    #[test]
    fn buffer_invariants_hold_for_all_policies(
        fetches in prop::collection::vec((0u32..6, 0u32..10), 1..300),
        capacity in 1usize..24,
        policy_idx in 0usize..7,
    ) {
        let policy = PolicyKind::ALL[policy_idx];
        let mut bm = BufferManager::new(disk(6, 10), capacity, policy).unwrap();
        for &(t, p) in &fetches {
            bm.fetch(PageId::new(TermId(t), p)).unwrap();
            prop_assert!(bm.len() <= capacity, "{policy} overflow");
        }
        let s = bm.stats();
        prop_assert_eq!(s.requests, fetches.len() as u64);
        prop_assert_eq!(s.hits + s.misses, s.requests);
        prop_assert_eq!(s.misses, bm.store().stats().reads);
        let bt_total: u32 = (0..6).map(|t| bm.resident_pages(TermId(t))).sum();
        prop_assert_eq!(bt_total as usize, bm.len(), "{} b_t drift", policy);
    }

    /// Top-n ranking: sorted by score desc (doc asc on ties), length
    /// min(n, candidates), and contains exactly the highest-scoring
    /// documents.
    #[test]
    fn top_n_is_sorted_and_maximal(
        scores in prop::collection::btree_map(0u32..500, 0.01f64..100.0, 1..80),
        n in 1usize..30,
    ) {
        let mut accs = Accumulators::new();
        for (&d, &s) in &scores {
            accs.upsert(DocId(d), s);
        }
        let doc_stats = buffir::index::DocStats::new(vec![1.0; 500]);
        let hits = rank::top_n(&accs, &doc_stats, n).unwrap();
        prop_assert_eq!(hits.len(), n.min(scores.len()));
        for w in hits.windows(2) {
            prop_assert!(w[0].score > w[1].score
                || (w[0].score == w[1].score && w[0].doc < w[1].doc));
        }
        // The smallest returned score must be >= every omitted score.
        if let Some(last) = hits.last() {
            let returned: std::collections::HashSet<u32> =
                hits.iter().map(|h| h.doc.0).collect();
            for (&d, &s) in &scores {
                if !returned.contains(&d) {
                    prop_assert!(s <= last.score + 1e-12);
                }
            }
        }
    }

    /// Accumulators: peak is monotone and >= live count; sum of upserts
    /// is preserved per document.
    #[test]
    fn accumulators_preserve_sums(
        ops in prop::collection::vec((0u32..40, 0.1f64..10.0), 1..200),
    ) {
        let mut accs = Accumulators::new();
        let mut reference: std::collections::HashMap<u32, f64> =
            std::collections::HashMap::new();
        for &(d, v) in &ops {
            accs.upsert(DocId(d), v);
            *reference.entry(d).or_insert(0.0) += v;
            prop_assert!(accs.peak() >= accs.len());
        }
        prop_assert_eq!(accs.len(), reference.len());
        for (d, total) in reference {
            let got = accs.iter().find(|(doc, _)| doc.0 == d).unwrap().1;
            prop_assert!((got - total).abs() < 1e-9);
        }
    }
}

/// Announces each step's weights, then fetches its plan.
fn drive(pool: &mut impl QueryBuffer, traffic: &[(IdMap<TermId, f64>, ReadPlan)]) {
    let mut out = Vec::new();
    for (weights, plan) in traffic {
        pool.begin_query(weights);
        pool.fetch_batch_into(plan, &mut out).unwrap();
    }
}

/// A pool nobody observes skips the hits its policy says it does not
/// use, so a policy that wrongly disowns its hits evicts differently
/// only while nobody watches — and every identity test watches. Same
/// seeded traffic (prefix scans that hit, miss and evict, under
/// changing announcements) with and without an observer, for every
/// kind, on the reference pool and on a quiesced two-shard pool.
/// Planted and caught: `uses_hits` wrongly `false` on LRU (seed 1,
/// two-shard pool: one hit fewer, one eviction more unobserved).
#[test]
fn observing_a_pool_does_not_change_what_it_evicts() {
    use rand::{rngs::SmallRng, Rng, SeedableRng};
    for seed in 0..12u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let traffic: Vec<(IdMap<TermId, f64>, ReadPlan)> = (0..60)
            .map(|_| {
                let t = rng.gen_range(0..6u32);
                let weights = [
                    (TermId(t), f64::from(rng.gen_range(1..4u32))),
                    (TermId((t + 1) % 6), 0.5),
                ]
                .into_iter()
                .collect();
                let pages = rng.gen_range(1..=10u32);
                (weights, ReadPlan::for_term_pages(TermId(t), pages, None))
            })
            .collect();
        let capacity = [4, 8, 12][(seed % 3) as usize];
        for kind in PolicyKind::ALL.into_iter().chain(PolicyKind::ADAPTIVE) {
            let reference = |observed: bool| {
                let mut bm = BufferManager::new(disk(6, 10), capacity, kind).unwrap();
                if observed {
                    bm.set_observer(Box::new(EventLog::new()));
                }
                drive(&mut bm, &traffic);
                (bm.stats(), bm.resident_ids())
            };
            assert_eq!(
                reference(true),
                reference(false),
                "seed {seed}, {kind}, BufferManager"
            );
            let sharded = |observed: bool| {
                let mut pool =
                    ShardedBufferPool::new(Arc::new(disk(6, 10)), capacity, kind, 2).unwrap();
                if observed {
                    for s in 0..2 {
                        pool.with_shard(s, |bm| bm.set_observer(Box::new(EventLog::new())));
                    }
                }
                drive(&mut pool, &traffic);
                pool.quiesce();
                let mut resident: Vec<PageId> = (0..2)
                    .flat_map(|s| pool.with_shard(s, |bm| bm.resident_ids()))
                    .collect();
                resident.sort();
                (pool.stats(), resident)
            };
            assert_eq!(
                sharded(true),
                sharded(false),
                "seed {seed}, {kind}, two-shard pool"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Boolean evaluation matches brute-force set algebra over the raw
    /// document bags.
    #[test]
    fn boolean_matches_set_algebra(
        docs in prop::collection::vec(
            prop::collection::btree_set(0u32..6, 1..4), 1..30),
        expr_pick in 0usize..4,
    ) {
        use buffir::core::boolean::BooleanQuery;
        use buffir::index::{BuildOptions, IndexBuilder};

        let names = ["a", "b", "c", "d", "e", "f"];
        let mut b = IndexBuilder::new();
        for bag in &docs {
            b.add_document(bag.iter().map(|&t| names[t as usize]));
        }
        let index = b.build(BuildOptions::default()).unwrap();
        let exprs = [
            "a AND b",
            "a OR b AND c",
            "(a OR b) AND (c OR d)",
            "a AND b AND c OR e",
        ];
        let q = BooleanQuery::parse(exprs[expr_pick]).unwrap();
        let mut buffer = index.make_buffer(16, PolicyKind::Lru).unwrap();
        let got: Vec<u32> = q
            .evaluate(&index, &mut buffer)
            .unwrap()
            .docs
            .iter()
            .map(|d| d.0)
            .collect();
        // Brute force over the raw bags.
        let has = |d: usize, t: usize| docs[d].contains(&(t as u32));
        let expect: Vec<u32> = (0..docs.len())
            .filter(|&d| match expr_pick {
                0 => has(d, 0) && has(d, 1),
                1 => has(d, 0) || (has(d, 1) && has(d, 2)),
                2 => (has(d, 0) || has(d, 1)) && (has(d, 2) || has(d, 3)),
                _ => (has(d, 0) && has(d, 1) && has(d, 2)) || has(d, 4),
            })
            .map(|d| d as u32)
            .collect();
        prop_assert_eq!(got, expect);
    }

    /// DF and BAF return identical rankings when the filters are off,
    /// regardless of buffer capacity or policy: processing order cannot
    /// change exact scores.
    #[test]
    fn df_and_baf_agree_with_filters_off(
        seed in 0u64..1000,
        capacity in 1usize..40,
        policy_idx in 0usize..7,
    ) {
        use buffir::core::eval::{evaluate, EvalOptions};
        use buffir::corpus::{Corpus, CorpusConfig};
        use buffir::engine::index_corpus;
        use buffir::{Algorithm, FilterParams};

        let mut cfg = CorpusConfig::tiny();
        cfg.n_docs = 120;
        cfg.n_topics = 3;
        cfg.seed = seed;
        let corpus = Corpus::generate(cfg);
        let index = index_corpus(&corpus, false).unwrap();
        let q = &corpus.queries()[(seed % 3) as usize];
        let query = Query::from_named(&index, &q.terms);
        let policy = PolicyKind::ALL[policy_idx];
        let opts = EvalOptions {
            params: FilterParams::OFF,
            top_n: 10,
            baf_force_first_page: false,
        };
        let mut b1 = index.make_buffer(capacity, policy).unwrap();
        let df = evaluate(Algorithm::Df, &index, &mut b1, &query, opts).unwrap();
        let mut b2 = index.make_buffer(capacity, policy).unwrap();
        let baf = evaluate(Algorithm::Baf, &index, &mut b2, &query, opts).unwrap();
        prop_assert_eq!(df.hits.len(), baf.hits.len());
        for (a, b) in df.hits.iter().zip(&baf.hits) {
            prop_assert_eq!(a.doc, b.doc);
            prop_assert!((a.score - b.score).abs() < 1e-9);
        }
        // Both process every posting of every term.
        prop_assert_eq!(df.stats.entries_processed, baf.stats.entries_processed);
    }
}
