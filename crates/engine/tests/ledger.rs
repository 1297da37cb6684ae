//! The per-layer ledger, held exact. Under the tick clock every clock
//! read is one µs and every wait passes on the clock as it was charged,
//! so each layer of each row is known in advance from the query's own
//! counters: one tick of policy, a tick of selection a round, a tick of
//! pool a fetch, the store's waits to the µs, and two ticks plus one a
//! scanned list of scoring.
//! On the real clock the layers still sum to the wall time.

use ir_core::eval::{RealClock, TickClock};
use ir_core::{Algorithm, RefinementKind, RefinementSequence};
use ir_engine::{
    EngineConfig, LayerCost, PoolLayout, QueryCost, Schedule, SearchEngine, ServerReport,
    SessionServer, SessionSpec,
};
use ir_index::{save_page_file, BuildOptions, IndexBuilder, InvertedIndex};
use ir_storage::{
    BufferManager, FileMode, FilePageStore, IoConfig, IoScheduler, LatencyModel, PageStore,
    PolicyKind,
};
use ir_types::{ClockKind, FilterParams, IndexParams, TermId};
use std::sync::Arc;

const TICK: TickClock = TickClock { tick_ns: 1_000 };

/// The benchmark's device: a seek of 400 µs, a transfer of 100.
const DEVICE: LatencyModel = LatencyModel {
    seek_us: 400,
    transfer_us: 100,
};

/// Lists of up to 40 pages of two entries, overlapping in every
/// document mix.
fn index() -> InvertedIndex {
    let mut b = IndexBuilder::new();
    for d in 0..80u32 {
        let mut doc = vec![["red", "green", "blue"][(d % 3) as usize]];
        for (name, every) in [("alpha", 2), ("beta", 3), ("gamma", 4), ("delta", 5)] {
            if d % every == 0 {
                doc.extend(std::iter::repeat_n(name, 1 + (d % 4) as usize));
            }
        }
        if d % 7 == 0 {
            doc.extend(["epsilon", "epsilon"]);
        }
        b.add_document(doc);
    }
    b.build(BuildOptions {
        params: IndexParams::with_page_size(2),
        ..BuildOptions::default()
    })
    .unwrap()
}

const NAMES: [&str; 6] = ["epsilon", "alpha", "red", "delta", "beta", "gamma"];

/// Step `k` queries the first `k + 2` names.
fn steps(idx: &InvertedIndex, names: &[&str]) -> Vec<Vec<(TermId, u32)>> {
    let t = |n: &str| idx.lexicon().lookup(n).unwrap();
    (2..=names.len())
        .map(|k| names[..k].iter().map(|&n| (t(n), 1)).collect())
        .collect()
}

/// What the tick clock makes of a query: `rounds` selection rounds,
/// `scanned` scanned lists (one fetch each) and the store waits it was
/// charged.
fn expected(rounds: u64, scanned: u64, waits: (u64, u64)) -> LayerCost {
    LayerCost {
        selection_us: rounds,
        policy_us: 1,
        pool_us: scanned,
        demand_wait_us: waits.0,
        staged_wait_us: waits.1,
        lock_wait_us: 0,
        scoring_us: 2 + scanned,
    }
}

/// Holds one row to its exact tick-clock split. Every algorithm runs
/// one selection round a query term, a skipped term's too.
fn assert_exact(row: &QueryCost, algorithm: Algorithm, terms: u64, scanned: u64) {
    let waits = (row.layers.demand_wait_us, row.layers.staged_wait_us);
    assert_eq!(waits.0 + waits.1, row.io_wait_us, "{row:?}");
    assert_eq!(
        row.layers,
        expected(terms, scanned, waits),
        "{algorithm}: {row:?}"
    );
    assert_eq!(row.layers.total_us(), row.eval_us, "{row:?}");
}

/// DF/LRU and BAF/RAP on a pool of a tenth of the lists, through the
/// engine: every row is exact, and the same on a second run. A third
/// DF/LRU run filters hard enough to skip lists, whose rounds tick too.
#[test]
fn the_tick_clock_ledger_is_exact_for_df_lru_and_tight_baf_rap() {
    for (config, skips) in [
        (
            EngineConfig {
                buffer_pages: 8,
                ..EngineConfig::paper_baseline()
            },
            false,
        ),
        (
            EngineConfig {
                buffer_pages: 8,
                ..EngineConfig::default()
            },
            false,
        ),
        (
            EngineConfig {
                buffer_pages: 8,
                params: FilterParams::new(100.0, 100.0),
                ..EngineConfig::paper_baseline()
            },
            true,
        ),
    ] {
        let run = || {
            let mut engine = SearchEngine::new(index(), config).unwrap().with_clock(TICK);
            let queries: Vec<Vec<(String, u32)>> = (2..=NAMES.len())
                .map(|k| NAMES[..k].iter().map(|&n| (n.to_string(), 1)).collect())
                .collect();
            let results: Vec<_> = queries
                .iter()
                .map(|q| engine.search_terms(q).unwrap())
                .collect();
            let rows = engine.take_ledger().entries;
            for (row, r) in rows.iter().zip(&results) {
                let scanned = r.stats.terms_scanned as u64;
                assert_eq!(row.batches, scanned);
                assert_exact(row, config.algorithm, r.trace.len() as u64, scanned);
                assert_eq!(row.io_wait_us, 0, "the simulator charges no wait");
            }
            assert!(results.iter().any(|r| r.stats.disk_reads > 0));
            let skipped = results.iter().any(|r| r.stats.terms_skipped > 0);
            assert_eq!(skipped, skips, "{config:?}");
            rows
        };
        assert_eq!(run(), run(), "{config:?}");
    }
}

/// Rows of one session, in step order.
fn session_rows(report: &ServerReport, session: u32) -> Vec<QueryCost> {
    let mut rows: Vec<QueryCost> = report
        .ledger
        .entries
        .iter()
        .filter(|e| e.session == session)
        .copied()
        .collect();
    rows.sort_by_key(|e| e.step);
    rows
}

fn specs(idx: &InvertedIndex, sessions: &[&[&str]]) -> Vec<SessionSpec> {
    sessions
        .iter()
        .enumerate()
        .map(|(i, names)| {
            let sequence = RefinementSequence {
                kind: RefinementKind::AddOnly,
                source: i,
                steps: steps(idx, names),
            };
            SessionSpec::new(sequence, Algorithm::Baf)
        })
        .collect()
}

/// Holds every row of a round-robin run to its exact split.
fn assert_rows_exact(report: &ServerReport, sessions: usize) {
    for user in 0..sessions {
        let outcome = report.sessions[user].sequence();
        let rows = session_rows(report, user as u32);
        assert_eq!(rows.len(), outcome.steps.len());
        for (row, step) in rows.iter().zip(&outcome.steps) {
            let stats = &step.stats;
            let terms = (stats.terms_scanned + stats.terms_skipped) as u64;
            assert_exact(row, Algorithm::Baf, terms, stats.terms_scanned as u64);
        }
    }
}

/// Two sessions taking turns on one RAP pool, on the calling thread:
/// a row holds its own query only, and every row is exact.
#[test]
fn the_tick_clock_ledger_is_exact_for_two_round_robin_sessions() {
    let idx = index();
    let sessions: [&[&str]; 2] = [&NAMES, &["gamma", "red", "beta", "epsilon", "alpha"]];
    let layout = PoolLayout::Sharded {
        total_frames: 10,
        policy: PolicyKind::Rap,
        shards: 2,
    };
    let server = SessionServer::new(&idx, layout).with_clock(TICK);
    let report = server
        .run(&specs(&idx, &sessions), Schedule::RoundRobin)
        .unwrap();
    assert_eq!(report.ledger.len(), 5 + 4);
    assert_rows_exact(&report, 2);
    let again = server
        .run(&specs(&idx, &sessions), Schedule::RoundRobin)
        .unwrap();
    assert_eq!(again.ledger.entries, report.ledger.entries);
}

/// The page file behind a depth-4 scheduler on the virtual I/O clock:
/// each wait lands in its own layer to the µs, and the rows' waits are
/// the device's.
#[test]
fn the_tick_clock_ledger_is_exact_over_a_qd4_page_file() {
    let idx = index();
    let dir = std::env::temp_dir().join("buffir-ledger-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("qd4-{}.bfpg", std::process::id()));
    save_page_file(&idx, &path).unwrap();
    let sched = Arc::new(IoScheduler::new(
        FilePageStore::open(&path, FileMode::Buffered).unwrap(),
        IoConfig {
            queue_depth: 4,
            model: DEVICE,
            clock: ClockKind::Virtual,
        },
    ));
    let pool = BufferManager::new(Arc::clone(&sched), 8, PolicyKind::Rap).unwrap();
    let server = SessionServer::new(
        &idx,
        PoolLayout::Sharded {
            total_frames: 8,
            policy: PolicyKind::Rap,
            shards: 1,
        },
    )
    .with_clock(TICK);
    let report = server.run_on(&pool, &specs(&idx, &[&NAMES]), Schedule::RoundRobin);
    let _ = std::fs::remove_file(&path);
    assert_rows_exact(&report, 1);
    let total = report.ledger.total();
    assert_eq!(total.io_wait_us, sched.io_wait_us());
    // A plan's first miss stages the rest of the plan, itself
    // included, so at depth 4 every wait is for a staged completion.
    assert_eq!(
        (total.layers.demand_wait_us, total.layers.staged_wait_us),
        (0, sched.io_wait_us())
    );
    assert!(total.io_wait_us > 0);
}

/// Two free-running sessions on one depth-4 device on the virtual
/// clock: each demand read's wait is charged to the session that
/// waited, so the rows' waits add up to the device's, however the
/// sessions interleave. On the real clock every row's layers sum to
/// its wall time.
#[test]
fn free_running_sessions_are_charged_their_own_io_waits() {
    let idx = index();
    let sessions: [&[&str]; 2] = [&NAMES, &["gamma", "red", "beta", "epsilon", "alpha"]];
    for round in 0..4 {
        let sched = Arc::new(IoScheduler::new(
            Arc::clone(idx.disk()),
            IoConfig {
                queue_depth: 4,
                model: DEVICE,
                clock: ClockKind::Virtual,
            },
        ));
        let pool = BufferManager::sharded(Arc::clone(&sched), 10, PolicyKind::Rap, 2).unwrap();
        let layout = PoolLayout::Sharded {
            total_frames: 10,
            policy: PolicyKind::Rap,
            shards: 2,
        };
        let report = SessionServer::new(&idx, layout)
            .with_clock(RealClock::new())
            .run_on(&pool, &specs(&idx, &sessions), Schedule::FreeRunning);
        assert!(report.failed_sessions().is_empty());
        assert_eq!(report.ledger.len(), 5 + 4);
        let waited: u64 = report.ledger.entries.iter().map(|e| e.io_wait_us).sum();
        assert_eq!(waited, sched.io_wait_us(), "round {round}");
        assert!(waited > 0);
        for row in &report.ledger.entries {
            assert_eq!(row.layers.total_us(), row.eval_us, "{row:?}");
        }
    }
}

/// The real clock: on every query the layers sum to the wall time and
/// leave scoring a remainder, over filters on and off.
#[test]
fn real_clock_layers_sum_to_the_wall_time() {
    for params in [FilterParams::PERSIN, FilterParams::OFF] {
        let config = EngineConfig {
            params,
            buffer_pages: 6,
            ..EngineConfig::default()
        };
        let mut engine = SearchEngine::new(index(), config).unwrap();
        for _ in 0..20 {
            for k in 1..=NAMES.len() {
                let q: Vec<(String, u32)> =
                    NAMES[..k].iter().map(|&n| (n.to_string(), 1)).collect();
                engine.search_terms(&q).unwrap();
            }
        }
        for row in &engine.ledger().entries {
            let layers = row.layers;
            assert_eq!(layers.total_us(), row.eval_us, "{row:?}");
            assert!(layers.total_us() - layers.scoring_us <= row.eval_us);
            assert_eq!(layers.lock_wait_us, 0, "{row:?}");
        }
    }
}
