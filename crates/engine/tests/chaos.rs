//! Chaos suite: the multi-session server under seeded fault injection.
//!
//! Every replacement policy × pool layout combination runs its
//! sessions through a [`FaultStore`] injecting transient read errors,
//! torn pages and (zero-length) latency spikes, with a retry budget
//! that covers the store's consecutive-fault cap. The assertions are
//! the fault-tolerance contract:
//!
//! * recoverable faults are **invisible**: every session completes and
//!   per-session disk reads equal the fault-free run's;
//! * pool invariants hold afterwards (`hits + misses = requests`, no
//!   lost or duplicated frames, `b_t` consistent with occupancy);
//! * a fixed seed makes the whole chaotic run deterministic;
//! * a panicking or retry-exhausted session degrades to
//!   [`SessionOutcome::Failed`] while the rest finish.

use ir_core::{Algorithm, RefinementKind, RefinementSequence};
use ir_engine::{PoolLayout, Schedule, ServerReport, SessionOutcome, SessionServer, SessionSpec};
use ir_index::{BuildOptions, IndexBuilder, InvertedIndex};
use ir_storage::{FaultConfig, FetchPolicy, PolicyKind};
use ir_types::{IndexParams, IrError};

/// A collection where four topic terms overlap in every document mix,
/// so concurrent sessions contend for the same pages.
fn index() -> InvertedIndex {
    let mut b = IndexBuilder::new();
    for d in 0..60u32 {
        let mut doc = vec![["red", "green", "blue"][(d % 3) as usize]];
        if d % 2 == 0 {
            doc.push("alpha");
        }
        if d % 3 == 0 {
            doc.push("beta");
        }
        if d % 4 == 0 {
            doc.push("gamma");
        }
        if d % 5 == 0 {
            doc.push("delta");
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

fn seq(idx: &InvertedIndex, names: &[&str]) -> RefinementSequence {
    let t = |n: &str| idx.lexicon().lookup(n).unwrap();
    let steps = (0..names.len())
        .map(|k| names[..=k].iter().map(|n| (t(n), 1)).collect())
        .collect();
    RefinementSequence {
        kind: RefinementKind::AddOnly,
        source: 0,
        steps,
    }
}

fn specs(idx: &InvertedIndex) -> Vec<SessionSpec> {
    [
        ["alpha", "beta", "gamma"],
        ["beta", "alpha", "delta"],
        ["gamma", "alpha", "epsilon"],
        ["delta", "beta", "alpha"],
    ]
    .iter()
    .map(|names| SessionSpec::new(seq(idx, names), Algorithm::Baf))
    .collect()
}

fn layouts(policy: PolicyKind) -> [PoolLayout; 2] {
    [
        PoolLayout::Sharded {
            total_frames: 12,
            policy,
            shards: 1,
        },
        PoolLayout::Sharded {
            total_frames: 12,
            policy,
            shards: 2,
        },
    ]
}

/// The recoverable chaos configuration every combination runs under:
/// 20% transient failures, 10% torn pages, 10% (zero-length) latency
/// spikes, at most 3 back-to-back faults per page — covered by a
/// 4-retry budget.
fn chaos(seed: u64) -> FaultConfig {
    FaultConfig::chaos(seed)
}

fn per_session_reads(r: &ServerReport) -> Vec<u64> {
    r.sessions
        .iter()
        .map(SessionOutcome::total_disk_reads)
        .collect()
}

fn assert_pool_invariants(r: &ServerReport, label: &str) {
    let s = r.pool_stats;
    assert_eq!(s.hits + s.misses, s.requests, "{label}: request split");
    assert!(
        r.final_occupancy <= r.total_frames,
        "{label}: pool over capacity"
    );
    assert_eq!(
        r.resident_term_pages, r.final_occupancy as u64,
        "{label}: b_t disagrees with occupancy (lost or duplicated frame)"
    );
}

#[test]
fn recoverable_chaos_is_invisible_for_every_policy_and_layout() {
    let idx = index();
    for policy in PolicyKind::ALL {
        for layout in layouts(policy) {
            let label = format!("{policy} / {layout:?}");
            let clean = SessionServer::new(&idx, layout)
                .run(&specs(&idx), Schedule::RoundRobin)
                .unwrap();
            let faulty = SessionServer::new(&idx, layout)
                .with_faults(chaos(0xc4a05))
                .with_fetch_policy(FetchPolicy::retries(4))
                .run(&specs(&idx), Schedule::RoundRobin)
                .unwrap();
            for (i, s) in faulty.sessions.iter().enumerate() {
                assert!(
                    !s.is_failed(),
                    "{label}: session {i} failed under recoverable faults: {:?}",
                    s.error()
                );
            }
            assert_pool_invariants(&faulty, &label);
            assert_eq!(
                per_session_reads(&clean),
                per_session_reads(&faulty),
                "{label}: recovered faults must not change the paper's metric"
            );
            assert_eq!(
                clean.pool_stats.misses, faulty.pool_stats.misses,
                "{label}: pool miss counts must match"
            );
            assert!(
                faulty.fault_stats.total_faults() > 0,
                "{label}: this seed must inject faults"
            );
            assert!(faulty.retries > 0, "{label}: faults must exercise retries");
            assert_eq!(faulty.gave_up, 0, "{label}: budget must absorb the cap");
        }
    }
}

#[test]
fn a_fixed_seed_makes_the_chaotic_run_deterministic() {
    let idx = index();
    for policy in PolicyKind::ALL {
        for layout in layouts(policy) {
            let label = format!("{policy} / {layout:?}");
            let run = || {
                SessionServer::new(&idx, layout)
                    .with_faults(chaos(7))
                    .with_fetch_policy(FetchPolicy::retries(4))
                    .run(&specs(&idx), Schedule::RoundRobin)
                    .unwrap()
            };
            let a = run();
            let b = run();
            assert_eq!(
                per_session_reads(&a),
                per_session_reads(&b),
                "{label}: reads"
            );
            assert_eq!(a.retries, b.retries, "{label}: retries");
            assert_eq!(a.gave_up, b.gave_up, "{label}: gave_up");
            assert_eq!(a.torn_pages, b.torn_pages, "{label}: torn");
            assert_eq!(a.fault_stats, b.fault_stats, "{label}: fault stream");
        }
    }
}

#[test]
fn a_panicking_session_under_chaos_leaves_the_others_standing() {
    let idx = index();
    let mut chaotic = specs(&idx);
    chaotic[0].chaos_panic_at = Some(0);
    let report = SessionServer::new(
        &idx,
        PoolLayout::Sharded {
            total_frames: 12,
            policy: PolicyKind::Rap,
            shards: 1,
        },
    )
    .with_faults(chaos(41))
    .with_fetch_policy(FetchPolicy::retries(4))
    .run(&chaotic, Schedule::RoundRobin)
    .unwrap();
    assert!(report.sessions[0].is_failed());
    assert!(matches!(
        report.sessions[0].error(),
        Some(IrError::SessionPanicked(_))
    ));
    assert!(report.sessions[0].sequence().steps.is_empty());
    for (i, s) in report.sessions.iter().enumerate().skip(1) {
        assert!(!s.is_failed(), "session {i}: {:?}", s.error());
        assert_eq!(s.sequence().steps.len(), 3, "session {i} must finish");
    }
    assert_pool_invariants(&report, "panicking session");
}

#[test]
fn an_exhausted_retry_budget_fails_sessions_not_the_server() {
    let idx = index();
    // Every read fails and the cap never forces a delivery: no retry
    // budget can save these sessions. They must degrade individually.
    let report = SessionServer::new(
        &idx,
        PoolLayout::Sharded {
            total_frames: 12,
            policy: PolicyKind::Lru,
            shards: 1,
        },
    )
    .with_faults(FaultConfig {
        seed: 3,
        transient_rate: 1.0,
        max_consecutive_faults: 0,
        ..FaultConfig::DISABLED
    })
    .with_fetch_policy(FetchPolicy::retries(2))
    .run(&specs(&idx), Schedule::RoundRobin)
    .unwrap();
    assert_eq!(report.sessions.len(), 4);
    for (i, s) in report.sessions.iter().enumerate() {
        assert!(s.is_failed(), "session {i} cannot have completed");
        assert!(
            s.error().is_some_and(IrError::is_transient),
            "session {i} must fail with the transient error it gave up on"
        );
    }
    assert!(report.gave_up > 0, "exhausted fetches must be counted");
    // An abandoned fetch counts as a request without a completed
    // hit/miss ("only the delivered read is a completed miss"), so the
    // exact request split does not apply here — but the structural
    // invariants still must.
    let s = report.pool_stats;
    assert!(
        s.hits + s.misses <= s.requests,
        "exhausted budget: request split"
    );
    assert!(
        report.final_occupancy <= report.total_frames,
        "exhausted budget: pool over capacity"
    );
    assert_eq!(
        report.resident_term_pages, report.final_occupancy as u64,
        "exhausted budget: b_t disagrees with occupancy"
    );
}
