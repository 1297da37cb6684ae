//! The experiments' per-layer ledger: every query an experiment
//! evaluates is timed on the real clock and its row kept here, and
//! [`ExpContext::run`](crate::exp::ExpContext::run) prints each
//! experiment's µs per query by layer. The counts an experiment writes
//! are the same under any clock, so no golden depends on it.

use ir_core::eval::{evaluate_on, Clock, EvalOptions, RealClock};
use ir_core::{Algorithm, Query, QueryResult};
use ir_engine::{query_cost, CostLedger};
use ir_index::InvertedIndex;
use ir_storage::QueryBuffer;
use ir_types::IrResult;
use std::sync::Mutex;

/// Rows of the queries evaluated since the last [`drain_line`](Ledger::drain_line).
#[derive(Debug, Default)]
pub struct Ledger {
    clock: RealClock,
    rows: Mutex<CostLedger>,
}

impl Ledger {
    /// An empty ledger on a fresh real clock.
    pub fn new() -> Self {
        Ledger::default()
    }

    /// [`evaluate`](ir_core::eval::evaluate) on the real clock, keeping
    /// the query's row.
    pub fn evaluate<B: QueryBuffer>(
        &self,
        algorithm: Algorithm,
        index: &InvertedIndex,
        buffer: &mut B,
        query: &Query,
        options: EvalOptions,
    ) -> IrResult<QueryResult> {
        let started = self.clock.now_ns();
        let result = evaluate_on(algorithm, index, buffer, query, options, &self.clock)?;
        let eval_ns = self.clock.now_ns() - started;
        self.rows.lock().expect("ledger lock").record(query_cost(
            0,
            0,
            &result.stats,
            &result.layers,
            eval_ns,
        ));
        Ok(result)
    }

    /// Keeps the rows of a server run.
    pub fn absorb(&self, rows: &CostLedger) {
        let mut kept = self.rows.lock().expect("ledger lock");
        kept.entries.extend_from_slice(&rows.entries);
    }

    /// Drains the rows kept so far and renders their µs per query by
    /// layer; `None` when no query was evaluated.
    pub fn drain_line(&self) -> Option<String> {
        let rows = std::mem::take(&mut *self.rows.lock().expect("ledger lock"));
        let total = rows.total();
        if total.queries == 0 {
            return None;
        }
        let per_query = |us: u64| us as f64 / total.queries as f64;
        let layers: Vec<String> = total
            .layers
            .named()
            .iter()
            .map(|&(name, us)| format!("{name} {:.2}", per_query(us)))
            .collect();
        Some(format!(
            "[ledger: {} queries, µs per query: {} = {:.2}]",
            total.queries,
            layers.join(", "),
            per_query(total.eval_us)
        ))
    }
}
