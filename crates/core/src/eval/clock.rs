//! The evaluators' per-layer ledger: a clock read at layer boundaries
//! only, and where the time between two reads went.
//!
//! An evaluator under clock `C` splits its time into term selection,
//! the replacement policy's `begin_query`, the pool's fetches, the
//! store's waits (demand reads apart from staged completions) and
//! shard-lock waits; scoring is what the caller's wall time leaves. It
//! reads the clock once per boundary it crosses: twice a query, once a
//! selection round, twice a scanned list (after the fetch and after the
//! scoring), and never per page or posting. Waits come from the store's
//! and the pool's own accounting ([`ir_storage::thread_waits`]), which
//! charge each wait to the thread that paid it.
//!
//! [`NoClock`] reads nothing and keeps no ledger: it is what
//! [`evaluate`](super::evaluate) runs under. [`RealClock`] is wall
//! time. [`TickClock`] is the test clock under which the ledger is
//! exact.

use ir_storage::{thread_waits, ThreadWaits};
use std::cell::Cell;
use std::time::Instant;

/// A time source for the ledger.
pub trait Clock {
    /// Whether the clock reads anything. An evaluator under a clock
    /// that does not keeps no ledger: it reads neither the clock nor the
    /// wait tallies, and every layer stays zero.
    const TIMED: bool = true;

    /// The calling thread's reading, ns.
    fn now_ns(&self) -> u64;
}

/// No clock: the evaluation reads nothing and its layers stay zero.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoClock;

impl Clock for NoClock {
    const TIMED: bool = false;

    #[inline]
    fn now_ns(&self) -> u64 {
        0
    }
}

/// Wall time: ns since the clock was made.
#[derive(Clone, Copy, Debug)]
pub struct RealClock {
    epoch: Instant,
}

impl RealClock {
    /// A clock that reads 0 now.
    pub fn new() -> Self {
        RealClock {
            epoch: Instant::now(),
        }
    }
}

impl Default for RealClock {
    fn default() -> Self {
        RealClock::new()
    }
}

impl Clock for RealClock {
    #[inline]
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

thread_local! {
    /// Reads of a [`TickClock`] on this thread.
    static TICKS: Cell<u64> = const { Cell::new(0) };
}

/// The test clock: every read advances the calling thread's reading by
/// `tick_ns`, and the waits charged to the thread pass on it as they
/// would on a wall clock that blocked through them — so a layer's time
/// is its number of boundaries times the tick, plus the waits inside
/// it, exactly. Each thread counts its own reads, so a run of several
/// sessions is exact too.
#[derive(Clone, Copy, Debug)]
pub struct TickClock {
    /// How far one read advances the reading, ns.
    pub tick_ns: u64,
}

impl Clock for TickClock {
    fn now_ns(&self) -> u64 {
        let ticks = TICKS.with(|t| {
            t.set(t.get() + 1);
            t.get()
        });
        let waits = thread_waits();
        ticks * self.tick_ns + (waits.demand_us + waits.staged_us) * 1_000 + waits.lock_ns
    }
}

/// Where one evaluation's time went, ns on the clock it ran under; all
/// zero under [`NoClock`]. The layers tile part of the evaluation's
/// wall time, which is the caller's to take: what they leave of it is
/// scoring (the postings, the ranking, the bookkeeping around them).
///
/// A wait is charged to its own layer at most for the time the clock
/// saw pass around it: a device on the virtual clock takes no wall
/// time, so under [`RealClock`] its waits show in
/// [`io_wait_us`](Self::io_wait_us) only.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Layers {
    /// Term selection: BAF's rounds (`b_t` inquiries, conversion-table
    /// lookups, threshold refreshes); DF's `idf` order and conversion
    /// lookups.
    pub selection_ns: u64,
    /// The replacement policy's `begin_query`.
    pub policy_ns: u64,
    /// The pool's fetches less their waits: frame lookups, admission,
    /// eviction, and the store's own reads (staging ones included).
    pub pool_ns: u64,
    /// Waits for demand reads the device served.
    pub demand_wait_ns: u64,
    /// Waits for completions a submission staged.
    pub staged_wait_ns: u64,
    /// Waits for shard locks another session held.
    pub lock_wait_ns: u64,
    /// µs the store's latency model charged this evaluation's thread,
    /// demand and staged, whether or not the clock could see them.
    pub io_wait_us: u64,
}

/// The layer a [`Stopwatch::lap`] closes.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Layer {
    Selection,
    Policy,
    Pool,
    /// Not kept: scoring is the remainder.
    Scoring,
}

/// An evaluation's ledger in the making: the last boundary's reading
/// and wait tallies, and the layers so far.
#[derive(Debug)]
pub(crate) struct Stopwatch<'c, C: Clock> {
    clock: &'c C,
    last_ns: u64,
    waits: ThreadWaits,
    layers: Layers,
}

impl<'c, C: Clock> Stopwatch<'c, C> {
    /// Starts the ledger: one clock read.
    #[inline]
    pub(crate) fn start(clock: &'c C) -> Self {
        let (last_ns, waits) = if C::TIMED {
            (clock.now_ns(), thread_waits())
        } else {
            (0, ThreadWaits::default())
        };
        Stopwatch {
            clock,
            last_ns,
            waits,
            layers: Layers::default(),
        }
    }

    /// Closes the interval since the last boundary, with one clock
    /// read: the waits charged to the thread inside it go to their own
    /// layers, each at most what is left of the interval, and the rest
    /// to `layer`.
    #[inline]
    pub(crate) fn lap(&mut self, layer: Layer) {
        if !C::TIMED {
            return;
        }
        let now = self.clock.now_ns();
        let waits = thread_waits();
        let waited = waits.since(&self.waits);
        let mut left = now.saturating_sub(self.last_ns);
        let mut take = |ns: u64| {
            let taken = ns.min(left);
            left -= taken;
            taken
        };
        let layers = &mut self.layers;
        layers.lock_wait_ns += take(waited.lock_ns);
        layers.demand_wait_ns += take(waited.demand_us * 1_000);
        layers.staged_wait_ns += take(waited.staged_us * 1_000);
        layers.io_wait_us += waited.demand_us + waited.staged_us;
        match layer {
            Layer::Selection => layers.selection_ns += left,
            Layer::Policy => layers.policy_ns += left,
            Layer::Pool => layers.pool_ns += left,
            Layer::Scoring => {}
        }
        self.last_ns = now;
        self.waits = waits;
    }

    /// The layers so far.
    pub(crate) fn layers(&self) -> Layers {
        self.layers
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_clock_keeps_no_ledger() {
        let mut watch = Stopwatch::start(&NoClock);
        watch.lap(Layer::Pool);
        watch.lap(Layer::Selection);
        assert_eq!(watch.layers(), Layers::default());
    }

    #[test]
    fn each_lap_charges_one_tick_to_its_layer() {
        let clock = TickClock { tick_ns: 1_000 };
        let mut watch = Stopwatch::start(&clock);
        watch.lap(Layer::Policy);
        watch.lap(Layer::Selection);
        watch.lap(Layer::Pool);
        watch.lap(Layer::Scoring);
        watch.lap(Layer::Pool);
        let expected = Layers {
            policy_ns: 1_000,
            selection_ns: 1_000,
            pool_ns: 2_000,
            ..Layers::default()
        };
        assert_eq!(watch.layers(), expected, "the scoring lap goes to no layer");
    }

    #[test]
    fn real_clock_laps_fit_inside_the_elapsed_time() {
        let clock = RealClock::new();
        let mut watch = Stopwatch::start(&clock);
        for _ in 0..100 {
            watch.lap(Layer::Pool);
        }
        assert!(watch.layers().pool_ns <= clock.now_ns());
    }
}
