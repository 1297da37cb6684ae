//! What each thread waited for below the evaluator: the latency
//! model's waits on demand reads and on staged completions, and the
//! time it spent acquiring contended shard locks.
//!
//! The [`IoScheduler`](crate::IoScheduler) and the
//! [`BufferManager`](crate::BufferManager) charge every wait to
//! the thread that paid it, in a thread-local tally, so a session's
//! share of a device or a pool other sessions drive too is exact: a
//! caller reads [`thread_waits`] before and after a query and takes
//! the difference. Reading the tally reads no clock.

use std::cell::Cell;

/// The waits charged to one thread so far.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ThreadWaits {
    /// µs the latency model made demand reads wait for the device.
    pub demand_us: u64,
    /// µs the latency model made demand reads wait for completions an
    /// earlier submission staged (the part still in flight).
    pub staged_us: u64,
    /// ns spent acquiring shard locks another thread held.
    pub lock_ns: u64,
}

impl ThreadWaits {
    /// The waits charged between `earlier` and `self`.
    pub fn since(&self, earlier: &ThreadWaits) -> ThreadWaits {
        ThreadWaits {
            demand_us: self.demand_us - earlier.demand_us,
            staged_us: self.staged_us - earlier.staged_us,
            lock_ns: self.lock_ns - earlier.lock_ns,
        }
    }
}

thread_local! {
    static WAITS: Cell<ThreadWaits> = const {
        Cell::new(ThreadWaits {
            demand_us: 0,
            staged_us: 0,
            lock_ns: 0,
        })
    };
}

/// The calling thread's tally.
#[inline]
pub fn thread_waits() -> ThreadWaits {
    WAITS.with(Cell::get)
}

fn charge(f: impl FnOnce(&mut ThreadWaits)) {
    WAITS.with(|cell| {
        let mut waits = cell.get();
        f(&mut waits);
        cell.set(waits);
    });
}

/// Charges the calling thread `us` of I/O wait, on a staged completion
/// or on a demand read.
pub(crate) fn charge_io(us: u64, staged: bool) {
    charge(|w| {
        if staged {
            w.staged_us += us;
        } else {
            w.demand_us += us;
        }
    });
}

/// Charges the calling thread `ns` of shard-lock wait.
pub(crate) fn charge_lock(ns: u64) {
    charge(|w| w.lock_ns += ns);
}
