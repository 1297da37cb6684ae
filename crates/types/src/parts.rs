//! Set-up work split into contiguous parts, one per core.
//!
//! Corpus generation, the index build and its page records run over
//! contiguous ranges of documents or terms (DESIGN.md § 16). Each part
//! writes only into its own slice of buffers the calling thread
//! allocated, sized up front, so the output is the same to the byte for
//! any part count. A worker thread allocates nothing: glibc keeps what
//! each thread's malloc arena frees, and a second arena costs resident
//! memory for the rest of the run.

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// One part per core the process may use (1 where that is unknown).
pub fn available() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// An empty buffer with room for at least `len` items, for scratch that
/// set-up frees before it ends. Its capacity is at least 32 MiB, which
/// glibc always maps on its own and unmaps on free (32 MiB caps its
/// dynamic mmap threshold), so the scratch leaves no hole in the heap
/// for the build's later large buffers to fit around; only the pages
/// written become resident.
pub fn scratch<T>(len: usize) -> Vec<T> {
    const MAPPED: usize = 32 << 20;
    Vec::with_capacity(len.max(MAPPED / std::mem::size_of::<T>().max(1)))
}

/// The `parts + 1` bounds that cut the items `0..n` into `parts`
/// contiguous ranges of about equal weight, where `before(i)` is the
/// total weight of the items before `i` (nondecreasing, 0 at 0): part
/// `k` is `bounds[k]..bounds[k + 1]`. A part can be empty (more parts
/// than items, or one heavy item).
///
/// # Panics
/// Panics if `parts` is zero.
pub fn split(n: usize, parts: usize, before: impl Fn(usize) -> u64) -> Vec<usize> {
    assert!(parts > 0, "at least one part");
    let total = before(n);
    (0..=parts)
        .map(|k| {
            if k == parts {
                return n;
            }
            // The first item whose weight before it reaches `k / parts`
            // of the total.
            let target = total * k as u64 / parts as u64;
            let (mut lo, mut hi) = (0, n);
            while lo < hi {
                let mid = (lo + hi) / 2;
                if before(mid) < target {
                    lo = mid + 1;
                } else {
                    hi = mid;
                }
            }
            lo
        })
        .collect()
}

/// Cuts `slice` into consecutive pieces at the offsets `bounds` (the
/// first 0, the last `slice.len()`, nondecreasing): piece `k` is
/// `slice[bounds[k]..bounds[k + 1]]`.
///
/// # Panics
/// Panics if the bounds do not tile `slice`.
pub fn carve<T>(mut slice: &mut [T], bounds: impl IntoIterator<Item = usize>) -> Vec<&mut [T]> {
    let mut bounds = bounds.into_iter();
    let mut at = bounds.next().expect("bounds start with 0");
    assert_eq!(at, 0, "bounds start with 0");
    let pieces = bounds
        .map(|end| {
            let (piece, rest) = std::mem::take(&mut slice).split_at_mut(end - at);
            slice = rest;
            at = end;
            piece
        })
        .collect();
    assert!(slice.is_empty(), "bounds end at the slice's end");
    pieces
}

/// Runs `work` on every part and returns the results in part order:
/// the first part on the calling thread, each other on a scoped thread
/// of its own, so one part spawns nothing. A worker's panic resumes on
/// the calling thread.
///
/// The threads meet before any part starts (`Start`): a thread the
/// kernel wakes goes to an idle core, while one it only forks starts on
/// its parent's, and a kernel that does not balance load (a cpuset with
/// `sched_load_balance` 0) leaves it there.
pub fn run<T: Send, R: Send>(parts: Vec<T>, work: impl Fn(T) -> R + Sync) -> Vec<R> {
    let work = &work;
    let mut parts = parts.into_iter();
    let Some(first) = parts.next() else {
        return Vec::new();
    };
    let start = Start::default();
    std::thread::scope(|s| {
        let release = Release(&start);
        let start = &start;
        let workers: Vec<_> = parts
            .map(|part| {
                s.spawn(move || {
                    start.arrive();
                    work(part)
                })
            })
            .collect();
        start.release_when(workers.len());
        drop(release);
        let mut results = Vec::with_capacity(workers.len() + 1);
        results.push(work(first));
        for worker in workers {
            results.push(
                worker
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic)),
            );
        }
        results
    })
}

/// Where the workers of [`run`] wait until all have arrived and the
/// calling thread lets them go: how many arrived, and whether they may.
#[derive(Default)]
struct Start {
    state: Mutex<(usize, bool)>,
    changed: Condvar,
}

impl Start {
    fn state(&self) -> MutexGuard<'_, (usize, bool)> {
        // Nothing panics while holding the lock.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A worker arrives and sleeps until it may start.
    fn arrive(&self) {
        let mut state = self.state();
        state.0 += 1;
        self.changed.notify_all();
        while !state.1 {
            state = self
                .changed
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// The calling thread sleeps until `workers` arrived, then lets them go.
    fn release_when(&self, workers: usize) {
        let mut state = self.state();
        while state.0 < workers {
            state = self
                .changed
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        state.1 = true;
        self.changed.notify_all();
    }
}

/// Lets the workers go however the calling thread leaves the spawning
/// loop, so a failed spawn cannot strand the ones already waiting.
struct Release<'a>(&'a Start);

impl Drop for Release<'_> {
    fn drop(&mut self) {
        self.0.state().1 = true;
        self.0.changed.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_balances_weight_and_covers_every_item() {
        // Weights 5, 0, 1, 1, 1, 8.
        let starts = [0u64, 5, 5, 6, 7, 8, 16];
        let split_starts = |parts| split(6, parts, |i| starts[i]);
        assert_eq!(split_starts(1), [0, 6]);
        assert_eq!(split_starts(2), [0, 5, 6]);
        assert_eq!(split_starts(4), [0, 1, 5, 6, 6]);
        // More parts than items: the extra parts are empty.
        let bounds = split(2, 5, |i| i as u64);
        assert_eq!(bounds.len(), 6);
        assert_eq!((bounds[0], bounds[5]), (0, 2));
        assert!(bounds.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(split(0, 3, |_| 0), [0, 0, 0, 0]);
    }

    #[test]
    fn scratch_is_empty_with_room_for_every_item() {
        let v: Vec<u64> = scratch(10);
        assert!(v.is_empty() && v.capacity() >= 10);
        let big: Vec<u8> = scratch(40 << 20);
        assert!(big.capacity() >= 40 << 20);
    }

    #[test]
    fn carve_tiles_the_slice() {
        let mut v = [1, 2, 3, 4, 5];
        let pieces = carve(&mut v, [0, 2, 2, 5]);
        assert_eq!(pieces.len(), 3);
        assert_eq!(*pieces[0], [1, 2]);
        assert!(pieces[1].is_empty());
        assert_eq!(*pieces[2], [3, 4, 5]);
    }

    #[test]
    #[should_panic(expected = "end at the slice's end")]
    fn carve_refuses_bounds_short_of_the_end() {
        let mut v = [1, 2, 3];
        let _ = carve(&mut v, [0, 2]);
    }

    #[test]
    fn run_returns_results_in_part_order() {
        let mut out = [0u32; 4];
        let parts: Vec<(usize, &mut u32)> = out.iter_mut().enumerate().collect();
        let got = run(parts, |(k, slot)| {
            *slot = k as u32 * 10;
            k
        });
        assert_eq!(got, [0, 1, 2, 3]);
        assert_eq!(out, [0, 10, 20, 30]);
        assert!(run(Vec::<u8>::new(), |_| ()).is_empty());
    }

    #[test]
    #[should_panic(expected = "part 2")]
    fn a_workers_panic_reaches_the_caller() {
        run(vec![0, 1, 2], |k| assert!(k != 2, "part {k}"));
    }
}
