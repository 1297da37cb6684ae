//! Lock acquisition that ignores poisoning.
//!
//! A `std::sync` lock whose holder panicked is *poisoned*: every later
//! `lock`, `read`, `write` or `wait` returns an error that still carries
//! the guard. Every lock in this workspace guards state that is whole
//! between statements (counters, queues, maps updated in one call), and
//! the session server must keep serving after a session panics
//! mid-turn (DESIGN.md § 8), so the helpers here take the guard out of
//! the error and carry on. Use them instead of `.lock().unwrap()`.

use std::sync::{
    Condvar, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard,
    TryLockError,
};

/// Locks `mutex`, blocking until it is free; a poisoned lock is taken
/// all the same.
pub fn lock<T: ?Sized>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Locks `mutex` if it is free right now; `None` only if another
/// thread holds it.
pub fn try_lock<T: ?Sized>(mutex: &Mutex<T>) -> Option<MutexGuard<'_, T>> {
    match mutex.try_lock() {
        Ok(guard) => Some(guard),
        Err(TryLockError::Poisoned(poisoned)) => Some(poisoned.into_inner()),
        Err(TryLockError::WouldBlock) => None,
    }
}

/// Takes a shared guard on `lock`, poisoned or not.
pub fn read<T: ?Sized>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(PoisonError::into_inner)
}

/// Takes the exclusive guard on `lock`, poisoned or not.
pub fn write<T: ?Sized>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(PoisonError::into_inner)
}

/// Parks on `condvar`, releasing `guard` until woken, and returns the
/// guard taken again, poisoned or not.
pub fn wait<'a, T>(condvar: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    condvar.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn a_panicked_holder_leaves_a_mutex_lockable_and_waitable() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let mut ready = lock(&pair.0);
        // The holder can take the lock only once this thread parks in
        // `wait`; it sets the flag and panics with the lock still held,
        // so the wait that sees the flag wakes on a poisoned lock.
        let holder = {
            let pair = Arc::clone(&pair);
            thread::spawn(move || {
                let mut flag = lock(&pair.0);
                *flag = true;
                pair.1.notify_all();
                panic!("deliberate panic while holding the lock");
            })
        };
        while !*ready {
            ready = wait(&pair.1, ready);
        }
        drop(ready);
        assert!(holder.join().is_err());
        assert!(pair.0.is_poisoned());
        assert!(*lock(&pair.0));
        let guard = try_lock(&pair.0).expect("poisoned but free");
        assert!(try_lock(&pair.0).is_none(), "held by this thread");
        drop(guard);
    }

    #[test]
    fn a_panicked_writer_leaves_an_rwlock_readable_and_writable() {
        let cell = Arc::new(RwLock::new(vec![1]));
        let writer = {
            let cell = Arc::clone(&cell);
            thread::spawn(move || {
                write(&cell).push(2);
                let _guard = write(&cell);
                panic!("deliberate panic while holding the write lock");
            })
        };
        assert!(writer.join().is_err());
        assert!(cell.is_poisoned());
        write(&cell).push(3);
        assert_eq!(*read(&cell), [1, 2, 3]);
    }
}
