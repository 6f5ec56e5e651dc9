//! Offline stand-in for the `crossbeam` items this repository uses, over the
//! standard library.
//!
//! `channel` re-exports `std::sync::mpsc` under crossbeam's names: the repo
//! matches `recv_timeout` errors against `std::sync::mpsc::RecvTimeoutError`,
//! so the error types must be std's.

/// Multi-producer channels (`std::sync::mpsc` under crossbeam's names).
pub mod channel {
    pub use std::sync::mpsc::{
        channel as unbounded, Receiver, RecvError, RecvTimeoutError, SendError, Sender,
        TryRecvError,
    };
}

/// Concurrent queues.
pub mod queue {
    use std::collections::VecDeque;
    use std::sync::Mutex;

    /// An unbounded multi-producer multi-consumer FIFO queue.
    #[derive(Debug, Default)]
    pub struct SegQueue<T>(Mutex<VecDeque<T>>);

    impl<T> SegQueue<T> {
        /// An empty queue.
        pub const fn new() -> Self {
            SegQueue(Mutex::new(VecDeque::new()))
        }

        fn inner(&self) -> std::sync::MutexGuard<'_, VecDeque<T>> {
            self.0.lock().unwrap_or_else(|e| e.into_inner())
        }

        /// Append at the back.
        pub fn push(&self, value: T) {
            self.inner().push_back(value);
        }

        /// Remove from the front.
        pub fn pop(&self) -> Option<T> {
            self.inner().pop_front()
        }

        /// Elements queued right now.
        pub fn len(&self) -> usize {
            self.inner().len()
        }

        /// Whether the queue is empty right now.
        pub fn is_empty(&self) -> bool {
            self.inner().is_empty()
        }
    }
}

/// Scoped threads with crossbeam's signatures over `std::thread::scope`.
pub mod thread {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::thread::ScopedJoinHandle;

    /// Handle for spawning threads that may borrow from the enclosing scope.
    pub struct Scope<'scope, 'env: 'scope>(&'scope std::thread::Scope<'scope, 'env>);

    impl<'scope, 'env> Scope<'scope, 'env> {
        /// Spawn a scoped thread; the closure receives the scope, as in
        /// crossbeam.
        pub fn spawn<F, T>(&self, f: F) -> ScopedJoinHandle<'scope, T>
        where
            F: FnOnce(&Scope<'scope, 'env>) -> T + Send + 'scope,
            T: Send + 'scope,
        {
            let inner = self.0;
            inner.spawn(move || f(&Scope(inner)))
        }
    }

    /// Run `f`, join every thread it spawned, and return `Err` with the panic
    /// payload if any of them (or `f`) panicked.
    pub fn scope<'env, F, R>(f: F) -> std::thread::Result<R>
    where
        F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
    {
        catch_unwind(AssertUnwindSafe(|| std::thread::scope(|s| f(&Scope(s)))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn channel_delivers_in_order() {
        let (tx, rx) = channel::unbounded();
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(rx.try_iter().collect::<Vec<_>>(), vec![1, 2]);
        drop(tx);
        assert!(rx.recv().is_err());
    }

    #[test]
    fn seg_queue_is_fifo() {
        let q = queue::SegQueue::new();
        q.push(1);
        q.push(2);
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert!(q.is_empty());
    }

    #[test]
    fn scope_joins_and_reports_panics() {
        let n = AtomicUsize::new(0);
        thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|_| n.fetch_add(1, Ordering::SeqCst));
            }
        })
        .unwrap();
        assert_eq!(n.load(Ordering::SeqCst), 4);
        assert!(thread::scope(|s| {
            s.spawn(|_| panic!("boom"));
        })
        .is_err());
    }
}
