//! The bounded admission queue between connection readers and the worker
//! pool.
//!
//! Admission control lives here: [`Queue::try_push`] never blocks and
//! never grows past the configured depth — a full queue is the caller's
//! signal to shed the request with a typed `unknown` verdict instead of
//! letting latency collapse. Workers block in [`Queue::pop`]; closing the
//! queue wakes them all for shutdown once the backlog is drained.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

use crate::lock;

/// Why [`Queue::try_push`] refused an item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PushError {
    /// The queue is at capacity: shed the request.
    Full,
    /// The queue is closed (the server is draining or stopped).
    Closed,
}

struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A depth-bounded MPMC queue: non-blocking producers, blocking consumers.
pub(crate) struct Queue<T> {
    inner: Mutex<Inner<T>>,
    ready: Condvar,
    capacity: usize,
}

impl<T> Queue<T> {
    pub(crate) fn new(capacity: usize) -> Queue<T> {
        Queue {
            inner: Mutex::new(Inner {
                items: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Admits `item` unless the queue is full or closed. Never blocks —
    /// rejection must be immediate for the shed path to bound latency —
    /// and hands the item back on refusal so the caller can answer it.
    pub(crate) fn try_push(&self, item: T) -> Result<(), (T, PushError)> {
        let mut inner = lock(&self.inner);
        if inner.closed {
            return Err((item, PushError::Closed));
        }
        if inner.items.len() >= self.capacity {
            return Err((item, PushError::Full));
        }
        inner.items.push_back(item);
        obs::metrics()
            .gauge("xsat_serve_queue_depth", &[])
            .set(inner.items.len() as u64);
        drop(inner);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks for the next item; `None` once the queue is closed *and*
    /// drained — workers finish the backlog before exiting.
    pub(crate) fn pop(&self) -> Option<T> {
        let mut inner = lock(&self.inner);
        loop {
            if let Some(item) = inner.items.pop_front() {
                obs::metrics()
                    .gauge("xsat_serve_queue_depth", &[])
                    .set(inner.items.len() as u64);
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            inner = self
                .ready
                .wait(inner)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// The current backlog.
    pub(crate) fn len(&self) -> usize {
        lock(&self.inner).items.len()
    }

    /// The configured depth bound.
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Closes the queue: producers get [`PushError::Closed`], consumers
    /// drain the backlog and then see `None`.
    pub(crate) fn close(&self) {
        lock(&self.inner).closed = true;
        self.ready.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_push_and_fifo_pop() {
        let q: Queue<u32> = Queue::new(2);
        assert_eq!(q.try_push(1), Ok(()));
        assert_eq!(q.try_push(2), Ok(()));
        assert_eq!(q.try_push(3), Err((3, PushError::Full)));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.try_push(3), Ok(()));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(3));
    }

    #[test]
    fn close_drains_backlog_then_ends() {
        let q: Queue<u32> = Queue::new(4);
        q.try_push(7).unwrap();
        q.close();
        assert_eq!(q.try_push(8), Err((8, PushError::Closed)));
        assert_eq!(q.pop(), Some(7));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn close_wakes_blocked_consumers() {
        let q = std::sync::Arc::new(Queue::<u32>::new(1));
        let q2 = q.clone();
        let h = std::thread::spawn(move || q2.pop());
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.close();
        assert_eq!(h.join().unwrap(), None);
    }
}
