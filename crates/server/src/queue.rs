//! A bounded MPMC job queue with explicit backpressure.
//!
//! Its one consumer is the scenario server's worker pool, behind
//! [`crate::ScenarioServer`]'s admission; a fabric shard's `Assign`
//! frames reach it through the same `submit`.
//!
//! Producers never block: [`BoundedQueue::try_push`] fails fast when the
//! queue is at capacity, which the server surfaces as
//! [`crate::SubmitOutcome::QueueFull`] — callers decide whether to retry,
//! shed load, or route elsewhere. Consumers block on [`BoundedQueue::pop`]
//! until an item arrives or the queue is closed and drained.

use crate::lock;
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, PoisonError};

struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A mutex/condvar bounded FIFO. Fairness follows the platform's condvar
/// wake order; items themselves are strictly FIFO.
pub struct BoundedQueue<T> {
    inner: Mutex<Inner<T>>,
    not_empty: Condvar,
    capacity: usize,
}

/// Why a push was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushError {
    /// The queue is at capacity — backpressure.
    Full,
    /// The queue has been closed; no new work is accepted.
    Closed,
}

impl<T> BoundedQueue<T> {
    pub fn new(capacity: usize) -> BoundedQueue<T> {
        BoundedQueue {
            inner: Mutex::new(Inner {
                items: VecDeque::new(),
                closed: false,
            }),
            not_empty: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Non-blocking push; returns the item on refusal so the caller can
    /// report or retry it.
    pub fn try_push(&self, item: T) -> Result<(), (T, PushError)> {
        let mut inner = lock(&self.inner);
        if inner.closed {
            return Err((item, PushError::Closed));
        }
        if inner.items.len() >= self.capacity {
            return Err((item, PushError::Full));
        }
        inner.items.push_back(item);
        drop(inner);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Blocking pop; `None` once the queue is closed *and* drained.
    pub fn pop(&self) -> Option<T> {
        let mut inner = lock(&self.inner);
        loop {
            if let Some(item) = inner.items.pop_front() {
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            inner = self
                .not_empty
                .wait(inner)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Close the queue: producers start failing, consumers drain what is
    /// left and then observe `None`.
    pub fn close(&self) {
        lock(&self.inner).closed = true;
        self.not_empty.notify_all();
    }

    /// Current depth (racy, for observability only).
    pub fn len(&self) -> usize {
        lock(&self.inner).items.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn backpressure_at_capacity() {
        let q: BoundedQueue<u32> = BoundedQueue::new(2);
        assert!(q.try_push(1).is_ok());
        assert!(q.try_push(2).is_ok());
        match q.try_push(3) {
            Err((3, PushError::Full)) => {}
            other => panic!("expected Full, got {other:?}"),
        }
        assert_eq!(q.pop(), Some(1));
        assert!(q.try_push(3).is_ok());
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn close_drains_then_ends() {
        let q: BoundedQueue<u32> = BoundedQueue::new(8);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        q.close();
        assert!(matches!(q.try_push(3), Err((3, PushError::Closed))));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn pop_blocks_until_item_or_close() {
        let q: Arc<BoundedQueue<u32>> = Arc::new(BoundedQueue::new(4));
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let mut got = Vec::new();
                while let Some(v) = q.pop() {
                    got.push(v);
                }
                got
            })
        };
        for v in 0..10u32 {
            // Capacity 4: spin until accepted, so backpressure is
            // exercised against a live consumer.
            let mut item = v;
            loop {
                match q.try_push(item) {
                    Ok(()) => break,
                    Err((back, PushError::Full)) => {
                        item = back;
                        std::thread::yield_now();
                    }
                    Err((_, PushError::Closed)) => panic!("queue closed early"),
                }
            }
        }
        q.close();
        let got = consumer.join().unwrap();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
    }
}
