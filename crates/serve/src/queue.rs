//! A bounded MPMC queue with adaptive micro-batching.
//!
//! Producers [`push`](BatchQueue::push) single items and get immediate
//! backpressure (`Err`) when the queue is at capacity. Consumers call
//! [`pop_batch_by_key`](BatchQueue::pop_batch_by_key), which blocks
//! until at least one item is available and then *lingers* briefly to
//! let a batch accumulate: it returns as soon as `max_batch` items are
//! queued or the linger window expires, whichever comes first. Under
//! load batches fill instantly (no added latency); when idle a single
//! request pays at most the linger window. The batch is the items with
//! the smallest keys, oldest first among equal keys, so a constant key
//! pops in FIFO order.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Why a [`BatchQueue::push`] was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushError {
    /// The queue is at capacity; retry later (backpressure).
    Full,
    /// The queue was closed; no more items are accepted.
    Closed,
}

#[derive(Debug)]
struct QueueState<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// Bounded MPMC queue with batch-oriented consumption.
#[derive(Debug)]
pub struct BatchQueue<T> {
    state: Mutex<QueueState<T>>,
    changed: Condvar,
    capacity: usize,
}

impl<T> BatchQueue<T> {
    /// A queue holding at most `capacity` items.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be nonzero");
        BatchQueue {
            state: Mutex::new(QueueState {
                items: VecDeque::with_capacity(capacity),
                closed: false,
            }),
            changed: Condvar::new(),
            capacity,
        }
    }

    /// Maximum number of queued items.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current queue depth.
    pub fn len(&self) -> usize {
        self.state.lock().expect("queue poisoned").items.len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enqueues one item, returning it in `Err` when the queue is full
    /// (backpressure) or closed.
    ///
    /// # Errors
    ///
    /// Returns the rejected item together with a [`PushError`].
    pub fn push(&self, item: T) -> Result<(), (T, PushError)> {
        let mut state = self.state.lock().expect("queue poisoned");
        if state.closed {
            return Err((item, PushError::Closed));
        }
        if state.items.len() >= self.capacity {
            return Err((item, PushError::Full));
        }
        state.items.push_back(item);
        drop(state);
        self.changed.notify_one();
        Ok(())
    }

    /// Closes the queue: pending items remain poppable, new pushes fail,
    /// and blocked consumers wake up.
    pub fn close(&self) {
        self.state.lock().expect("queue poisoned").closed = true;
        self.changed.notify_all();
    }

    /// Whether [`close`](Self::close) has been called.
    pub fn is_closed(&self) -> bool {
        self.state.lock().expect("queue poisoned").closed
    }

    /// Pops an adaptive micro-batch of up to `max_batch` items.
    ///
    /// Blocks until at least one item is available, then waits up to
    /// `linger` for the batch to fill. Returns an empty vector only when
    /// the queue is closed *and* drained — the consumer's shutdown
    /// signal.
    ///
    /// The batch is the `max_batch` items with the *smallest* `key`
    /// across the whole queue, returned in key order (ties retire FIFO
    /// — the sort is stable over queue position, so a constant key pops
    /// the oldest items). Unselected items keep their relative order.
    ///
    /// Workers pop with a key of "deadline, earliest first, `None`
    /// last", so near-expiry work is never starved behind a burst of
    /// far-deadline arrivals.
    ///
    /// The scan is `O(n log n)` over the current depth — fine for the
    /// bounded queues this runtime uses (capacity ≤ a few thousand).
    pub fn pop_batch_by_key<K, F>(&self, max_batch: usize, linger: Duration, mut key: F) -> Vec<T>
    where
        K: Ord,
        F: FnMut(&T) -> K,
    {
        let max_batch = max_batch.max(1);
        let state = self.state.lock().expect("queue poisoned");
        let (mut state, take) = self.wait_for_batch(state, max_batch, linger);
        if take == 0 {
            return Vec::new();
        }
        // Rank every queued item; the stable sort makes equal keys
        // retire in queue (FIFO) order.
        let mut ranked: Vec<(K, usize)> = state
            .items
            .iter()
            .enumerate()
            .map(|(i, t)| (key(t), i))
            .collect();
        ranked.sort_by(|a, b| a.0.cmp(&b.0));
        let picked: Vec<usize> = ranked.into_iter().take(take).map(|(_, i)| i).collect();
        // Remove back-to-front so earlier indices stay valid, then
        // deliver in key order.
        let mut by_desc_index: Vec<(usize, usize)> = picked
            .iter()
            .enumerate()
            .map(|(rank, &idx)| (idx, rank))
            .collect();
        by_desc_index.sort_unstable_by_key(|&(idx, _)| std::cmp::Reverse(idx));
        let mut out: Vec<Option<T>> = (0..picked.len()).map(|_| None).collect();
        for (idx, rank) in by_desc_index {
            out[rank] = state.items.remove(idx);
        }
        drop(state);
        self.changed.notify_one();
        out.into_iter()
            .map(|t| t.expect("picked index was removed"))
            .collect()
    }

    /// Blocks until a batch is ready (phase 1: first item; phase 2:
    /// linger for the batch to fill) and returns how many items the
    /// caller should take. Returns 0 only when the queue is closed and
    /// drained — the shutdown signal.
    fn wait_for_batch<'a>(
        &'a self,
        mut state: MutexGuard<'a, QueueState<T>>,
        max_batch: usize,
        linger: Duration,
    ) -> (MutexGuard<'a, QueueState<T>>, usize) {
        loop {
            // Phase 1: wait for the first item (or shutdown).
            while state.items.is_empty() {
                if state.closed {
                    return (state, 0);
                }
                state = self.changed.wait(state).expect("queue poisoned");
            }
            // Phase 2: linger until the batch fills, the window expires,
            // or the queue closes.
            if state.items.len() < max_batch && !linger.is_zero() && !state.closed {
                let deadline = Instant::now() + linger;
                while state.items.len() < max_batch && !state.closed {
                    let now = Instant::now();
                    let Some(remaining) = deadline
                        .checked_duration_since(now)
                        .filter(|d| !d.is_zero())
                    else {
                        break;
                    };
                    let (next, timeout) = self
                        .changed
                        .wait_timeout(state, remaining)
                        .expect("queue poisoned");
                    state = next;
                    if timeout.timed_out() {
                        break;
                    }
                }
            }
            // Another consumer may have drained the queue while this one
            // lingered with the lock released; an empty batch on an open
            // queue must not masquerade as the shutdown signal — go back
            // to waiting instead.
            let take = state.items.len().min(max_batch);
            if take == 0 {
                if state.closed {
                    return (state, 0);
                }
                continue;
            }
            return (state, take);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn push_pop_respects_capacity() {
        let q = BatchQueue::new(2);
        assert_eq!(q.capacity(), 2);
        assert!(q.push(1).is_ok());
        assert!(q.push(2).is_ok());
        let (item, err) = q.push(3).unwrap_err();
        assert_eq!((item, err), (3, PushError::Full));
        assert_eq!(q.len(), 2);
        let batch = q.pop_batch_by_key(10, Duration::ZERO, |_| 0);
        assert_eq!(batch, vec![1, 2]);
        assert!(q.is_empty());
    }

    #[test]
    fn pop_batch_caps_at_max_batch() {
        let q = BatchQueue::new(8);
        for i in 0..6 {
            q.push(i).unwrap();
        }
        assert_eq!(
            q.pop_batch_by_key(4, Duration::ZERO, |_| 0),
            vec![0, 1, 2, 3]
        );
        assert_eq!(q.pop_batch_by_key(4, Duration::ZERO, |_| 0), vec![4, 5]);
    }

    #[test]
    fn pop_batch_by_key_selects_smallest_keys_in_key_order() {
        let q = BatchQueue::new(8);
        for v in [30, 10, 40, 20, 50] {
            q.push(v).unwrap();
        }
        // The three smallest values win regardless of arrival order,
        // and come back sorted by key.
        assert_eq!(
            q.pop_batch_by_key(3, Duration::ZERO, |v| *v),
            vec![10, 20, 30]
        );
        // The survivors keep their relative queue order.
        assert_eq!(q.pop_batch_by_key(8, Duration::ZERO, |_| 0), vec![40, 50]);
    }

    #[test]
    fn pop_batch_by_key_breaks_ties_fifo() {
        let q = BatchQueue::new(8);
        for (id, key) in [(0, 1u8), (1, 0), (2, 1), (3, 0), (4, 1)] {
            q.push((id, key)).unwrap();
        }
        // Equal keys retire in arrival order: both key-0 items first
        // (ids 1 then 3), then the oldest key-1 item (id 0).
        let batch = q.pop_batch_by_key(3, Duration::ZERO, |(_, k)| *k);
        assert_eq!(batch, vec![(1, 0), (3, 0), (0, 1)]);
        assert_eq!(
            q.pop_batch_by_key(8, Duration::ZERO, |_| 0),
            vec![(2, 1), (4, 1)]
        );
    }

    #[test]
    fn pop_batch_by_key_drains_closed_queue() {
        let q = BatchQueue::new(4);
        q.push(9).unwrap();
        q.close();
        assert_eq!(q.pop_batch_by_key(4, Duration::ZERO, |v| *v), vec![9]);
        assert!(q
            .pop_batch_by_key(4, Duration::from_millis(20), |v| *v)
            .is_empty());
    }

    #[test]
    fn closed_queue_rejects_pushes_and_drains() {
        let q = BatchQueue::new(4);
        q.push(7).unwrap();
        q.close();
        assert!(q.is_closed());
        let (_, err) = q.push(8).unwrap_err();
        assert_eq!(err, PushError::Closed);
        // Pending items survive close...
        assert_eq!(
            q.pop_batch_by_key(4, Duration::from_millis(50), |_| 0),
            vec![7]
        );
        // ...and a drained closed queue returns the shutdown signal.
        assert!(q
            .pop_batch_by_key(4, Duration::from_millis(50), |_| 0)
            .is_empty());
    }

    #[test]
    fn linger_lets_batches_accumulate() {
        let q = Arc::new(BatchQueue::new(64));
        let producer = {
            let q = Arc::clone(&q);
            thread::spawn(move || {
                for i in 0..4 {
                    q.push(i).unwrap();
                    thread::sleep(Duration::from_millis(2));
                }
            })
        };
        // A generous linger window should collect everything the
        // producer trickles in.
        let batch = q.pop_batch_by_key(4, Duration::from_millis(500), |_| 0);
        assert_eq!(batch, vec![0, 1, 2, 3]);
        producer.join().unwrap();
    }

    #[test]
    fn lingering_consumer_is_not_fooled_by_theft() {
        // Regression: consumer A wakes on the first item and lingers
        // (releasing the lock); consumer B drains that item meanwhile.
        // A's linger then expires on an empty-but-open queue — it must
        // keep waiting for real work, not return the empty "shutdown"
        // signal.
        let q = Arc::new(BatchQueue::new(8));
        q.push(1).unwrap();
        let a = {
            let q = Arc::clone(&q);
            thread::spawn(move || q.pop_batch_by_key(4, Duration::from_millis(100), |_| 0))
        };
        thread::sleep(Duration::from_millis(20)); // A is lingering
        assert_eq!(q.pop_batch_by_key(4, Duration::ZERO, |_| 0), vec![1]); // B steals
        thread::sleep(Duration::from_millis(20));
        q.push(2).unwrap();
        assert_eq!(a.join().unwrap(), vec![2], "A must outlive the theft");
    }

    #[test]
    fn close_wakes_blocked_consumer() {
        let q = Arc::new(BatchQueue::<u32>::new(4));
        let consumer = {
            let q = Arc::clone(&q);
            thread::spawn(move || q.pop_batch_by_key(4, Duration::from_secs(10), |_| 0))
        };
        thread::sleep(Duration::from_millis(10));
        q.close();
        assert!(consumer.join().unwrap().is_empty());
    }

    #[test]
    fn many_producers_one_consumer_preserves_items() {
        let q = Arc::new(BatchQueue::new(1024));
        let mut producers = Vec::new();
        for p in 0..4 {
            let q = Arc::clone(&q);
            producers.push(thread::spawn(move || {
                for i in 0..50 {
                    while q.push(p * 1000 + i).is_err() {
                        thread::yield_now();
                    }
                }
            }));
        }
        for h in producers {
            h.join().unwrap();
        }
        q.close();
        let mut seen = Vec::new();
        loop {
            let batch = q.pop_batch_by_key(16, Duration::ZERO, |_| 0);
            if batch.is_empty() {
                break;
            }
            seen.extend(batch);
        }
        assert_eq!(seen.len(), 200);
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 200, "no item lost or duplicated");
    }
}
