//! The service's one blocking queue: bounded, closable, best-first.
//!
//! Both stages of the service hand work over through a [`BestFirst`]
//! queue, each with its own [`Rank`]: the submit stage ([`SubmitQueue`])
//! pops the highest priority class first, then the earliest admitted job;
//! the dispatch stage ([`crate::scheduler::DispatchHeap`]) pops by aged
//! priority, then heaviest work estimate.
//!
//! Producers block in [`BestFirst::push`] while `capacity` items wait
//! (backpressure); consumers block in [`BestFirst::pop`] while none do, or
//! in [`BestFirst::pop_or`], which falls back to a second queue (an
//! executor preps a submission when no prepared job waits).
//! [`BestFirst::close`] stops admission: pending items still drain, then
//! `pop` returns `None`. [`BestFirst::requeue`] ignores both the bound
//! and close — a retry must never deadlock against a full queue, and a
//! drain must retry, not drop.

use crate::job::{JobSpec, Priority};
use std::cmp::Reverse;
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Instant;

/// Why a submission was not admitted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The service is draining; no new work is admitted.
    Closed,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Closed => write!(f, "service is draining; queue closed"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// When an item entered its queue, as its [`Rank`] sees it.
#[derive(Clone, Copy)]
pub(crate) struct Arrival {
    /// Admissions before this item's (its place in arrival order).
    pub(crate) seq: u64,
    /// Pops since this item entered (its age).
    pub(crate) age: u64,
}

/// How a [`BestFirst`] queue orders its items.
pub(crate) trait Rank {
    /// The ordering key; the queue pops the item with the greatest.
    type Key: Ord;

    /// This item's key, given when it arrived.
    fn rank(&self, arrival: Arrival) -> Self::Key;

    /// Called under the queue's lock as the item is admitted.
    fn admitted(&mut self) {}
}

struct Entry<T> {
    item: T,
    seq: u64,
    /// Value of the pop counter when this entry (re-)entered the queue.
    entered_at: u64,
}

struct Inner<T> {
    entries: Vec<Entry<T>>,
    closed: bool,
    /// Admissions so far — the arrival order.
    admissions: u64,
    /// Successful pops so far — the age clock.
    pops: u64,
}

impl<T: Rank> Inner<T> {
    fn enter(&mut self, mut item: T) {
        item.admitted();
        self.entries.push(Entry { item, seq: self.admissions, entered_at: self.pops });
        self.admissions += 1;
    }

    /// Removes the greatest-ranked item `accept` takes, advancing the age
    /// clock.
    fn take(&mut self, accept: impl Fn(&T) -> bool) -> Option<T> {
        let pops = self.pops;
        let i = self
            .entries
            .iter()
            .enumerate()
            .filter(|(_, e)| accept(&e.item))
            .max_by_key(|(_, e)| e.item.rank(Arrival { seq: e.seq, age: pops - e.entered_at }))
            .map(|(i, _)| i)?;
        self.pops += 1;
        Some(self.entries.remove(i).item)
    }
}

/// A bounded, closable queue that pops its greatest-[`Rank`]ed item.
pub(crate) struct BestFirst<T> {
    inner: Mutex<Inner<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
}

impl<T: Rank> BestFirst<T> {
    /// Creates a queue admitting at most `capacity` (at least one)
    /// waiting items through [`Self::push`].
    pub(crate) fn new(capacity: usize) -> BestFirst<T> {
        BestFirst {
            inner: Mutex::new(Inner { entries: Vec::new(), closed: false, admissions: 0, pops: 0 }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner<T>> {
        self.inner.lock().expect("queue mutex poisoned: a queue user panicked")
    }

    /// Admits `item`, blocking while the queue is at capacity
    /// (backpressure). Hands the item back once the queue is closed.
    pub(crate) fn push(&self, item: T) -> Result<(), T> {
        let mut inner = self.lock();
        while inner.entries.len() >= self.capacity && !inner.closed {
            inner =
                self.not_full.wait(inner).expect("queue mutex poisoned while waiting for space");
        }
        if inner.closed {
            return Err(item);
        }
        inner.enter(item);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Re-admits a failed item for retry: not subject to the capacity
    /// bound and accepted even after close. Its age restarts — a retry is
    /// a fresh arrival.
    pub(crate) fn requeue(&self, item: T) {
        self.lock().enter(item);
        self.not_empty.notify_one();
    }

    /// Takes the greatest-ranked item. Blocks while empty; `None` once
    /// closed *and* drained.
    pub(crate) fn pop(&self) -> Option<T> {
        let mut inner = self.lock();
        loop {
            if let Some(item) = inner.take(|_| true) {
                self.not_full.notify_one();
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            inner =
                self.not_empty.wait(inner).expect("queue mutex poisoned while waiting for work");
        }
    }

    /// Non-blocking pop of the greatest-ranked item `accept` takes;
    /// `None` when no waiting item qualifies.
    pub(crate) fn try_pop_where(&self, accept: impl Fn(&T) -> bool) -> Option<T> {
        let item = self.lock().take(accept)?;
        self.not_full.notify_one();
        Some(item)
    }

    /// Takes the greatest-ranked item or, when none waits, the
    /// greatest-ranked item of `fallback` — taken while this queue's lock
    /// is held, so a [`Self::wake`] after a push to `fallback` cannot be
    /// missed. Blocks while both are empty; `None` once this queue is
    /// closed and both are drained.
    ///
    /// Callers take this queue's lock, then `fallback`'s, and no code
    /// takes them the other way round.
    pub(crate) fn pop_or<U: Rank>(&self, fallback: &BestFirst<U>) -> Option<Popped<T, U>> {
        let mut inner = self.lock();
        loop {
            if let Some(item) = inner.take(|_| true) {
                self.not_full.notify_one();
                return Some(Popped::Own(item));
            }
            if let Some(item) = fallback.try_pop_where(|_| true) {
                return Some(Popped::Fallback(item));
            }
            if inner.closed {
                return None;
            }
            inner =
                self.not_empty.wait(inner).expect("queue mutex poisoned while waiting for work");
        }
    }

    /// Wakes every consumer blocked in [`Self::pop_or`] so it looks at its
    /// fallback again: call after pushing to the fallback.
    pub(crate) fn wake(&self) {
        let _inner = self.lock();
        self.not_empty.notify_all();
    }

    /// Closes the queue: pending items still drain, new pushes fail.
    pub(crate) fn close(&self) {
        self.lock().closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Items currently waiting.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.lock().entries.len()
    }

    /// Whether no items are waiting.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// What [`BestFirst::pop_or`] took: an item of its own queue or of the
/// fallback.
pub(crate) enum Popped<T, U> {
    Own(T),
    Fallback(U),
}

/// The submit stage: admitted jobs waiting for a prep worker.
pub(crate) type SubmitQueue = BestFirst<JobSpec>;

/// Highest priority class first, then earliest admitted.
impl Rank for JobSpec {
    type Key = (Priority, Reverse<u64>);

    fn rank(&self, arrival: Arrival) -> Self::Key {
        (self.priority, Reverse(arrival.seq))
    }

    /// The queue-wait clock starts at admission, not when the submitter
    /// began waiting for space.
    fn admitted(&mut self) {
        self.submitted_at = Instant::now();
    }
}

impl SubmitQueue {
    /// Blocking submission: waits for space while the queue is full
    /// (backpressure), fails only once the queue is closed.
    pub(crate) fn submit(&self, job: JobSpec) -> Result<(), SubmitError> {
        self.push(job).map_err(|_| SubmitError::Closed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobSource;
    use gdroid_apk::Rng;
    use std::collections::VecDeque;
    use std::sync::Arc;
    use std::time::Duration;

    fn job(id: u64, priority: Priority) -> JobSpec {
        JobSpec {
            id,
            priority,
            source: JobSource::Seed {
                index: id as usize,
                seed: id,
                config: Box::new(gdroid_apk::GenConfig::tiny()),
            },
            submitted_at: Instant::now(),
            plan: gdroid_vetting::ExecPlan::default(),
        }
    }

    #[test]
    fn pops_by_priority_then_fifo() {
        let q = SubmitQueue::new(8);
        q.submit(job(1, Priority::Background)).unwrap();
        q.submit(job(2, Priority::Standard)).unwrap();
        q.submit(job(3, Priority::Expedited)).unwrap();
        q.submit(job(4, Priority::Standard)).unwrap();
        let order: Vec<u64> = (0..4).map(|_| q.pop().unwrap().id).collect();
        assert_eq!(order, vec![3, 2, 4, 1]);
    }

    /// Random interleavings of submissions in every class and pops, then
    /// a close and a drain, pop in the order three FIFO lanes give —
    /// highest non-empty lane first.
    #[test]
    fn pops_like_three_fifo_lanes() {
        for seed in 0..64 {
            let mut rng = Rng::new(seed);
            let q = SubmitQueue::new(64);
            let mut lanes: [VecDeque<u64>; 3] = Default::default();
            let model_pop = |lanes: &mut [VecDeque<u64>; 3]| {
                lanes.iter_mut().rev().find_map(VecDeque::pop_front)
            };
            for id in 0..200 {
                if rng.chance(0.55) && lanes.iter().map(VecDeque::len).sum::<usize>() < 64 {
                    let priority = Priority::ALL[rng.below(3) as usize];
                    q.submit(job(id, priority)).unwrap();
                    lanes[priority as usize].push_back(id);
                } else if let Some(want) = model_pop(&mut lanes) {
                    assert_eq!(q.pop().map(|j| j.id), Some(want), "seed {seed}");
                }
            }
            q.close();
            assert_eq!(q.submit(job(999, Priority::Expedited)), Err(SubmitError::Closed));
            let drained: Vec<u64> = std::iter::from_fn(|| q.pop().map(|j| j.id)).collect();
            let want: Vec<u64> = std::iter::from_fn(|| model_pop(&mut lanes)).collect();
            assert_eq!(drained, want, "seed {seed}: close drains what was admitted");
        }
    }

    #[test]
    fn blocking_submit_waits_for_space() {
        let q = std::sync::Arc::new(SubmitQueue::new(1));
        q.submit(job(1, Priority::Standard)).unwrap();
        let q2 = q.clone();
        let producer = std::thread::spawn(move || q2.submit(job(2, Priority::Standard)));
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(q.pop().unwrap().id, 1);
        producer.join().unwrap().unwrap();
        assert_eq!(q.pop().unwrap().id, 2);
    }

    fn popped(p: Option<Popped<JobSpec, JobSpec>>) -> Option<(&'static str, u64)> {
        p.map(|p| match p {
            Popped::Own(j) => ("own", j.id),
            Popped::Fallback(j) => ("fallback", j.id),
        })
    }

    /// A consumer asleep in `pop_or` on an empty queue takes an item pushed
    /// to the fallback once the pusher wakes the queue.
    #[test]
    fn pop_or_takes_the_fallback_after_a_wake() {
        let own = Arc::new(SubmitQueue::new(4));
        let fallback = Arc::new(SubmitQueue::new(4));
        let (tx, rx) = std::sync::mpsc::channel();
        let waiter = {
            let (own, fallback) = (Arc::clone(&own), Arc::clone(&fallback));
            std::thread::spawn(move || tx.send(popped(own.pop_or(&fallback))).unwrap())
        };
        std::thread::sleep(Duration::from_millis(50));
        fallback.submit(job(7, Priority::Standard)).unwrap();
        own.wake();
        let got = rx.recv_timeout(Duration::from_secs(10));
        // Closing wakes a waiter that missed the wake, so a failure
        // reports instead of hanging.
        own.close();
        waiter.join().unwrap();
        assert_eq!(got, Ok(Some(("fallback", 7))), "the wake after a fallback push was lost");

        // Own items first, then the fallback's; `None` once the queue is
        // closed and both are drained.
        let (own, fallback) = (SubmitQueue::new(4), SubmitQueue::new(4));
        fallback.submit(job(2, Priority::Expedited)).unwrap();
        own.submit(job(1, Priority::Background)).unwrap();
        own.close();
        assert_eq!(popped(own.pop_or(&fallback)), Some(("own", 1)));
        assert_eq!(popped(own.pop_or(&fallback)), Some(("fallback", 2)));
        assert_eq!(popped(own.pop_or(&fallback)), None);
    }

    #[test]
    fn queue_wait_starts_at_admission_not_at_submission() {
        let q = Arc::new(SubmitQueue::new(1));
        q.submit(job(1, Priority::Standard)).unwrap();
        let q2 = Arc::clone(&q);
        let producer = std::thread::spawn(move || q2.submit(job(2, Priority::Standard)));
        std::thread::sleep(Duration::from_millis(60));
        // B cannot be admitted before A's pop frees its slot.
        let popping_a = Instant::now();
        assert_eq!(q.pop().unwrap().id, 1);
        producer.join().unwrap().unwrap();
        let b = q.pop().unwrap();
        assert!(
            b.submitted_at >= popping_a,
            "B was stamped {:?} before A left the queue",
            popping_a - b.submitted_at
        );
    }
}
