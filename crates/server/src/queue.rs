//! The bounded ingest queue between the event loops and the fold workers.
//!
//! Event loops parse [`crate::frame::Frame::Reports`] batches and
//! *try* to enqueue each frame's reports here as one unit; ingest workers
//! pop whole batches and fold them into the sharded accumulator through
//! one batched fold per frame. The queue is the backpressure point:
//! [`IngestQueue::try_push_batch`] never blocks — when the queue is at
//! capacity it refuses (or accepts only a prefix), and the event loop
//! turns that refusal into a typed `Busy` reply instead of silently
//! dropping a report. Capacity is counted in **reports**, not batches, so
//! the memory bound does not depend on how clients chunk their frames.
//!
//! The queue also carries the *linearization* counters that make queries
//! exact: `enqueued` counts accepted reports, and each [`IngestQueue::pop`]
//! hands out a [`BatchTicket`] naming the contiguous run of enqueue
//! sequence numbers the batch occupies, which the worker passes back to
//! [`IngestQueue::mark_processed`] once the whole batch is folded.
//! Completion is tracked as a **contiguous frontier**, not a global count:
//! with several fold workers, worker B finishing reports 2..N must not let
//! a watermark wait return while worker A is still mid-fold on report 1 —
//! out-of-order completions are buffered until the prefix below them is
//! done. [`IngestQueue::wait_processed`] therefore blocks (and
//! [`IngestQueue::poll_processed`] answers `None`) until *every* report at
//! or below a watermark has been folded — so a `Query` observes
//! every report the server accepted before it, and loopback estimates can
//! be bit-identical to a batch run.

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Condvar, Mutex};

/// Why a non-blocking push was refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PushRefusal {
    /// The queue is at capacity — retry after ingest workers drain it.
    Full,
    /// The queue was closed (server shutting down).
    Closed,
}

/// How a [`IngestQueue::wait_processed`] wait ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WaitOutcome {
    /// Every item at or below the watermark has been processed.
    Reached,
    /// The queue is paused and the watermark needs items still *queued*
    /// (not merely in flight), so the wait could only end when someone
    /// resumes — callers should refuse with a typed reply instead of
    /// parking a worker indefinitely.
    Paused,
    /// The queue closed first (shutdown) — callers should give up rather
    /// than serve a partial view.
    Closed,
}

/// The contiguous run of enqueue sequence numbers (1-based, inclusive)
/// occupied by one popped batch. Returned by [`IngestQueue::pop`]; passed
/// back to [`IngestQueue::mark_processed`] when the batch has been fully
/// folded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BatchTicket {
    first: u64,
    last: u64,
}

impl BatchTicket {
    /// First sequence number of the batch (1-based).
    pub fn first(&self) -> u64 {
        self.first
    }

    /// Last sequence number of the batch (inclusive).
    pub fn last(&self) -> u64 {
        self.last
    }

    /// Number of reports the ticket covers.
    pub fn len(&self) -> u64 {
        self.last - self.first + 1
    }

    /// Always `false`: only non-empty batches are queued, so a ticket
    /// covers at least one report by construction.
    pub fn is_empty(&self) -> bool {
        false
    }
}

struct State<T> {
    /// Accepted batches in FIFO order, each tagged with the sequence
    /// number of its first item (batches occupy contiguous sequence runs
    /// by construction).
    batches: VecDeque<(u64, Vec<T>)>,
    /// Total items across `batches` (the capacity denominator).
    queued_items: usize,
    /// Items ever accepted.
    enqueued: u64,
    /// Items ever handed out by `pop` (batches leave the FIFO in enqueue
    /// order, so pops cover the sequence space contiguously).
    popped: u64,
    /// The contiguous completion frontier: every item with sequence
    /// `<= processed` has been folded.
    processed: u64,
    /// Completed sequence runs above the frontier, keyed by first
    /// sequence (a worker finished a later batch while an earlier one is
    /// still in flight on another worker).
    done_above_frontier: BTreeMap<u64, u64>,
    closed: bool,
    paused: bool,
}

/// A bounded multi-producer multi-consumer batch queue with explicit
/// backpressure, drain watermarks, and a test/operations pause switch.
pub struct IngestQueue<T> {
    capacity: usize,
    state: Mutex<State<T>>,
    /// Signaled when a batch arrives, the pause is lifted, or the queue
    /// closes (wakes poppers).
    not_empty: Condvar,
    /// Signaled when a batch finishes processing or the queue closes
    /// (wakes watermark waiters).
    progress: Condvar,
}

impl<T> IngestQueue<T> {
    /// An open queue holding at most `capacity` in-flight items (reports,
    /// summed across queued batches).
    ///
    /// # Panics
    /// Panics if `capacity == 0` (nothing could ever be accepted).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ingest queue capacity must be positive");
        Self {
            capacity,
            state: Mutex::new(State {
                batches: VecDeque::new(),
                queued_items: 0,
                enqueued: 0,
                popped: 0,
                processed: 0,
                done_above_frontier: BTreeMap::new(),
                closed: false,
                paused: false,
            }),
            not_empty: Condvar::new(),
            progress: Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State<T>> {
        // The queue holds plain data; a panicking holder cannot leave it in
        // a torn state, so poisoning is recovered like parking_lot would.
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// The configured capacity (in items).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Items currently queued (waiting to be folded), across all batches.
    pub fn len(&self) -> usize {
        self.lock().queued_items
    }

    /// `true` when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Non-blocking batch push — the shedding half of the backpressure
    /// contract. Accepts the longest prefix of `batch` that fits under
    /// capacity and returns its length; the caller replies `Busy` for a
    /// partial accept and resends the tail. The accepted prefix is queued
    /// as **one batch** (one pop, one batched fold downstream).
    ///
    /// An empty batch is accepted trivially (`Ok(0)`) without queueing
    /// anything.
    ///
    /// # Errors
    /// [`PushRefusal::Full`] when the queue cannot take even one item
    /// (nothing is queued), [`PushRefusal::Closed`] after [`Self::close`].
    pub fn try_push_batch(&self, mut batch: Vec<T>) -> Result<usize, PushRefusal> {
        let mut s = self.lock();
        if s.closed {
            return Err(PushRefusal::Closed);
        }
        if batch.is_empty() {
            return Ok(0);
        }
        let free = self.capacity - s.queued_items;
        if free == 0 {
            return Err(PushRefusal::Full);
        }
        let accepted = batch.len().min(free);
        batch.truncate(accepted);
        let first = s.enqueued + 1;
        s.batches.push_back((first, batch));
        s.queued_items += accepted;
        s.enqueued += accepted as u64;
        drop(s);
        self.not_empty.notify_one();
        Ok(accepted)
    }

    /// Blocks until a batch is available (and the queue is not paused),
    /// returning `None` once the queue is closed. Ingest workers exit on
    /// `None`. The returned [`BatchTicket`] names the batch's contiguous
    /// enqueue sequence run — pass it back to [`Self::mark_processed`]
    /// when the whole batch has been folded.
    pub fn pop(&self) -> Option<(BatchTicket, Vec<T>)> {
        let mut s = self.lock();
        loop {
            if s.closed {
                return None;
            }
            if !s.paused {
                if let Some((first, batch)) = s.batches.pop_front() {
                    let last = first + batch.len() as u64 - 1;
                    s.queued_items -= batch.len();
                    s.popped = last;
                    return Some((BatchTicket { first, last }, batch));
                }
            }
            s = self
                .not_empty
                .wait(s)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// Records that the popped batch covered by `ticket` has been fully
    /// folded. Every successful [`Self::pop`] must be paired with exactly
    /// one call carrying the ticket it returned.
    ///
    /// The completion frontier only advances across the *contiguous*
    /// prefix of finished sequences: a batch that completes while an
    /// earlier one is still mid-fold on another worker is buffered, so
    /// watermark waiters never observe a view missing an accepted report.
    pub fn mark_processed(&self, ticket: BatchTicket) {
        let mut s = self.lock();
        if ticket.first == s.processed + 1 {
            s.processed = ticket.last;
            loop {
                let next = s.processed + 1;
                let Some(last) = s.done_above_frontier.remove(&next) else {
                    break;
                };
                s.processed = last;
            }
            drop(s);
            self.progress.notify_all();
        } else {
            s.done_above_frontier.insert(ticket.first, ticket.last);
        }
    }

    /// The current accept watermark: total items ever accepted. A query
    /// that waits for this watermark observes every report accepted before
    /// the query arrived.
    pub fn watermark(&self) -> u64 {
        self.lock().enqueued
    }

    /// Blocks until every item with sequence `<= watermark` has been
    /// processed (the contiguous frontier reached the watermark), the
    /// queue closes, or a pause makes the watermark unreachable — see
    /// [`WaitOutcome`]. While paused, batches already popped can still
    /// finish (their folds are in flight), so the wait only reports
    /// [`WaitOutcome::Paused`] when the watermark lies beyond everything
    /// popped so far — otherwise a paused maintenance window would park
    /// every querying caller until resume, wedging the server.
    pub fn wait_processed(&self, watermark: u64) -> WaitOutcome {
        let mut s = self.lock();
        loop {
            if s.processed >= watermark {
                return WaitOutcome::Reached;
            }
            if s.closed {
                return WaitOutcome::Closed;
            }
            if s.paused && watermark > s.popped {
                return WaitOutcome::Paused;
            }
            s = self
                .progress
                .wait(s)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// Non-blocking twin of [`Self::wait_processed`]: the wait's current
    /// verdict without parking the calling thread. `Some(outcome)` is
    /// exactly what `wait_processed` would return right now; `None` means
    /// the wait would still block (the watermark is reachable but not yet
    /// reached) — poll again after more progress. This is what the
    /// reactor uses: an event loop owning hundreds of
    /// connections cannot block one query's watermark wait without
    /// stalling all of them, so settling queries are re-polled on each
    /// loop tick instead.
    pub fn poll_processed(&self, watermark: u64) -> Option<WaitOutcome> {
        let s = self.lock();
        if s.processed >= watermark {
            Some(WaitOutcome::Reached)
        } else if s.closed {
            Some(WaitOutcome::Closed)
        } else if s.paused && watermark > s.popped {
            Some(WaitOutcome::Paused)
        } else {
            None
        }
    }

    /// Pauses (`true`) or resumes (`false`) the pop side. While paused,
    /// accepted batches stay queued and the queue fills to capacity — the
    /// deterministic way to exercise the `Busy` path in tests, and an
    /// operational throttle for draining maintenance windows.
    pub fn set_paused(&self, paused: bool) {
        let mut s = self.lock();
        s.paused = paused;
        drop(s);
        self.not_empty.notify_all();
        // Watermark waiters must observe a pause too: a wait that can no
        // longer be satisfied turns into a typed `Paused` outcome instead
        // of blocking until resume.
        self.progress.notify_all();
    }

    /// Closes the queue: pending and future pushes are refused, blocked
    /// poppers and watermark waiters wake immediately.
    pub fn close(&self) {
        let mut s = self.lock();
        s.closed = true;
        drop(s);
        self.not_empty.notify_all();
        self.progress.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn ticket(first: u64, last: u64) -> BatchTicket {
        BatchTicket { first, last }
    }

    #[test]
    fn bounded_push_pop() {
        let q = IngestQueue::new(2);
        assert_eq!(q.capacity(), 2);
        q.try_push_batch(vec![1]).unwrap();
        q.try_push_batch(vec![2]).unwrap();
        assert_eq!(q.try_push_batch(vec![3]), Err(PushRefusal::Full));
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some((ticket(1, 1), vec![1])));
        q.try_push_batch(vec![3]).unwrap();
        assert_eq!(q.pop(), Some((ticket(2, 2), vec![2])));
        assert_eq!(q.pop(), Some((ticket(3, 3), vec![3])));
        assert!(q.is_empty());
    }

    #[test]
    fn batches_pop_whole_with_contiguous_tickets() {
        let q = IngestQueue::new(10);
        assert_eq!(q.try_push_batch(vec![1, 2, 3]), Ok(3));
        assert_eq!(
            q.try_push_batch(Vec::<i32>::new()),
            Ok(0),
            "empty is a no-op"
        );
        assert_eq!(q.try_push_batch(vec![4, 5]), Ok(2));
        assert_eq!(q.len(), 5);
        assert_eq!(q.watermark(), 5);
        let (t1, b1) = q.pop().unwrap();
        assert_eq!((t1, b1), (ticket(1, 3), vec![1, 2, 3]));
        assert_eq!(t1.len(), 3);
        let (t2, b2) = q.pop().unwrap();
        assert_eq!((t2, b2), (ticket(4, 5), vec![4, 5]));
        q.mark_processed(t1);
        q.mark_processed(t2);
        assert_eq!(q.wait_processed(5), WaitOutcome::Reached);
    }

    #[test]
    fn capacity_counts_items_and_accepts_prefixes() {
        // Capacity is in reports, not batches: a 5-slot queue takes a
        // 3-batch, then only 2 of the next 4 — and refuses outright once
        // full, so the `Busy{accepted}` strict-prefix contract holds.
        let q = IngestQueue::new(5);
        assert_eq!(q.try_push_batch(vec![0, 1, 2]), Ok(3));
        assert_eq!(q.try_push_batch(vec![3, 4, 5, 6]), Ok(2));
        assert_eq!(q.try_push_batch(vec![7]), Err(PushRefusal::Full));
        assert_eq!(q.len(), 5);
        // The partial accept queued exactly the prefix.
        let (t1, _) = q.pop().unwrap();
        let (t2, b2) = q.pop().unwrap();
        assert_eq!(b2, vec![3, 4]);
        assert_eq!(t2, ticket(4, 5));
        q.mark_processed(t1);
        q.mark_processed(t2);
        assert_eq!(q.wait_processed(q.watermark()), WaitOutcome::Reached);
    }

    #[test]
    fn close_wakes_poppers_and_refuses_pushes() {
        let q = Arc::new(IngestQueue::<u32>::new(4));
        let q2 = Arc::clone(&q);
        let popper = std::thread::spawn(move || q2.pop());
        std::thread::sleep(std::time::Duration::from_millis(10));
        q.close();
        assert_eq!(popper.join().unwrap(), None);
        assert_eq!(q.try_push_batch(vec![1]), Err(PushRefusal::Closed));
        assert_eq!(q.try_push_batch(vec![1, 2]), Err(PushRefusal::Closed));
    }

    #[test]
    fn watermark_waits_for_processing() {
        let q = Arc::new(IngestQueue::new(16));
        for i in 0..5 {
            q.try_push_batch(vec![i]).unwrap();
        }
        let watermark = q.watermark();
        assert_eq!(watermark, 5);
        let q2 = Arc::clone(&q);
        let worker = std::thread::spawn(move || {
            while let Some((ticket, _batch)) = q2.pop() {
                q2.mark_processed(ticket);
                if q2.is_empty() {
                    break;
                }
            }
        });
        assert_eq!(q.wait_processed(watermark), WaitOutcome::Reached);
        worker.join().unwrap();
        // An already-reached watermark returns immediately.
        assert_eq!(q.wait_processed(watermark), WaitOutcome::Reached);
    }

    #[test]
    fn wait_processed_observes_close() {
        let q = Arc::new(IngestQueue::new(4));
        q.try_push_batch(vec![1]).unwrap();
        let q2 = Arc::clone(&q);
        let waiter = std::thread::spawn(move || q2.wait_processed(1));
        std::thread::sleep(std::time::Duration::from_millis(10));
        q.close();
        assert_eq!(
            waiter.join().unwrap(),
            WaitOutcome::Closed,
            "close aborts the wait"
        );
    }

    #[test]
    fn pause_fills_the_queue() {
        let q = Arc::new(IngestQueue::new(3));
        q.set_paused(true);
        let q2 = Arc::clone(&q);
        let popper = std::thread::spawn(move || {
            let mut got = Vec::new();
            while let Some((ticket, batch)) = q2.pop() {
                q2.mark_processed(ticket);
                got.extend(batch);
                if got.len() == 3 {
                    break;
                }
            }
            got
        });
        for i in 0..3 {
            q.try_push_batch(vec![i]).unwrap();
        }
        // Paused: the popper cannot drain, so capacity is reached.
        assert_eq!(q.try_push_batch(vec![9]), Err(PushRefusal::Full));
        q.set_paused(false);
        assert_eq!(popper.join().unwrap(), vec![0, 1, 2]);
        assert_eq!(q.wait_processed(3), WaitOutcome::Reached);
    }

    /// The reviewer-found race: with two workers, worker B finishing later
    /// batches must not satisfy a watermark wait while worker A is still
    /// mid-fold on an earlier one — the snapshot would miss an accepted
    /// (acked) report. The frontier only advances over the contiguous
    /// prefix of completed sequences.
    #[test]
    fn out_of_order_completion_holds_the_frontier() {
        use std::sync::atomic::{AtomicBool, Ordering};

        let q = Arc::new(IngestQueue::new(8));
        q.try_push_batch(vec![0]).unwrap();
        q.try_push_batch(vec![1, 2]).unwrap();
        q.try_push_batch(vec![3]).unwrap();
        let watermark = q.watermark();
        let (t1, _) = q.pop().unwrap();
        let (t2, _) = q.pop().unwrap();
        let (t3, _) = q.pop().unwrap();
        assert_eq!((t1, t2, t3), (ticket(1, 1), ticket(2, 3), ticket(4, 4)));
        // Batches 2 and 3 finish while batch 1 is still "mid-fold".
        q.mark_processed(t3);
        q.mark_processed(t2);
        let satisfied = Arc::new(AtomicBool::new(false));
        let waiter = {
            let q = Arc::clone(&q);
            let satisfied = Arc::clone(&satisfied);
            std::thread::spawn(move || {
                let ok = q.wait_processed(watermark);
                satisfied.store(true, Ordering::SeqCst);
                ok
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(30));
        assert!(
            !satisfied.load(Ordering::SeqCst),
            "watermark wait returned while batch 1 was still in flight"
        );
        q.mark_processed(t1);
        assert_eq!(waiter.join().unwrap(), WaitOutcome::Reached);
    }

    /// While paused, a watermark needing still-queued items is a typed
    /// `Paused` outcome (a querying worker must not park until resume),
    /// but in-flight batches — already popped — can still satisfy a lower
    /// watermark.
    #[test]
    fn paused_watermark_is_refused_not_blocked() {
        let q = Arc::new(IngestQueue::new(8));
        q.try_push_batch(vec![10]).unwrap();
        q.try_push_batch(vec![11]).unwrap();
        let (t1, _) = q.pop().unwrap(); // in flight
        q.set_paused(true);
        // Item 2 is still queued and cannot be popped while paused.
        assert_eq!(q.wait_processed(2), WaitOutcome::Paused);
        // The in-flight item can still complete and reach watermark 1.
        let waiter = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.wait_processed(1))
        };
        std::thread::sleep(std::time::Duration::from_millis(10));
        q.mark_processed(t1);
        assert_eq!(waiter.join().unwrap(), WaitOutcome::Reached);
        // Resume makes watermark 2 reachable again.
        q.set_paused(false);
        let (t2, _) = q.pop().unwrap();
        q.mark_processed(t2);
        assert_eq!(q.wait_processed(2), WaitOutcome::Reached);
    }

    /// `poll_processed` mirrors `wait_processed` verdict-for-verdict, with
    /// `None` standing in for "would block".
    #[test]
    fn poll_processed_matches_wait_semantics() {
        let q = IngestQueue::new(8);
        assert_eq!(q.poll_processed(0), Some(WaitOutcome::Reached));
        q.try_push_batch(vec![7]).unwrap();
        assert_eq!(q.poll_processed(1), None, "accepted but not yet folded");
        let (t, _) = q.pop().unwrap();
        // Paused with the watermark already in flight: still just pending.
        q.set_paused(true);
        assert_eq!(q.poll_processed(1), None);
        // Paused with a watermark beyond everything popped: typed refusal.
        q.try_push_batch(vec![8]).unwrap();
        assert_eq!(q.poll_processed(2), Some(WaitOutcome::Paused));
        q.set_paused(false);
        q.mark_processed(t);
        assert_eq!(q.poll_processed(1), Some(WaitOutcome::Reached));
        q.close();
        assert_eq!(q.poll_processed(2), Some(WaitOutcome::Closed));
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = IngestQueue::<u8>::new(0);
    }
}
