//! Multi-producer event inbox with bulk transfer.
//!
//! Each AC has one inbox for its *event stream*: many components (clients,
//! the QO, other ACs) enqueue events, one AC drains them. The queue is a
//! mutex-guarded `VecDeque` with explicit sender accounting — and that
//! choice is deliberate: the hot-path cost of an event queue is dominated
//! by per-event synchronization, so the API is built around *batched*
//! crossings ([`InboxSender::send_many`], [`Inbox::drain_into`]) that move
//! a whole group of events per lock acquisition. A `len` counter kept
//! outside the lock lets the receiver check emptiness without touching the
//! mutex at all.
//!
//! ## Idle receivers block, senders wake
//!
//! The receiver is event-driven, not polling: an empty inbox is waited on
//! with [`Inbox::wait`] — the short spin → yield prelude of [`Backoff`],
//! which keeps the receiver awake across the gaps of a loaded system, and
//! then `thread::park()` with no timeout. The wake-up is a Dekker
//! handshake over two flags, every access `SeqCst`:
//!
//! * receiver: store `asleep = true` → load `len` / `senders`, park only if
//!   there is still nothing to do;
//! * sender: RMW `len` (a send) or `senders` (the last drop) → load
//!   `asleep`, and only if it is set, swap it off and `unpark`.
//!
//! In the single total order of those four accesses either the receiver's
//! load sees the sender's RMW (it does not park) or the sender's load sees
//! `asleep` (it wakes the receiver); `unpark` leaves a token, so a wake
//! that lands between the receiver's check and its `park` is not lost
//! either. An awake receiver costs a sender one extra load; only a
//! receiver that is really asleep costs it the futex wake.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::Thread;

use anydb_common::backoff::Backoff;
use parking_lot::Mutex;

use crate::spsc::PopState;

struct Shared<T> {
    queue: Mutex<VecDeque<T>>,
    /// Mirror of `queue.len()`, only ever updated while holding the queue
    /// lock (so it cannot drift from the queue), but readable without it —
    /// empty polls never acquire the mutex.
    len: AtomicUsize,
    senders: AtomicUsize,
    /// Set by the receiver before it re-checks `len`/`senders` and parks;
    /// whoever swaps it off owes `sleeper` an `unpark`.
    asleep: AtomicBool,
    /// The thread to unpark, registered anew on every sleep because an
    /// `Inbox` may move between threads.
    sleeper: Mutex<Option<Thread>>,
}

impl<T> Shared<T> {
    /// Sender half of the handshake; the caller has just published its
    /// `len`/`senders` change with a `SeqCst` RMW.
    #[inline]
    fn wake_receiver(&self) {
        if self.asleep.load(Ordering::SeqCst) && self.asleep.swap(false, Ordering::SeqCst) {
            if let Some(thread) = self.sleeper.lock().as_ref() {
                thread.unpark();
            }
        }
    }
}

/// The receiving half of an event inbox (owned by one AC).
pub struct Inbox<T> {
    shared: Arc<Shared<T>>,
}

/// A cloneable sending half.
pub struct InboxSender<T> {
    shared: Arc<Shared<T>>,
}

impl<T> Inbox<T> {
    /// Creates an inbox and its first sender.
    pub fn new() -> (InboxSender<T>, Inbox<T>) {
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            len: AtomicUsize::new(0),
            senders: AtomicUsize::new(1),
            asleep: AtomicBool::new(false),
            sleeper: Mutex::new(None),
        });
        (
            InboxSender {
                shared: shared.clone(),
            },
            Inbox { shared },
        )
    }

    /// Non-blocking pop.
    pub fn pop(&self) -> Result<T, PopState> {
        if self.shared.len.load(Ordering::Acquire) > 0 {
            let mut queue = self.shared.queue.lock();
            if let Some(v) = queue.pop_front() {
                self.shared.len.fetch_sub(1, Ordering::AcqRel);
                return Ok(v);
            }
        }
        if self.shared.senders.load(Ordering::Acquire) == 0 {
            // Senders may have pushed right before dropping; check the
            // queue once more to not lose a final message.
            let mut queue = self.shared.queue.lock();
            if let Some(v) = queue.pop_front() {
                self.shared.len.fetch_sub(1, Ordering::AcqRel);
                Ok(v)
            } else {
                Err(PopState::Disconnected)
            }
        } else {
            Err(PopState::Empty)
        }
    }

    /// Bulk pop: moves up to `max` queued events into `out` under a single
    /// lock acquisition; returns how many were taken. `Err(Empty)` /
    /// `Err(Disconnected)` when nothing was queued.
    ///
    /// This is the AC-side half of batched event streaming: one wakeup
    /// drains a chunk, and the cost of the mutex handshake is amortized
    /// over every event in it.
    pub fn drain_into(&self, out: &mut Vec<T>, max: usize) -> Result<usize, PopState> {
        debug_assert!(max > 0, "drain_into with max = 0 can never make progress");
        if self.shared.len.load(Ordering::Acquire) == 0
            && self.shared.senders.load(Ordering::Acquire) > 0
        {
            return Err(PopState::Empty);
        }
        let mut queue = self.shared.queue.lock();
        let n = queue.len().min(max);
        if n == 0 {
            drop(queue);
            return if self.shared.senders.load(Ordering::Acquire) == 0 {
                Err(PopState::Disconnected)
            } else {
                Err(PopState::Empty)
            };
        }
        out.extend(queue.drain(..n));
        self.shared.len.fetch_sub(n, Ordering::AcqRel);
        Ok(n)
    }

    /// Waits after an empty poll: one step of `backoff`'s spin → yield
    /// prelude, or, once that is exhausted, a sleep until a sender wakes
    /// this thread (a send, or the last sender dropping). May return with
    /// the inbox still empty — callers loop around [`Inbox::pop`] /
    /// [`Inbox::drain_into`] and reset `backoff` when they find work.
    pub fn wait(&self, backoff: &mut Backoff) {
        if backoff.spin_or_yield() {
            return;
        }
        let shared = &*self.shared;
        *shared.sleeper.lock() = Some(std::thread::current());
        shared.asleep.store(true, Ordering::SeqCst);
        // The re-check: a sender that ran before the store above saw the
        // receiver awake and will not unpark it.
        if shared.len.load(Ordering::SeqCst) == 0 && shared.senders.load(Ordering::SeqCst) > 0 {
            std::thread::park();
        }
        shared.asleep.store(false, Ordering::SeqCst);
    }

    /// Pops, waiting (spin → yield → block, see [`Inbox::wait`]) until a
    /// message arrives or all senders are gone.
    pub fn pop_blocking(&self) -> Option<T> {
        let mut backoff = Backoff::new();
        loop {
            match self.pop() {
                Ok(v) => return Some(v),
                Err(PopState::Disconnected) => return None,
                Err(PopState::Empty) => self.wait(&mut backoff),
            }
        }
    }

    /// Current queue length (approximate under concurrency).
    pub fn len(&self) -> usize {
        self.shared.len.load(Ordering::Acquire)
    }

    /// True if the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of live senders.
    pub fn sender_count(&self) -> usize {
        self.shared.senders.load(Ordering::Acquire)
    }
}

impl<T> InboxSender<T> {
    /// Enqueues a message. Never blocks (unbounded queue).
    pub fn send(&self, value: T) {
        let mut queue = self.shared.queue.lock();
        queue.push_back(value);
        self.shared.len.fetch_add(1, Ordering::SeqCst);
        drop(queue);
        self.shared.wake_receiver();
    }

    /// Enqueues a group of messages under one lock acquisition — the
    /// sender-side half of batched event streaming.
    pub fn send_many(&self, values: impl IntoIterator<Item = T>) {
        let mut queue = self.shared.queue.lock();
        let before = queue.len();
        queue.extend(values);
        let added = queue.len() - before;
        self.shared.len.fetch_add(added, Ordering::SeqCst);
        drop(queue);
        if added > 0 {
            self.shared.wake_receiver();
        }
    }

    /// Destination backlog as seen from the sending side (the `len`
    /// mirror, read without the lock). This is the depth signal adaptive
    /// batching feeds on: a deep inbox means the receiver is behind and
    /// grouping more events per crossing costs no extra latency.
    pub fn len(&self) -> usize {
        self.shared.len.load(Ordering::Acquire)
    }

    /// True if the destination queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Clone for InboxSender<T> {
    fn clone(&self) -> Self {
        self.shared.senders.fetch_add(1, Ordering::AcqRel);
        InboxSender {
            shared: self.shared.clone(),
        }
    }
}

impl<T> Drop for InboxSender<T> {
    fn drop(&mut self) {
        // The last sender leaving is an event too: a sleeping receiver
        // must wake to observe `Disconnected`.
        if self.shared.senders.fetch_sub(1, Ordering::SeqCst) == 1 {
            self.shared.wake_receiver();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_and_pop() {
        let (tx, rx) = Inbox::new();
        tx.send(1);
        tx.send(2);
        assert_eq!(rx.pop(), Ok(1));
        assert_eq!(rx.pop(), Ok(2));
        assert_eq!(rx.pop(), Err(PopState::Empty));
    }

    #[test]
    fn multiple_senders() {
        let (tx, rx) = Inbox::new();
        let tx2 = tx.clone();
        assert_eq!(rx.sender_count(), 2);
        tx.send(1);
        tx2.send(2);
        let mut got = vec![rx.pop().unwrap(), rx.pop().unwrap()];
        got.sort();
        assert_eq!(got, vec![1, 2]);
    }

    #[test]
    fn disconnect_when_all_senders_dropped() {
        let (tx, rx) = Inbox::new();
        let tx2 = tx.clone();
        tx.send(7);
        drop(tx);
        drop(tx2);
        assert_eq!(rx.pop(), Ok(7));
        assert_eq!(rx.pop(), Err(PopState::Disconnected));
    }

    #[test]
    fn concurrent_senders_deliver_everything() {
        let (tx, rx) = Inbox::new();
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let tx = tx.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..10_000u64 {
                    tx.send(t * 10_000 + i);
                }
            }));
        }
        drop(tx);
        let mut seen = 0u64;
        while rx.pop_blocking().is_some() {
            seen += 1;
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(seen, 40_000);
    }

    #[test]
    fn pop_blocking_wakes_on_late_send() {
        let (tx, rx) = Inbox::new();
        let h = std::thread::spawn(move || rx.pop_blocking());
        std::thread::sleep(std::time::Duration::from_millis(10));
        tx.send(99);
        assert_eq!(h.join().unwrap(), Some(99));
    }

    #[test]
    fn send_many_preserves_order_across_senders() {
        let (tx, rx) = Inbox::new();
        tx.send_many([1, 2, 3]);
        let tx2 = tx.clone();
        tx2.send_many(vec![4, 5]);
        assert_eq!(rx.len(), 5);
        let mut out = Vec::new();
        assert_eq!(rx.drain_into(&mut out, 100), Ok(5));
        assert_eq!(out, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn drain_into_respects_max() {
        let (tx, rx) = Inbox::new();
        tx.send_many(0..10);
        let mut out = Vec::new();
        assert_eq!(rx.drain_into(&mut out, 4), Ok(4));
        assert_eq!(rx.drain_into(&mut out, 4), Ok(4));
        assert_eq!(rx.drain_into(&mut out, 4), Ok(2));
        assert_eq!(out, (0..10).collect::<Vec<_>>());
        assert_eq!(rx.drain_into(&mut out, 4), Err(PopState::Empty));
        drop(tx);
        assert_eq!(rx.drain_into(&mut out, 4), Err(PopState::Disconnected));
    }

    #[test]
    fn drain_sees_final_messages_after_disconnect() {
        let (tx, rx) = Inbox::new();
        tx.send_many([1, 2]);
        drop(tx);
        let mut out = Vec::new();
        assert_eq!(rx.drain_into(&mut out, 10), Ok(2));
        assert_eq!(rx.drain_into(&mut out, 10), Err(PopState::Disconnected));
    }

    #[test]
    fn concurrent_bulk_senders_bulk_receiver() {
        let (tx, rx) = Inbox::new();
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let tx = tx.clone();
            handles.push(std::thread::spawn(move || {
                for chunk in 0..100u64 {
                    let base = t * 100_000 + chunk * 100;
                    tx.send_many(base..base + 100);
                }
            }));
        }
        drop(tx);
        let mut all = Vec::new();
        let mut backoff = Backoff::new();
        loop {
            match rx.drain_into(&mut all, 256) {
                Ok(_) => backoff.reset(),
                Err(PopState::Empty) => rx.wait(&mut backoff),
                Err(PopState::Disconnected) => break,
            }
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(all.len(), 40_000);
        // Per-sender order must hold even though senders interleave.
        for t in 0..4u64 {
            let mine: Vec<u64> = all.iter().copied().filter(|v| v / 100_000 == t).collect();
            assert!(mine.windows(2).all(|w| w[0] < w[1]), "sender {t} reordered");
        }
    }

    // ---------------------------------------------------- wake-on-send

    use std::sync::atomic::AtomicU64;
    use std::thread::JoinHandle;
    use std::time::{Duration, Instant};

    /// A backoff with no prelude: every `Inbox::wait` goes straight to the
    /// asleep → re-check → park path.
    fn no_prelude() -> Backoff {
        Backoff::with_limits(0, 0, Duration::ZERO)
    }

    /// Pops one message, sleeping on *every* empty poll.
    fn pop_sleeping<T>(rx: &Inbox<T>) -> Option<T> {
        let mut backoff = no_prelude();
        loop {
            match rx.pop() {
                Ok(v) => return Some(v),
                Err(PopState::Disconnected) => return None,
                Err(PopState::Empty) => rx.wait(&mut backoff),
            }
        }
    }

    /// Joins `handles`; a lost wake-up shows as `progress` standing still,
    /// and fails the test after 10 s of that instead of hanging it.
    fn join_unless_stalled(handles: Vec<JoinHandle<()>>, progress: &AtomicU64) {
        let mut seen = progress.load(Ordering::Relaxed);
        let mut since = Instant::now();
        while !handles.iter().all(JoinHandle::is_finished) {
            std::thread::sleep(Duration::from_millis(5));
            let now = progress.load(Ordering::Relaxed);
            if now != seen {
                (seen, since) = (now, Instant::now());
            }
            assert!(
                since.elapsed() < Duration::from_secs(10),
                "stalled after {seen} rounds: a wake-up was lost"
            );
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    /// Spins until the receiver has published `asleep`, so the next send or
    /// drop is one that has to wake it.
    fn until_asleep<T>(shared: &Shared<T>) {
        while !shared.asleep.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
    }

    /// `rounds` ping-pong round trips split over `clients` senders. Both
    /// directions sleep on every empty poll, so every round needs two
    /// wake-ups to get through; the clients alternate `send`/`send_many`,
    /// and the server only ends through the last-drop wake.
    fn ping_pong(clients: u64, rounds: u64) {
        let progress = Arc::new(AtomicU64::new(0));
        let (tx, rx) = Inbox::<(usize, u64)>::new();
        let mut replies = Vec::new();
        let mut handles = Vec::new();
        for c in 0..clients as usize {
            let (reply_tx, reply_rx) = Inbox::<u64>::new();
            replies.push(reply_tx);
            let (tx, progress) = (tx.clone(), progress.clone());
            handles.push(std::thread::spawn(move || {
                for i in 0..rounds / clients {
                    if i % 2 == 0 {
                        tx.send((c, i));
                    } else {
                        tx.send_many([(c, i)]);
                    }
                    assert_eq!(pop_sleeping(&reply_rx), Some(i));
                    progress.fetch_add(1, Ordering::Relaxed);
                }
            }));
        }
        drop(tx);
        handles.push(std::thread::spawn(move || {
            while let Some((c, i)) = pop_sleeping(&rx) {
                replies[c].send(i);
            }
        }));
        join_unless_stalled(handles, &progress);
        assert_eq!(progress.load(Ordering::Relaxed), rounds);
    }

    #[test]
    fn no_lost_wakeup_one_sender() {
        ping_pong(1, 200_000);
    }

    #[test]
    fn no_lost_wakeup_four_senders() {
        ping_pong(4, 200_000);
    }

    #[test]
    fn last_sender_drop_wakes_sleeping_receiver() {
        let (tx, rx) = Inbox::<u32>::new();
        let tx2 = tx.clone();
        let shared = rx.shared.clone();
        let h = std::thread::spawn(move || assert_eq!(pop_sleeping(&rx), None));
        until_asleep(&shared);
        drop(tx);
        drop(tx2);
        join_unless_stalled(vec![h], &AtomicU64::new(0));
    }

    #[test]
    fn wake_follows_the_inbox_to_another_thread() {
        // The sleeper is registered per wait, not per inbox: after the
        // inbox moves, a send must unpark the thread sleeping *now*.
        let (tx, mut rx) = Inbox::<u32>::new();
        let shared = rx.shared.clone();
        for round in 0..3 {
            let h = std::thread::spawn(move || {
                assert_eq!(pop_sleeping(&rx), Some(round));
                rx
            });
            until_asleep(&shared);
            tx.send(round);
            rx = h.join().unwrap();
        }
    }

    #[test]
    fn spurious_unpark_does_not_fake_a_message() {
        let (tx, rx) = Inbox::<u32>::new();
        let shared = rx.shared.clone();
        let h = std::thread::spawn(move || pop_sleeping(&rx));
        until_asleep(&shared);
        for _ in 0..100 {
            h.thread().unpark();
        }
        until_asleep(&shared);
        tx.send(5);
        assert_eq!(h.join().unwrap(), Some(5));
    }

    // ------------------------------------ the handshake, enumerated
    //
    // A model of `Inbox::wait` / `Shared::wake_receiver` small enough to
    // run through *every* interleaving: each arm below is one access to
    // shared memory, threads interleave between any two of them, and every
    // step is atomic and immediately visible — sequential consistency,
    // which is what the `SeqCst` accesses of the real code buy.

    #[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
    enum Rx {
        PollLen,
        PollSenders,
        SetAsleep,
        RecheckLen,
        RecheckSenders,
        Park,
        ClearAsleep,
        Disconnected,
    }

    #[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
    enum Tx {
        Push,
        DropSender,
        LoadAsleep,
        SwapAsleep,
        Unpark,
        Gone,
    }

    #[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
    struct Sender {
        pc: Tx,
        /// Sends still to start after the current step.
        sends: u8,
        /// Whether the sender drops after its last send (or leaks).
        drops: bool,
        /// The wake steps in progress belong to the drop.
        dropping: bool,
    }

    impl Sender {
        fn new(sends: u8, drops: bool) -> Self {
            let mut s = Sender {
                pc: Tx::Gone,
                sends,
                drops,
                dropping: false,
            };
            s.next_call();
            s
        }

        /// A `send` or `drop` returned: start the next one.
        fn next_call(&mut self) {
            self.pc = if self.dropping {
                Tx::Gone
            } else if self.sends > 0 {
                self.sends -= 1;
                Tx::Push
            } else if self.drops {
                self.dropping = true;
                Tx::DropSender
            } else {
                Tx::Gone
            };
        }
    }

    #[derive(Clone, PartialEq, Eq, Hash, Debug)]
    struct Model {
        len: u8,
        senders: u8,
        asleep: bool,
        /// The receiver thread's park token.
        token: bool,
        rx: Rx,
        tx: Vec<Sender>,
    }

    impl Model {
        /// The receiver's next step (a pop loop with an exhausted
        /// backoff); `None` while it is blocked in `park` or has exited.
        /// `recheck = false` is the broken protocol the test must catch.
        fn step_receiver(&self, recheck: bool) -> Option<Model> {
            let mut m = self.clone();
            m.rx = match self.rx {
                Rx::PollLen if self.len > 0 => {
                    m.len = 0;
                    Rx::PollLen
                }
                Rx::PollLen => Rx::PollSenders,
                Rx::PollSenders if self.senders > 0 => Rx::SetAsleep,
                // `pop` looks at the queue once more after the last drop.
                Rx::PollSenders if self.len > 0 => Rx::PollLen,
                Rx::PollSenders => Rx::Disconnected,
                Rx::SetAsleep => {
                    m.asleep = true;
                    if recheck {
                        Rx::RecheckLen
                    } else {
                        Rx::Park
                    }
                }
                Rx::RecheckLen if self.len > 0 => Rx::ClearAsleep,
                Rx::RecheckLen => Rx::RecheckSenders,
                Rx::RecheckSenders if self.senders == 0 => Rx::ClearAsleep,
                Rx::RecheckSenders => Rx::Park,
                Rx::Park if self.token => {
                    m.token = false;
                    Rx::ClearAsleep
                }
                Rx::Park | Rx::Disconnected => return None,
                Rx::ClearAsleep => {
                    m.asleep = false;
                    Rx::PollLen
                }
            };
            Some(m)
        }

        /// `park` may return without a token.
        fn spurious_wake(&self) -> Option<Model> {
            (self.rx == Rx::Park).then(|| Model {
                rx: Rx::ClearAsleep,
                ..self.clone()
            })
        }

        fn step_sender(&self, i: usize) -> Option<Model> {
            let mut m = self.clone();
            let s = &mut m.tx[i];
            match s.pc {
                Tx::Gone => return None,
                Tx::Push => {
                    m.len += 1;
                    s.pc = Tx::LoadAsleep;
                }
                Tx::DropSender => {
                    m.senders -= 1;
                    if m.senders == 0 {
                        s.pc = Tx::LoadAsleep;
                    } else {
                        s.next_call();
                    }
                }
                Tx::LoadAsleep if self.asleep => s.pc = Tx::SwapAsleep,
                Tx::SwapAsleep if self.asleep => {
                    m.asleep = false;
                    s.pc = Tx::Unpark;
                }
                Tx::LoadAsleep | Tx::SwapAsleep => s.next_call(),
                Tx::Unpark => {
                    m.token = true;
                    s.next_call();
                }
            }
            Some(m)
        }

        /// No sender will ever act again, and the receiver sits in `park`
        /// with no token while there is something it should react to.
        fn receiver_stranded(&self) -> bool {
            self.tx.iter().all(|s| s.pc == Tx::Gone)
                && self.rx == Rx::Park
                && !self.token
                && (self.len > 0 || self.senders == 0)
        }
    }

    /// Explores every interleaving from the initial state; returns the
    /// number of distinct states and the first stranded one, if any.
    fn explore(senders: &[Sender], recheck: bool) -> (usize, Option<Model>) {
        let start = Model {
            len: 0,
            senders: senders.len() as u8,
            asleep: false,
            token: false,
            rx: Rx::PollLen,
            tx: senders.to_vec(),
        };
        let mut seen = std::collections::HashSet::from([start.clone()]);
        let mut todo = vec![start];
        while let Some(m) = todo.pop() {
            if m.receiver_stranded() {
                return (seen.len(), Some(m));
            }
            let next = (0..m.tx.len())
                .map(|i| m.step_sender(i))
                .chain([m.step_receiver(recheck), m.spurious_wake()]);
            for n in next.flatten() {
                if seen.insert(n.clone()) {
                    todo.push(n);
                }
            }
        }
        (seen.len(), None)
    }

    /// One or two sends, from one or two senders, with and without the
    /// final drop.
    fn handshake_scenarios() -> Vec<Vec<Sender>> {
        let mut all = Vec::new();
        for drops in [false, true] {
            all.push(vec![Sender::new(1, drops)]);
            all.push(vec![Sender::new(2, drops)]);
            all.push(vec![Sender::new(1, drops), Sender::new(1, drops)]);
            all.push(vec![Sender::new(0, true), Sender::new(1, drops)]);
        }
        all
    }

    #[test]
    fn handshake_never_strands_the_receiver_in_any_interleaving() {
        for scenario in handshake_scenarios() {
            let (states, stranded) = explore(&scenario, true);
            assert!(states > 20, "model explored only {states} states");
            assert_eq!(stranded, None, "{scenario:?} strands the receiver");
        }
    }

    #[test]
    fn enumeration_catches_a_missing_recheck() {
        // Without the re-check a send that completes before `asleep` is
        // published is never noticed: the model must find that schedule
        // in every scenario, or it proves nothing above.
        for scenario in handshake_scenarios() {
            let (_, stranded) = explore(&scenario, false);
            assert!(
                stranded.is_some(),
                "{scenario:?}: missing re-check not caught"
            );
        }
    }
}
