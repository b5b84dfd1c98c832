//! Deterministic, cancellable event queue with re-armable timer slots.
//!
//! A classic discrete-event-simulation future-event list. Two properties
//! matter for this workspace:
//!
//! 1. **Determinism** — events due at the same timestamp pop in the order
//!    they were scheduled (FIFO tie-break via a sequence counter), so a
//!    simulation never depends on heap internals.
//! 2. **Cancellation** — timers (scheduler ticks, RR time slices, message
//!    deliveries) are frequently re-armed. The queue is an *indexed* binary
//!    min-heap over a slot table: every pending event owns a slot that
//!    records its heap position, so [`EventQueue::cancel`] removes the entry
//!    in place in O(log n). Nothing dead ever sits in the heap.
//!
//! An [`EventId`] packs `(slot, generation)`. Popping or cancelling an event
//! frees its slot and bumps the slot's generation, so a stale id — already
//! fired, already cancelled, or pointing at a slot since reused by a later
//! event — no longer matches and `cancel` reports `false` after one
//! comparison. Freed slots are reused, so memory is bounded by the peak
//! number of simultaneously pending events, however long a cancel/re-arm
//! loop runs.
//!
//! Beside the heap sits a fixed set of *timer slots*
//! ([`EventQueue::with_timers`]): per-owner timers, such as a CPU's tick,
//! that are re-armed after nearly every event. A slot holds at most one
//! pending `(time, seq)` and carries no payload; [`EventQueue::arm`] draws
//! its `seq` from the same counter as [`EventQueue::schedule`], and
//! [`EventQueue::pop_due`] merges the slots with the heap head under the one
//! `(time, seq)` order. So re-arming a slot fires at exactly the time and in
//! exactly the tie order of a `cancel` followed by a `schedule`, without
//! touching the heap. The telemetry counters keep that meaning too: an arm
//! counts one `scheduled`, replacing or disarming a pending arming counts
//! one `cancelled`, and a slot coming due counts one `processed`.

use crate::time::SimTime;

/// Handle to a scheduled event, usable for cancellation: a slot index in
/// the low 32 bits and that slot's generation in the high 32 bits.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct EventId(u64);

impl EventId {
    /// A handle that never corresponds to a live event. Useful as an
    /// initializer for "no timer armed" fields.
    pub const NONE: EventId = EventId(u64::MAX);

    fn new(slot: u32, generation: u32) -> EventId {
        EventId((u64::from(generation) << 32) | u64::from(slot))
    }

    fn slot(self) -> usize {
        (self.0 & u64::from(u32::MAX)) as usize
    }

    fn generation(self) -> u32 {
        (self.0 >> 32) as u32
    }
}

/// An event popped from the queue: when it fires and its payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduledEvent<E> {
    pub time: SimTime,
    pub id: EventId,
    pub payload: E,
}

/// What [`EventQueue::pop_due`] hands back: a heap event or a timer slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Due<E> {
    /// A scheduled event left the heap.
    Event(ScheduledEvent<E>),
    /// Timer slot `timer` came due at `time`; it is disarmed now.
    Timer { time: SimTime, timer: usize },
}

impl<E> Due<E> {
    /// The instant the event or timer fires.
    pub fn time(&self) -> SimTime {
        match self {
            Due::Event(ev) => ev.time,
            Due::Timer { time, .. } => *time,
        }
    }
}

struct Entry<E> {
    time: SimTime,
    /// Scheduling order; unique, so `(time, seq)` is a total order.
    seq: u64,
    slot: u32,
    payload: E,
}

impl<E> Entry<E> {
    fn before(&self, other: &Entry<E>) -> bool {
        (self.time, self.seq) < (other.time, other.seq)
    }
}

/// Heap position of a vacant slot.
const VACANT: u32 = u32::MAX;

#[derive(Clone, Copy)]
struct Slot {
    generation: u32,
    /// Index of the slot's entry in the heap, or [`VACANT`].
    pos: u32,
}

/// Telemetry handles for one event queue, fed by
/// [`EventQueue::publish_counters`].
#[derive(Clone)]
pub struct EventQueueCounters {
    pub scheduled: telemetry::Counter,
    pub cancelled: telemetry::Counter,
    pub processed: telemetry::Counter,
}

impl EventQueueCounters {
    /// Registers the three queue counters under `prefix` (e.g.
    /// `sim.events`) in `registry`.
    pub fn register(registry: &telemetry::MetricsRegistry, prefix: &str) -> Self {
        EventQueueCounters {
            scheduled: registry.counter(&format!("{prefix}.scheduled")),
            cancelled: registry.counter(&format!("{prefix}.cancelled")),
            processed: registry.counter(&format!("{prefix}.processed")),
        }
    }
}

/// Future-event list: an indexed binary min-heap on `(time, seq)` plus
/// a fixed set of timer slots under the same order.
pub struct EventQueue<E> {
    heap: Vec<Entry<E>>,
    slots: Vec<Slot>,
    /// Vacant slots, reused last-freed first.
    free: Vec<u32>,
    /// Timer slots: the pending `(time, seq)` of each, `None` if disarmed.
    timers: Vec<Option<(SimTime, u64)>>,
    next_seq: u64,
    last_popped: SimTime,
    counters: Option<EventQueueCounters>,
    tally: Tally,
}

/// Queue operations counted since the last publish.
#[derive(Default)]
struct Tally {
    scheduled: u64,
    cancelled: u64,
    processed: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    pub fn new() -> Self {
        Self::with_timers(0)
    }

    /// A queue with `timers` timer slots, numbered `0..timers`, all
    /// disarmed.
    pub fn with_timers(timers: usize) -> Self {
        EventQueue {
            heap: Vec::new(),
            slots: Vec::new(),
            free: Vec::new(),
            timers: vec![None; timers],
            next_seq: 0,
            last_popped: SimTime::ZERO,
            counters: None,
            tally: Tally::default(),
        }
    }

    /// Attach telemetry counters; subsequent operations are counted and
    /// reach them at the next [`EventQueue::publish_counters`]. Counts
    /// start from this call (not retroactive).
    pub fn attach_counters(&mut self, counters: EventQueueCounters) {
        self.tally = Tally::default();
        self.counters = Some(counters);
    }

    /// Add the operations counted since the last publish to the attached
    /// counters. Counting is a plain increment on the queue; the shared
    /// atomic counters are touched only here, so an owner publishes at its
    /// own API boundaries (the kernel does before every public call
    /// returns) and the counters read exact totals between them.
    pub fn publish_counters(&mut self) {
        let tally = std::mem::take(&mut self.tally);
        if let Some(c) = &self.counters {
            for (counter, n) in [
                (&c.scheduled, tally.scheduled),
                (&c.cancelled, tally.cancelled),
                (&c.processed, tally.processed),
            ] {
                if n > 0 {
                    counter.add(n);
                }
            }
        }
    }

    /// Number of pending events, armed timer slots included.
    pub fn len(&self) -> usize {
        self.heap.len() + self.timers.iter().filter(|t| t.is_some()).count()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Size of the slot table: the peak number of simultaneously pending
    /// events so far. Diagnostic/test use.
    pub fn slot_capacity(&self) -> usize {
        self.slots.len()
    }

    /// Schedule `payload` to fire at absolute time `time`.
    ///
    /// # Panics
    /// In debug builds, panics if `time` is before the last popped event —
    /// scheduling into the past is always a simulation bug.
    pub fn schedule(&mut self, time: SimTime, payload: E) -> EventId {
        debug_assert!(
            time >= self.last_popped,
            "scheduling into the past: {time:?} < {:?}",
            self.last_popped
        );
        let slot = match self.free.pop() {
            Some(slot) => slot,
            None => {
                let slot = u32::try_from(self.slots.len())
                    .ok()
                    .filter(|&s| s != VACANT)
                    .expect("more than u32::MAX - 1 pending events");
                self.slots.push(Slot { generation: 0, pos: VACANT });
                slot
            }
        };
        let seq = self.take_seq();
        let pos = self.heap.len();
        self.heap.push(Entry { time, seq, slot, payload });
        self.sift_up(pos);
        self.tally.scheduled += 1;
        EventId::new(slot, self.slots[slot as usize].generation)
    }

    /// Cancel a previously scheduled event. Returns `true` if the event was
    /// still pending (i.e. this call prevented it from firing).
    pub fn cancel(&mut self, id: EventId) -> bool {
        if !self.is_pending(id) {
            return false;
        }
        let pos = self.slots[id.slot()].pos as usize;
        let entry = self.remove_at(pos);
        self.release(entry.slot);
        self.tally.cancelled += 1;
        true
    }

    /// True while `id` is scheduled and has neither fired nor been
    /// cancelled.
    pub fn is_pending(&self, id: EventId) -> bool {
        self.slots
            .get(id.slot())
            .is_some_and(|s| s.pos != VACANT && s.generation == id.generation())
    }

    /// Arm timer slot `timer` to come due at `time`, replacing any pending
    /// arming. The arming takes the next `seq`, so it orders against heap
    /// events exactly as a `cancel` plus `schedule` would.
    ///
    /// # Panics
    /// If `timer` is out of range. In debug builds, also if `time` is
    /// before the last popped event.
    pub fn arm(&mut self, timer: usize, time: SimTime) {
        debug_assert!(
            time >= self.last_popped,
            "arming into the past: {time:?} < {:?}",
            self.last_popped
        );
        self.disarm(timer);
        self.timers[timer] = Some((time, self.take_seq()));
        self.tally.scheduled += 1;
    }

    /// Disarm timer slot `timer`. Returns `true` if it was armed (i.e.
    /// this call prevented it from coming due).
    pub fn disarm(&mut self, timer: usize) -> bool {
        let armed = self.timers[timer].take().is_some();
        if armed {
            self.tally.cancelled += 1;
        }
        armed
    }

    /// True while timer slot `timer` is armed.
    pub fn is_armed(&self, timer: usize) -> bool {
        self.timers[timer].is_some()
    }

    /// Timestamp of the next pending event or timer, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        let timer = self.first_timer().map(|(_, (time, _))| time);
        self.heap.first().map(|e| e.time).into_iter().chain(timer).min()
    }

    /// Pop whichever comes first in `(time, seq)` order: the heap head or
    /// an armed timer slot (which is disarmed by coming due).
    pub fn pop_due(&mut self) -> Option<Due<E>> {
        let heap = self.heap.first().map(|e| (e.time, e.seq));
        let due = match self.first_timer() {
            Some((timer, key)) if heap.is_none_or(|h| key < h) => {
                self.timers[timer] = None;
                Due::Timer { time: key.0, timer }
            }
            _ if heap.is_some() => {
                let entry = self.remove_at(0);
                let id = EventId::new(entry.slot, self.slots[entry.slot as usize].generation);
                self.release(entry.slot);
                Due::Event(ScheduledEvent { time: entry.time, id, payload: entry.payload })
            }
            _ => return None,
        };
        self.last_popped = due.time();
        self.tally.processed += 1;
        Some(due)
    }

    /// Pop the next pending event of a queue whose timer slots are all
    /// disarmed (for instance one built with [`EventQueue::new`]).
    ///
    /// # Panics
    /// If an armed timer slot comes due first; such queues pop through
    /// [`EventQueue::pop_due`].
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        match self.pop_due()? {
            Due::Event(ev) => Some(ev),
            Due::Timer { timer, .. } => panic!("timer slot {timer} came due in pop(); use pop_due"),
        }
    }

    /// Drop all pending events and disarm every timer slot; event ids
    /// become stale.
    pub fn clear(&mut self) {
        for pos in 0..self.heap.len() {
            self.release(self.heap[pos].slot);
        }
        self.heap.clear();
        self.timers.fill(None);
    }

    fn take_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// The armed timer slot with the least `(time, seq)`, and that key.
    fn first_timer(&self) -> Option<(usize, (SimTime, u64))> {
        let armed = self.timers.iter().enumerate();
        armed.filter_map(|(timer, key)| Some((timer, (*key)?))).min_by_key(|&(_, key)| key)
    }

    /// Vacate `slot` and bump its generation so every id issued for it
    /// goes stale. A slot whose generation would wrap is retired instead of
    /// reused, so a stale id can never alias a later event.
    fn release(&mut self, slot: u32) {
        let s = &mut self.slots[slot as usize];
        s.pos = VACANT;
        if let Some(generation) = s.generation.checked_add(1) {
            s.generation = generation;
            self.free.push(slot);
        }
    }

    /// Remove and return the entry at heap position `pos`, restoring the
    /// heap property around the entry moved into its place.
    fn remove_at(&mut self, pos: usize) -> Entry<E> {
        let entry = self.heap.swap_remove(pos);
        if pos < self.heap.len() {
            self.sift_down(pos);
            self.sift_up(pos);
        }
        entry
    }

    fn sift_up(&mut self, mut pos: usize) {
        while pos > 0 {
            let parent = (pos - 1) / 2;
            if !self.heap[pos].before(&self.heap[parent]) {
                break;
            }
            self.heap.swap(pos, parent);
            self.place(pos);
            pos = parent;
        }
        self.place(pos);
    }

    fn sift_down(&mut self, mut pos: usize) {
        let n = self.heap.len();
        loop {
            let left = 2 * pos + 1;
            if left >= n {
                break;
            }
            let right = left + 1;
            let child =
                if right < n && self.heap[right].before(&self.heap[left]) { right } else { left };
            if !self.heap[child].before(&self.heap[pos]) {
                break;
            }
            self.heap.swap(pos, child);
            self.place(pos);
            pos = child;
        }
        self.place(pos);
    }

    /// Record in its slot that the entry at `pos` lives there.
    fn place(&mut self, pos: usize) {
        self.slots[self.heap[pos].slot as usize].pos = pos as u32;
    }
}

impl<E: crate::snapshot::Snapshot> EventQueue<E> {
    /// Byte-stable encoding of the queue's logical state. Heap layout is
    /// an implementation detail, so pending entries are emitted sorted by
    /// their `(time, seq)` total order, each with its slot. The slot
    /// generations and the free-slot order ride along, so ids issued before
    /// the snapshot keep their exact `cancel` semantics after a restore and
    /// the restored queue issues the same ids as the original. The timer
    /// slots follow, each as its pending `(time, seq)` or nothing.
    pub fn snapshot(&self, w: &mut crate::snapshot::SnapshotWriter) {
        let mut entries: Vec<&Entry<E>> = self.heap.iter().collect();
        entries.sort_by_key(|e| (e.time, e.seq));
        w.put_len(entries.len());
        for e in entries {
            w.put(&e.time);
            w.put_u64(e.seq);
            w.put_u32(e.slot);
            w.put(&e.payload);
        }
        w.put_u64(self.next_seq);
        w.put(&self.slots.iter().map(|s| s.generation).collect::<Vec<u32>>());
        w.put(&self.free);
        w.put(&self.last_popped);
        w.put(&self.timers);
    }

    /// Rebuild a queue from [`EventQueue::snapshot`] bytes. Counters are
    /// not restored (attach fresh ones if wanted); pop order and
    /// cancellation semantics are exactly those of the snapshotted queue.
    /// Inconsistent slot bookkeeping is a typed error, never a panic.
    pub fn restore(
        r: &mut crate::snapshot::SnapshotReader<'_>,
    ) -> Result<EventQueue<E>, crate::snapshot::SnapshotError> {
        use crate::snapshot::SnapshotError::Malformed;
        let n = r.get_len()?;
        let mut entries = Vec::new();
        for _ in 0..n {
            let time: SimTime = r.get()?;
            let seq = r.get_u64()?;
            let slot = r.get_u32()?;
            let payload: E = r.get()?;
            entries.push(Entry { time, seq, slot, payload });
        }
        let next_seq = r.get_u64()?;
        let generations: Vec<u32> = r.get()?;
        let free: Vec<u32> = r.get()?;
        let last_popped: SimTime = r.get()?;
        let timers: Vec<Option<(SimTime, u64)>> = r.get()?;

        if generations.len() >= VACANT as usize {
            return Err(Malformed("event queue slot table too large"));
        }
        // Every slot is pending at most once or free at most once, never both.
        let mut claimed = vec![false; generations.len()];
        let mut claim = |slot: u32| match claimed.get_mut(slot as usize) {
            Some(taken) if !*taken => {
                *taken = true;
                Ok(())
            }
            Some(_) => Err(Malformed("event slot listed twice")),
            None => Err(Malformed("event slot out of range")),
        };
        for e in &entries {
            if e.seq >= next_seq {
                return Err(Malformed("event seq not below next_seq"));
            }
            claim(e.slot)?;
        }
        if timers.iter().flatten().any(|&(_, seq)| seq >= next_seq) {
            return Err(Malformed("timer seq not below next_seq"));
        }
        for &slot in &free {
            claim(slot)?;
        }
        let slots = generations.into_iter().map(|generation| Slot { generation, pos: VACANT });
        let mut queue = EventQueue {
            heap: entries,
            slots: slots.collect(),
            free,
            timers,
            next_seq,
            last_popped,
            counters: None,
            tally: Tally::default(),
        };
        for pos in 0..queue.heap.len() {
            queue.sift_up(pos);
        }
        Ok(queue)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(t(30), "c");
        q.schedule(t(10), "a");
        q.schedule(t(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, ["a", "b", "c"]);
    }

    #[test]
    fn same_time_pops_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(t(5), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn cancel_suppresses_event() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(10), "a");
        q.schedule(t(20), "b");
        assert!(q.cancel(a));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().unwrap().payload, "b");
        assert!(q.pop().is_none());
    }

    #[test]
    fn double_cancel_and_cancel_after_fire_return_false() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(10), "a");
        assert!(q.cancel(a));
        assert!(!q.cancel(a));

        let b = q.schedule(t(20), "b");
        assert!(q.is_pending(b));
        assert_eq!(q.pop().unwrap().payload, "b");
        assert!(!q.cancel(b));
        assert!(!q.is_pending(b));
    }

    #[test]
    fn stale_id_does_not_cancel_the_slots_next_event() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(10), "a");
        assert!(q.cancel(a));
        // The freed slot is reused at a new generation.
        let b = q.schedule(t(20), "b");
        assert_ne!(a, b);
        assert!(!q.cancel(a), "stale id must not hit the reused slot");
        assert!(q.is_pending(b));
        assert_eq!(q.pop().unwrap().id, b);
    }

    #[test]
    fn cancel_none_is_noop() {
        let mut q = EventQueue::<()>::new();
        assert!(!q.cancel(EventId::NONE));
        q.schedule(t(1), ());
        assert!(!q.cancel(EventId::NONE));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn peek_skips_cancelled() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(10), "a");
        q.schedule(t(20), "b");
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(t(20)));
    }

    #[test]
    fn len_tracks_live_events() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        let a = q.schedule(t(1), 1);
        q.schedule(t(2), 2);
        assert_eq!(q.len(), 2);
        q.cancel(a);
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn clear_empties_queue() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1), 1);
        q.schedule(t(2), 2);
        q.clear();
        assert!(q.is_empty());
        assert!(q.pop().is_none());
        assert!(!q.cancel(a));
    }

    #[test]
    fn cancel_rearm_loop_keeps_slot_table_bounded() {
        // A timer wheel pattern: every iteration cancels the armed timer
        // and re-arms it later. The freed slot is reused each time.
        let mut q = EventQueue::new();
        let mut armed = q.schedule(t(10), 0u32);
        for i in 0..10_000u64 {
            assert!(q.cancel(armed));
            armed = q.schedule(t(10 + i), 1);
        }
        assert_eq!(q.len(), 1, "exactly one live timer");
        assert_eq!(q.slot_capacity(), 1, "the slot table never grows past peak live");
        assert_eq!(q.pop().unwrap().payload, 1, "the live timer still fires");
        assert!(q.pop().is_none());
    }

    #[test]
    fn cancellation_preserves_pop_order_and_cancel_semantics() {
        let mut q = EventQueue::new();
        let mut keep = Vec::new();
        let mut dead = Vec::new();
        for i in 0..200u64 {
            let id = q.schedule(t(1000 - i), i);
            if i % 4 == 0 {
                keep.push((1000 - i, i));
            } else {
                dead.push(id);
            }
        }
        for id in &dead {
            assert!(q.cancel(*id));
        }
        assert_eq!(q.len(), 50, "cancelled entries leave the heap at once");
        for id in dead {
            assert!(!q.cancel(id), "cancelled ids stay cancelled");
        }
        keep.sort();
        let popped: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(popped, keep.iter().map(|&(_, i)| i).collect::<Vec<_>>());
    }

    #[test]
    fn exhausted_slot_is_retired_not_reused() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1), 0u8);
        q.slots[0].generation = u32::MAX;
        let a_max = EventId::new(0, u32::MAX);
        assert!(q.cancel(a_max));
        assert!(!q.cancel(a));
        let b = q.schedule(t(2), 1);
        assert_eq!(b.slot(), 1, "slot 0 cannot take another generation");
        assert!(!q.cancel(a_max), "the retired slot stays vacant");
        assert!(q.cancel(b));
    }

    #[test]
    fn timers_and_heap_events_share_one_seq_order() {
        let mut q = EventQueue::with_timers(2);
        q.schedule(t(10), "heap-a");
        q.arm(0, t(10));
        q.schedule(t(10), "heap-b");
        q.arm(1, t(5));
        // Re-arming timer 0 draws a fresh seq: it now ties after heap-b.
        q.arm(0, t(10));
        q.schedule(t(10), "heap-c");
        assert_eq!(q.len(), 5);
        assert_eq!(q.peek_time(), Some(t(5)));
        let order: Vec<String> = std::iter::from_fn(|| q.pop_due())
            .map(|due| match due {
                Due::Event(ev) => format!("{}@{}", ev.payload, ev.time.as_nanos() / 1_000_000),
                Due::Timer { time, timer } => {
                    format!("timer{timer}@{}", time.as_nanos() / 1_000_000)
                }
            })
            .collect();
        assert_eq!(order, ["timer1@5", "heap-a@10", "heap-b@10", "timer0@10", "heap-c@10"]);
        assert!(q.is_empty());
        assert!(!q.is_armed(0), "a timer that came due is disarmed");
    }

    #[test]
    fn disarm_reports_whether_the_timer_was_armed() {
        let mut q = EventQueue::<()>::with_timers(1);
        assert!(!q.disarm(0));
        q.arm(0, t(3));
        assert!(q.is_armed(0));
        assert!(q.disarm(0));
        assert!(!q.disarm(0));
        assert!(q.pop_due().is_none());
        q.arm(0, t(4));
        q.clear();
        assert!(!q.is_armed(0), "clear disarms every timer");
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn timer_counts_match_cancel_plus_schedule_once_published() {
        let registry = telemetry::MetricsRegistry::new();
        let mut q = EventQueue::with_timers(2);
        q.attach_counters(EventQueueCounters::register(&registry, "q"));
        q.arm(0, t(1)); // scheduled 1
        q.arm(0, t(2)); // cancelled 1, scheduled 2
        q.arm(1, t(3)); // scheduled 3
        assert!(q.disarm(1)); // cancelled 2
        assert!(!q.disarm(1)); // nothing was armed
        let e = q.schedule(t(2), 7u8); // scheduled 4
        assert!(q.cancel(e)); // cancelled 3
        q.schedule(t(2), 8); // scheduled 5
        let counts = |r: &telemetry::MetricsRegistry| {
            let snap = r.snapshot();
            ["q.scheduled", "q.cancelled", "q.processed"].map(|n| snap.counter(n))
        };
        assert_eq!(counts(&registry), [0, 0, 0], "nothing reaches telemetry before a publish");
        q.publish_counters();
        assert_eq!(counts(&registry), [5, 3, 0]);
        assert!(matches!(q.pop_due(), Some(Due::Timer { timer: 0, .. })));
        assert!(matches!(q.pop_due(), Some(Due::Event(_))));
        q.publish_counters();
        q.publish_counters();
        assert_eq!(counts(&registry), [5, 3, 2], "publishing is idempotent between operations");
    }

    #[test]
    #[should_panic(expected = "came due in pop()")]
    fn pop_refuses_a_due_timer() {
        let mut q = EventQueue::<u8>::with_timers(1);
        q.arm(0, t(1));
        q.pop();
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    #[cfg(debug_assertions)]
    fn scheduling_into_past_panics_in_debug() {
        let mut q = EventQueue::new();
        q.schedule(t(10), "a");
        q.pop();
        q.schedule(t(5), "late");
    }

    fn snap_bytes(q: &EventQueue<u64>) -> Vec<u8> {
        let mut w = crate::snapshot::SnapshotWriter::new();
        q.snapshot(&mut w);
        w.finish()
    }

    fn restore_bytes(bytes: &[u8]) -> Result<EventQueue<u64>, crate::snapshot::SnapshotError> {
        let mut r = crate::snapshot::SnapshotReader::new(bytes)?;
        let q = EventQueue::restore(&mut r)?;
        r.finish()?;
        Ok(q)
    }

    #[test]
    fn snapshot_round_trips_pop_order_and_cancel_semantics() {
        let mut q = EventQueue::new();
        let mut ids = Vec::new();
        for i in 0..50u64 {
            ids.push(q.schedule(t(1000 - i), i));
        }
        // A popped event, a cancelled one, and plenty pending.
        let fired = q.schedule(t(1), 999);
        assert_eq!(q.pop().unwrap().payload, 999);
        let dead = ids[7];
        assert!(q.cancel(dead));

        let mut back = restore_bytes(&snap_bytes(&q)).unwrap();

        assert_eq!(back.len(), q.len());
        // Restored cancel semantics: re-cancelling the dead id and the
        // fired id still report false; a live id still cancels.
        assert!(!back.cancel(dead));
        assert!(!back.cancel(fired));
        let live = ids[3];
        assert!(back.cancel(live));
        assert!(q.cancel(live));
        // Both queues hand out the same id next.
        assert_eq!(back.schedule(t(2000), 7), q.schedule(t(2000), 7));

        let a: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| (e.time, e.id, e.payload))).collect();
        let b: Vec<_> =
            std::iter::from_fn(|| back.pop().map(|e| (e.time, e.id, e.payload))).collect();
        assert_eq!(a, b, "pop order survives the round trip");
    }

    #[test]
    fn snapshot_round_trips_timer_slots() {
        let mut q = EventQueue::with_timers(3);
        q.arm(2, t(7));
        q.schedule(t(7), 1u64);
        q.arm(0, t(7));
        let mut back = restore_bytes(&snap_bytes(&q)).unwrap();
        assert!(back.is_armed(0) && !back.is_armed(1) && back.is_armed(2));
        // The restored queue draws the same next seq.
        q.arm(1, t(7));
        back.arm(1, t(7));
        let drain = |q: &mut EventQueue<u64>| -> Vec<Due<u64>> {
            std::iter::from_fn(|| q.pop_due()).collect()
        };
        assert_eq!(drain(&mut back), drain(&mut q));
    }

    #[test]
    fn equal_queues_produce_equal_snapshot_bytes() {
        // Same logical state via different histories: one queue schedules
        // in ascending order, the other descending — entries are emitted
        // in (time, seq)-sorted order, so only the live set, its seqs and
        // slots, and the slot bookkeeping matter.
        let mut a = EventQueue::new();
        for i in 0..10u64 {
            a.schedule(t(10 + i), i);
        }
        let mut b = EventQueue::new();
        for i in (0..10u64).rev() {
            b.schedule(t(10 + i), i);
        }
        // Histories differ, so the seq bookkeeping differs — but a queue
        // snapshotted twice without mutation is always byte-identical.
        assert_eq!(snap_bytes(&a), snap_bytes(&a));
        assert_ne!(snap_bytes(&a), snap_bytes(&b), "different seq assignment is visible state");

        // And a restore of a restores bytes exactly.
        let bytes = snap_bytes(&a);
        let back = restore_bytes(&bytes).unwrap();
        assert_eq!(snap_bytes(&back), bytes, "snapshot∘restore is the identity on bytes");
    }

    #[test]
    fn restore_rejects_a_timer_seq_at_or_past_next_seq() {
        use crate::snapshot::{SnapshotError, SnapshotWriter};
        // An empty heap, next_seq 5, and one armed timer at `seq`.
        let encode = |seq: u64| {
            let mut w = SnapshotWriter::new();
            w.put_len(0);
            w.put_u64(5);
            w.put(&Vec::<u32>::new());
            w.put(&Vec::<u32>::new());
            w.put(&SimTime::ZERO);
            w.put(&vec![None, Some((t(1), seq))]);
            w.finish()
        };
        assert!(restore_bytes(&encode(4)).is_ok_and(|q| q.is_armed(1)));
        assert!(matches!(restore_bytes(&encode(5)), Err(SnapshotError::Malformed(_))));
    }

    #[test]
    fn restore_rejects_inconsistent_slots() {
        use crate::snapshot::{SnapshotError, SnapshotWriter};
        // One pending entry at slot `slot`, a table of `gens` slots, and
        // the given free list.
        let encode = |slot: u32, gens: usize, free: Vec<u32>, seq: u64| {
            let mut w = SnapshotWriter::new();
            w.put_len(1);
            w.put(&t(1));
            w.put_u64(seq);
            w.put_u32(slot);
            w.put_u64(5);
            w.put_u64(1);
            w.put(&vec![0u32; gens]);
            w.put(&free);
            w.put(&SimTime::ZERO);
            w.put(&Vec::<Option<(SimTime, u64)>>::new());
            w.finish()
        };
        assert!(restore_bytes(&encode(0, 2, vec![1], 0)).is_ok());
        for (bytes, what) in [
            (encode(3, 2, vec![], 0), "slot out of range"),
            (encode(0, 2, vec![0], 0), "pending slot on the free list"),
            (encode(0, 2, vec![1, 1], 0), "free slot listed twice"),
            (encode(0, 2, vec![7], 0), "free slot out of range"),
            (encode(0, 2, vec![], 1), "seq not below next_seq"),
        ] {
            assert!(
                matches!(restore_bytes(&bytes), Err(SnapshotError::Malformed(_))),
                "{what} must be a typed error"
            );
        }
    }
}
