//! Property tests for the discrete-event core.

use proptest::prelude::*;
use simcore::{Due, EventId, EventQueue, EventQueueCounters, OnlineStats, SimDuration, SimTime};

/// Reference model of the event queue: pending events in a plain `Vec`,
/// the next one found by a linear scan for the least `(time, seq)`.
#[derive(Default)]
struct ModelQueue {
    pending: Vec<(SimTime, u64, EventId)>,
    next_seq: u64,
}

impl ModelQueue {
    fn schedule(&mut self, time: SimTime, id: EventId) {
        self.pending.push((time, self.next_seq, id));
        self.next_seq += 1;
    }

    fn cancel(&mut self, id: EventId) -> bool {
        let Some(i) = self.pending.iter().position(|e| e.2 == id) else { return false };
        self.pending.remove(i);
        true
    }

    fn pop(&mut self) -> Option<(SimTime, u64, EventId)> {
        let i = (0..self.pending.len()).min_by_key(|&i| (self.pending[i].0, self.pending[i].1))?;
        Some(self.pending.remove(i))
    }
}

/// What the reference queue of `timers_match_cancel_plus_schedule` holds:
/// a timer arming or an ordinary event.
#[derive(Clone, Copy, Debug, PartialEq)]
enum RefPayload {
    Timer(usize),
    Event(u64),
}

/// The `(time, what)` pairs a queue's next pop yields, timers and events
/// told apart the same way for both queues.
fn slot_pop(q: &mut EventQueue<u64>) -> Option<(SimTime, RefPayload)> {
    q.pop_due().map(|due| match due {
        Due::Timer { time, timer } => (time, RefPayload::Timer(timer)),
        Due::Event(ev) => (ev.time, RefPayload::Event(ev.payload)),
    })
}

fn published(registry: &telemetry::MetricsRegistry) -> [u64; 3] {
    let snap = registry.snapshot();
    ["q.scheduled", "q.cancelled", "q.processed"].map(|n| snap.counter(n))
}

proptest! {
    /// Events pop in (time, insertion-order) order regardless of insertion
    /// pattern.
    #[test]
    fn queue_pops_in_time_then_fifo_order(times in proptest::collection::vec(0u64..10_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime(t), i);
        }
        let mut popped = Vec::new();
        while let Some(ev) = q.pop() {
            popped.push((ev.time.as_nanos(), ev.payload));
        }
        prop_assert_eq!(popped.len(), times.len());
        for w in popped.windows(2) {
            prop_assert!(w[0].0 <= w[1].0, "time order");
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1, "FIFO within a timestamp");
            }
        }
    }

    /// Cancelling an arbitrary subset suppresses exactly those events.
    #[test]
    fn cancellation_is_exact(
        times in proptest::collection::vec(0u64..1_000, 1..100),
        cancel_mask in proptest::collection::vec(any::<bool>(), 1..100),
    ) {
        let mut q = EventQueue::new();
        let ids: Vec<_> = times.iter().enumerate().map(|(i, &t)| q.schedule(SimTime(t), i)).collect();
        let mut expected: Vec<usize> = Vec::new();
        for (i, id) in ids.iter().enumerate() {
            let cancel = *cancel_mask.get(i).unwrap_or(&false);
            if cancel {
                prop_assert!(q.cancel(*id));
            } else {
                expected.push(i);
            }
        }
        let mut popped: Vec<usize> = Vec::new();
        while let Some(ev) = q.pop() {
            popped.push(ev.payload);
        }
        popped.sort_unstable();
        expected.sort_unstable();
        prop_assert_eq!(popped, expected);
    }

    /// Differential test against [`ModelQueue`]: random schedule, cancel
    /// and pop sequences agree on pop order (FIFO ties included), every
    /// `cancel` result and `len()`. Cancels draw from every id ever issued,
    /// so they re-cancel ids that already fired or were cancelled and whose
    /// slots have since been reused by later events. The slot table never
    /// outgrows the peak number of pending events.
    #[test]
    fn queue_matches_reference_model(
        ops in proptest::collection::vec((0u8..10, 0u64..8, 0usize..1_000), 1..400),
    ) {
        let mut q = EventQueue::new();
        let mut model = ModelQueue::default();
        let mut issued: Vec<EventId> = Vec::new();
        let mut now = SimTime::ZERO;
        let mut peak = 0;
        for (op, dt, pick) in ops {
            match op {
                // Schedule; small offsets make same-time ties common.
                0..=3 => {
                    let time = SimTime(now.as_nanos() + dt);
                    let id = q.schedule(time, model.next_seq);
                    prop_assert!(!issued.contains(&id), "ids are never reissued");
                    model.schedule(time, id);
                    issued.push(id);
                }
                // Cancel any id ever issued: pending, fired, cancelled or
                // stale over a reused slot.
                4..=6 if !issued.is_empty() => {
                    let id = issued[pick % issued.len()];
                    prop_assert_eq!(q.is_pending(id), model.pending.iter().any(|e| e.2 == id));
                    prop_assert_eq!(q.cancel(id), model.cancel(id), "cancel result");
                }
                _ => {
                    let got = q.pop().map(|e| (e.time, e.payload, e.id));
                    prop_assert_eq!(got, model.pop(), "pop order");
                    if let Some((time, _, _)) = got {
                        now = time;
                    }
                }
            }
            peak = peak.max(model.pending.len());
            prop_assert_eq!(q.len(), model.pending.len());
            let slots = q.slot_capacity();
            prop_assert!(slots <= peak, "slot table {slots} > peak live {peak}");
        }
        while let Some(e) = q.pop() {
            prop_assert_eq!(Some((e.time, e.payload, e.id)), model.pop(), "drain order");
        }
        prop_assert!(model.pending.is_empty());
    }

    /// Differential test of the timer slots: a queue with slots against a
    /// plain queue on which every arm is a `cancel` of the timer's last id
    /// plus a `schedule`. Random interleavings of arm, re-arm, disarm,
    /// ordinary schedules between pops (the kernel's injected faults),
    /// arms at `now` and heavy same-timestamp ties must agree on pop order
    /// (time and payload), `len`, `peek_time`, armed state and every
    /// published counter.
    #[test]
    fn timers_match_cancel_plus_schedule(
        ops in proptest::collection::vec((0u8..12, 0u64..4, 0usize..4), 1..400),
    ) {
        const TIMERS: usize = 4;
        let (slot_reg, ref_reg) = (telemetry::MetricsRegistry::new(), telemetry::MetricsRegistry::new());
        let mut q = EventQueue::<u64>::with_timers(TIMERS);
        q.attach_counters(EventQueueCounters::register(&slot_reg, "q"));
        let mut reference = EventQueue::<RefPayload>::new();
        reference.attach_counters(EventQueueCounters::register(&ref_reg, "q"));
        let mut armed = [EventId::NONE; TIMERS];
        let mut now = SimTime::ZERO;
        let mut next_payload = 0u64;
        for (op, dt, k) in ops {
            // dt == 0 arms or schedules at `now`; small offsets tie often.
            let time = SimTime(now.as_nanos() + dt);
            match op {
                0..=3 => {
                    q.arm(k, time);
                    reference.cancel(armed[k]);
                    armed[k] = reference.schedule(time, RefPayload::Timer(k));
                }
                4 | 5 => {
                    prop_assert_eq!(q.disarm(k), reference.cancel(armed[k]), "disarm result");
                }
                6 | 7 => {
                    q.schedule(time, next_payload);
                    reference.schedule(time, RefPayload::Event(next_payload));
                    next_payload += 1;
                }
                8 => {
                    q.publish_counters();
                    reference.publish_counters();
                    prop_assert_eq!(published(&slot_reg), published(&ref_reg), "counters");
                }
                _ => {
                    let got = slot_pop(&mut q);
                    let want = reference.pop().map(|e| (e.time, e.payload));
                    prop_assert_eq!(got, want, "pop order");
                    if let Some((time, _)) = got {
                        now = time;
                    }
                }
            }
            prop_assert_eq!(q.len(), reference.len());
            prop_assert_eq!(q.peek_time(), reference.peek_time());
            for (timer, id) in armed.iter().enumerate() {
                prop_assert_eq!(q.is_armed(timer), reference.is_pending(*id));
            }
        }
        loop {
            let got = slot_pop(&mut q);
            prop_assert_eq!(got, reference.pop().map(|e| (e.time, e.payload)), "drain order");
            if got.is_none() {
                break;
            }
        }
        q.publish_counters();
        reference.publish_counters();
        prop_assert_eq!(published(&slot_reg), published(&ref_reg), "final counters");
    }

    /// Welford statistics agree with the naive two-pass computation.
    #[test]
    fn online_stats_match_naive(xs in proptest::collection::vec(-1e6f64..1e6, 1..400)) {
        let mut s = OnlineStats::new();
        xs.iter().for_each(|&x| s.push(x));
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
        prop_assert!((s.mean() - mean).abs() <= 1e-6 * mean.abs().max(1.0));
        prop_assert!((s.variance() - var).abs() <= 1e-5 * var.abs().max(1.0));
    }

    /// Merging split accumulators equals accumulating the whole sequence.
    #[test]
    fn stats_merge_associative(
        xs in proptest::collection::vec(-1e3f64..1e3, 2..200),
        split in 1usize..100,
    ) {
        let split = split.min(xs.len() - 1);
        let mut whole = OnlineStats::new();
        xs.iter().for_each(|&x| whole.push(x));
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        xs[..split].iter().for_each(|&x| a.push(x));
        xs[split..].iter().for_each(|&x| b.push(x));
        a.merge(&b);
        prop_assert_eq!(a.count(), whole.count());
        prop_assert!((a.mean() - whole.mean()).abs() < 1e-9 * whole.mean().abs().max(1.0));
    }

    /// Duration arithmetic: mul/div round-trips within rounding error.
    #[test]
    fn duration_scale_roundtrip(ns in 1u64..1_000_000_000_000, factor in 0.001f64..1000.0) {
        let d = SimDuration::from_nanos(ns);
        let scaled = d.mul_f64(factor).div_f64(factor);
        let err = scaled.as_nanos().abs_diff(ns);
        // One ns of rounding per operation, amplified by 1/factor.
        let tolerance = (2.0 / factor).ceil() as u64 + 2;
        prop_assert!(err <= tolerance, "err {err} tolerance {tolerance}");
    }
}
