//! The release index: running segments ordered by completion instant.
//!
//! EASY backfill needs two queries on every scheduling pass: the next
//! completion instant (to advance the clock) and the *shadow time* — the
//! earliest instant enough nodes have freed up for the blocked queue
//! head. The engine used to answer both by sorting a scratch copy of the
//! running list, O(r log r) per pass and O(n·r log r) over a run.
//!
//! [`ReleaseIndex`] is the engine's one home for running segments: a
//! single ordered map keyed `(end, admission seq)` that owns each
//! segment's payload, so:
//!
//! * the next completion is the first key — O(log r);
//! * released segments pop from the front, in `(end, seq)` order, into a
//!   caller-owned buffer that is reused across events;
//! * the shadow walk visits releases in end order, reading each freed
//!   width from its payload ([`Width`]), and stops as soon as the
//!   accumulated width satisfies the head — at most `need` entries,
//!   since every release frees at least one node;
//! * equal end times order by admission sequence, exactly the stable
//!   sort over the old admission-ordered `Vec` — byte-identical shadow
//!   choices.
//!
//! The rare paths that need admission order over *all* segments (the
//! node-failure victim search, checkpoint capture) walk [`ReleaseIndex::iter`]
//! and sort by seq themselves.

use std::collections::BTreeMap;

use simcore::SimTime;

/// Nodes a running segment frees when it releases.
pub trait Width {
    fn width(&self) -> usize;
}

/// A bare width: the payload of an index that tracks nothing else.
impl Width for usize {
    fn width(&self) -> usize {
        *self
    }
}

/// Ordered index of running segments keyed `(end, admission seq)`,
/// owning each segment's payload.
#[derive(Clone, Debug)]
pub struct ReleaseIndex<T = usize> {
    by_end: BTreeMap<(SimTime, u64), T>,
}

impl<T> Default for ReleaseIndex<T> {
    fn default() -> Self {
        ReleaseIndex { by_end: BTreeMap::new() }
    }
}

impl<T: Width> ReleaseIndex<T> {
    pub fn new() -> ReleaseIndex<T> {
        ReleaseIndex::default()
    }

    pub fn len(&self) -> usize {
        self.by_end.len()
    }

    pub fn is_empty(&self) -> bool {
        self.by_end.is_empty()
    }

    /// Track a segment admitted as `seq` that runs until `end`.
    pub fn insert(&mut self, seq: u64, end: SimTime, seg: T) {
        self.by_end.insert((end, seq), seg);
    }

    /// Stop tracking the segment admitted as `seq` ending at `end`
    /// (failure-requeue), returning it; `None` when it was not tracked.
    pub fn remove(&mut self, end: SimTime, seq: u64) -> Option<T> {
        self.by_end.remove(&(end, seq))
    }

    /// Earliest completion instant over all running segments.
    pub fn next_release(&self) -> Option<SimTime> {
        self.by_end.first_key_value().map(|(&(end, _), _)| end)
    }

    /// Move every segment with `end <= now` into `out` as `(seq, seg)`, in
    /// `(end, seq)` order. `out` is appended to, never cleared, so callers
    /// can reuse one buffer across events.
    pub fn pop_released(&mut self, now: SimTime, out: &mut Vec<(u64, T)>) {
        while let Some(entry) = self.by_end.first_entry() {
            let (end, seq) = *entry.key();
            if end > now {
                break;
            }
            out.push((seq, entry.remove()));
        }
    }

    /// Every running segment as `(end, seq, seg)`, in `(end, seq)` order.
    pub fn iter(&self) -> impl Iterator<Item = (SimTime, u64, &T)> + '_ {
        self.by_end.iter().map(|(&(end, seq), seg)| (end, seq, seg))
    }

    /// The EASY shadow computation: starting from `avail` free nodes,
    /// walk releases in end order until at least `need` nodes are
    /// available. Returns `(shadow instant, nodes available then)`, or
    /// `None` when even a fully drained fleet cannot satisfy the head.
    /// Visits at most `need` entries — every release frees ≥ 1 node.
    pub fn shadow(&self, mut avail: usize, need: usize) -> Option<(SimTime, usize)> {
        for (&(end, _), seg) in &self.by_end {
            avail += seg.width();
            if avail >= need {
                return Some((end, avail));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::ZERO + simcore::SimDuration::from_nanos(secs * 1_000_000_000)
    }

    fn pop_seqs(ix: &mut ReleaseIndex, now: SimTime) -> Vec<u64> {
        let mut out = Vec::new();
        ix.pop_released(now, &mut out);
        out.into_iter().map(|(seq, _)| seq).collect()
    }

    #[test]
    fn next_release_and_pop_follow_end_then_seq_order() {
        let mut ix = ReleaseIndex::new();
        ix.insert(2, t(30), 1);
        ix.insert(0, t(10), 2);
        ix.insert(1, t(10), 3);
        assert_eq!(ix.next_release(), Some(t(10)));
        assert_eq!(pop_seqs(&mut ix, t(10)), vec![0, 1]);
        assert_eq!(ix.len(), 1);
        assert_eq!(pop_seqs(&mut ix, t(29)), Vec::<u64>::new());
        assert_eq!(pop_seqs(&mut ix, t(30)), vec![2]);
        assert!(ix.is_empty());
    }

    #[test]
    fn shadow_matches_the_sorted_linear_walk() {
        let mut ix = ReleaseIndex::new();
        // Admission order 0..3; ends out of order; a tie at t(20).
        let segs = [(0u64, 20u64, 2usize), (1, 10, 1), (2, 20, 1), (3, 40, 4)];
        for &(seq, end, w) in &segs {
            ix.insert(seq, t(end), w);
        }
        // The reference implementation the engine used to run.
        let reference = |avail: usize, need: usize| -> Option<(SimTime, usize)> {
            let mut ends: Vec<(SimTime, usize)> =
                segs.iter().map(|&(_, end, w)| (t(end), w)).collect();
            ends.sort_by_key(|&(end, _)| end);
            let mut a = avail;
            for (end, w) in ends {
                a += w;
                if a >= need {
                    return Some((end, a));
                }
            }
            None
        };
        for avail in 0..3 {
            for need in 1..10 {
                assert_eq!(ix.shadow(avail, need), reference(avail, need), "avail {avail} need {need}");
            }
        }
        assert_eq!(ix.shadow(0, 100), None);
    }

    #[test]
    fn remove_untracks_exactly_one_segment() {
        let mut ix = ReleaseIndex::new();
        ix.insert(0, t(5), 1);
        ix.insert(1, t(5), 1);
        assert!(ix.remove(t(5), 0).is_some());
        assert!(ix.remove(t(5), 0).is_none());
        assert_eq!(pop_seqs(&mut ix, t(5)), vec![1]);
    }
}
