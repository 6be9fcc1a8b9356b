//! Time-windowed multi-engine coordination: the substrate for sharded
//! simulations.
//!
//! A sharded simulation partitions its model into `n` shards, each owning
//! a private [`Engine`](crate::Engine) and the state it simulates. Shards
//! advance in **lockstep windows** of fixed simulated width: within a
//! window every shard processes only its local events, and anything that
//! crosses a shard boundary becomes a *message* buffered in the sending
//! shard's [`Outbox`]. At the window barrier all outboxes are collected
//! and [`ShardedEngine::exchange`] redistributes the messages to their
//! destination shards in **canonical order** — sorted by
//! `(send time, sending shard, per-shard send sequence)` — so the
//! delivery order (and therefore everything downstream of it) is a pure
//! function of the simulation, never of which thread ran which shard or
//! which shard finished its window first.
//!
//! The contract this module provides:
//!
//! * **Window isolation.** A message sent during window `w` is visible to
//!   its destination no earlier than the barrier ending window `w` — the
//!   runner delivers it at the window-boundary instant. Cross-shard
//!   interactions therefore pay a bounded, deterministic latency of at
//!   most one window width per hop.
//! * **Canonical exchange order.** [`ShardedEngine::exchange`] sorts every
//!   destination's inbox by `(at, from, seq)`. Outboxes may be handed to
//!   it in any order (they identify their own shard), and two envelopes
//!   never tie: `seq` is unique per sending shard and strictly
//!   monotonic across the whole run.
//! * **Thread independence.** Nothing in this module reads clocks,
//!   thread ids or completion order; running the per-window shard steps
//!   serially or on any number of threads yields byte-identical exchanges.
//!
//! The module is model-agnostic: `kooza-gfs` layers its cluster protocol
//! on top (see `cluster/shard.rs` there), and `examples/incast.rs` shows a
//! minimal two-shard model.

use crate::time::{SimDuration, SimTime};

/// Splits `n_items` items into `n_shards` contiguous index ranges, as
/// evenly as possible: the first `n_items % n_shards` shards get one
/// extra item. The canonical server→shard partition for sharded models.
///
/// # Panics
///
/// Panics if `n_shards` is 0.
pub fn shard_ranges(n_items: usize, n_shards: usize) -> Vec<std::ops::Range<usize>> {
    assert!(n_shards > 0, "need at least one shard");
    let base = n_items / n_shards;
    let extra = n_items % n_shards;
    let mut ranges = Vec::with_capacity(n_shards);
    let mut lo = 0;
    for i in 0..n_shards {
        let len = base + usize::from(i < extra);
        ranges.push(lo..lo + len);
        lo += len;
    }
    ranges
}

/// One cross-shard message in flight: the payload plus the canonical
/// ordering key `(at, from, seq)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope<M> {
    /// Simulated instant the message was sent.
    pub at: SimTime,
    /// Index of the sending shard.
    pub from: usize,
    /// Send sequence within the sending shard (unique, monotonic for the
    /// whole run, so `(at, from, seq)` never ties).
    pub seq: u64,
    /// The message payload.
    pub msg: M,
}

/// A shard's buffered outgoing messages for the current window.
///
/// Each shard owns one `Outbox` for the lifetime of the run; `send`
/// stamps envelopes with the shard index and a monotonically increasing
/// sequence number, and the barrier drains it via
/// [`ShardedEngine::exchange`].
#[derive(Debug)]
pub struct Outbox<M> {
    from: usize,
    seq: u64,
    queued: Vec<(usize, Envelope<M>)>,
}

impl<M> Outbox<M> {
    /// An empty outbox for shard `from`.
    pub fn new(from: usize) -> Self {
        Outbox { from, seq: 0, queued: Vec::new() }
    }

    /// The index of the shard this outbox belongs to.
    pub fn shard(&self) -> usize {
        self.from
    }

    /// Buffers `msg` for delivery to shard `to` at the next barrier,
    /// stamped with the send time `at`.
    pub fn send(&mut self, to: usize, at: SimTime, msg: M) {
        let env = Envelope { at, from: self.from, seq: self.seq, msg };
        self.seq += 1;
        self.queued.push((to, env));
    }

    /// Messages buffered since the last exchange.
    pub fn len(&self) -> usize {
        self.queued.len()
    }

    /// Whether no message is buffered.
    pub fn is_empty(&self) -> bool {
        self.queued.is_empty()
    }
}

/// The window-barrier coordinator for a set of shard engines.
///
/// `ShardedEngine` owns the window clock and the mailbox exchange; the
/// *runner* (the model-specific code) owns the shards themselves and
/// drives each one to [`ShardedEngine::window_end`] between barriers —
/// serially or in parallel, the exchange result is identical. See the
/// module docs for the ordering contract.
#[derive(Debug)]
pub struct ShardedEngine<M> {
    n_shards: usize,
    width: SimDuration,
    /// Completed barriers.
    windows: u64,
    /// Envelopes exchanged across all barriers so far.
    messages: u64,
    _msg: std::marker::PhantomData<M>,
}

impl<M> ShardedEngine<M> {
    /// A coordinator for `n_shards` shards advancing in windows of
    /// `width` simulated time.
    ///
    /// # Panics
    ///
    /// Panics if `n_shards` is 0 or `width` is zero — a zero-width
    /// window could never advance the simulation.
    pub fn new(n_shards: usize, width: SimDuration) -> Self {
        assert!(n_shards > 0, "a sharded engine needs at least one shard");
        assert!(width > SimDuration::ZERO, "window width must be positive");
        ShardedEngine {
            n_shards,
            width,
            windows: 0,
            messages: 0,
            _msg: std::marker::PhantomData,
        }
    }

    /// Number of shards under coordination.
    pub fn n_shards(&self) -> usize {
        self.n_shards
    }

    /// The window width.
    pub fn width(&self) -> SimDuration {
        self.width
    }

    /// One fresh outbox per shard, indexed by shard.
    pub fn outboxes(&self) -> Vec<Outbox<M>> {
        (0..self.n_shards).map(Outbox::new).collect()
    }

    /// The exclusive end of the current window: shards process events
    /// strictly before this instant, and the barrier delivers messages at
    /// exactly this instant.
    pub fn window_end(&self) -> SimTime {
        SimTime::ZERO + self.width * (self.windows + 1)
    }

    /// Barriers completed so far.
    pub fn windows(&self) -> u64 {
        self.windows
    }

    /// Envelopes exchanged across all barriers so far.
    pub fn messages(&self) -> u64 {
        self.messages
    }

    /// Runs the barrier: drains every outbox, advances the window clock,
    /// and returns each shard's inbox in canonical `(at, from, seq)`
    /// order. Outboxes may be supplied in any order; destinations out of
    /// range panic (a model bug).
    pub fn exchange<'a, I>(&mut self, outboxes: I) -> Vec<Vec<Envelope<M>>>
    where
        M: 'a,
        I: IntoIterator<Item = &'a mut Outbox<M>>,
    {
        let mut inboxes: Vec<Vec<Envelope<M>>> = (0..self.n_shards).map(|_| Vec::new()).collect();
        for outbox in outboxes {
            for (to, env) in outbox.queued.drain(..) {
                assert!(to < self.n_shards, "message to unknown shard {to}");
                self.messages += 1;
                inboxes[to].push(env);
            }
        }
        for inbox in &mut inboxes {
            inbox.sort_by(|a, b| {
                (a.at, a.from, a.seq).cmp(&(b.at, b.from, b.seq))
            });
        }
        self.windows += 1;
        inboxes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_clock_advances_by_width() {
        let mut eng: ShardedEngine<()> = ShardedEngine::new(2, SimDuration::from_micros(100));
        assert_eq!(eng.window_end(), SimTime::from_micros(100));
        let mut boxes = eng.outboxes();
        let _ = eng.exchange(boxes.iter_mut());
        assert_eq!(eng.window_end(), SimTime::from_micros(200));
        assert_eq!(eng.windows(), 1);
    }

    #[test]
    fn exchange_sorts_by_time_then_shard_then_seq() {
        let mut eng: ShardedEngine<&'static str> =
            ShardedEngine::new(3, SimDuration::from_micros(50));
        let mut boxes = eng.outboxes();
        // Shard 2 sends early and late; shard 0 sends in between; ties on
        // time break by shard, then by send order.
        boxes[2].send(1, SimTime::from_nanos(30), "c-late");
        boxes[2].send(1, SimTime::from_nanos(10), "c-early");
        boxes[0].send(1, SimTime::from_nanos(30), "a-tie-first");
        boxes[0].send(1, SimTime::from_nanos(30), "a-tie-second");
        let inboxes = eng.exchange(boxes.iter_mut());
        let got: Vec<&str> = inboxes[1].iter().map(|e| e.msg).collect();
        assert_eq!(got, vec!["c-early", "a-tie-first", "a-tie-second", "c-late"]);
        assert!(inboxes[0].is_empty() && inboxes[2].is_empty());
        assert_eq!(eng.messages(), 4);
    }

    #[test]
    fn outbox_order_does_not_matter() {
        let build = |order: &[usize]| {
            let mut eng: ShardedEngine<u64> = ShardedEngine::new(4, SimDuration::from_micros(10));
            let mut boxes = eng.outboxes();
            for (s, outbox) in boxes.iter_mut().enumerate() {
                for k in 0..3u64 {
                    outbox.send((s + 1) % 4, SimTime::from_nanos(100 - k), s as u64 * 10 + k);
                }
            }
            // Hand the outboxes to the barrier in the given permutation.
            let mut refs: Vec<&mut Outbox<u64>> = boxes.iter_mut().collect();
            let mut permuted: Vec<&mut Outbox<u64>> = Vec::new();
            for &i in order {
                // Move out by index without cloning.
                permuted.push(refs.remove(refs.iter().position(|r| r.shard() == i).unwrap()));
            }
            eng.exchange(permuted)
        };
        let a = build(&[0, 1, 2, 3]);
        let b = build(&[3, 1, 0, 2]);
        assert_eq!(a, b);
    }

    #[test]
    fn sequence_numbers_persist_across_windows() {
        let mut eng: ShardedEngine<u8> = ShardedEngine::new(2, SimDuration::from_micros(10));
        let mut boxes = eng.outboxes();
        boxes[0].send(1, SimTime::from_nanos(1), 1);
        let _ = eng.exchange(boxes.iter_mut());
        boxes[0].send(1, SimTime::from_nanos(11), 2);
        let inboxes = eng.exchange(boxes.iter_mut());
        // The second window's envelope continues the shard's sequence.
        assert_eq!(inboxes[1][0].seq, 1);
        assert_eq!(eng.messages(), 2);
    }

    #[test]
    #[should_panic(expected = "unknown shard")]
    fn out_of_range_destination_panics() {
        let mut eng: ShardedEngine<()> = ShardedEngine::new(2, SimDuration::from_micros(10));
        let mut boxes = eng.outboxes();
        boxes[0].send(7, SimTime::ZERO, ());
        let _ = eng.exchange(boxes.iter_mut());
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_panics() {
        let _: ShardedEngine<()> = ShardedEngine::new(0, SimDuration::from_micros(1));
    }

    #[test]
    fn shard_ranges_cover_everything_evenly() {
        for (n, k) in [(12, 4), (13, 4), (7, 2), (5, 5), (3, 4), (0, 2)] {
            let ranges = shard_ranges(n, k);
            assert_eq!(ranges.len(), k);
            assert_eq!(ranges.first().map(|r| r.start), Some(0));
            assert_eq!(ranges.last().map(|r| r.end), Some(n));
            for w in ranges.windows(2) {
                assert_eq!(w[0].end, w[1].start, "gap between {:?} and {:?}", w[0], w[1]);
            }
            let sizes: Vec<usize> = ranges.iter().map(ExactSizeIterator::len).collect();
            let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
            assert!(max - min <= 1, "uneven split {sizes:?}");
        }
    }
}
