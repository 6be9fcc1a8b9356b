//! Shared incast driver for the fabric benchmarks.
//!
//! An N-to-1 incast with timeout/restart recovery: `fanout` senders
//! each push one stripe at host 0 across a rack:4 oversub:2 fabric,
//! restarting any stripe that misses the timeout after a linear backoff
//! staggered per sender. Past the point where the fair share per flow
//! can no longer beat the timeout, restarts pile load onto the
//! saturated receiver link and completion time degrades super-linearly
//! in the fan-out — the regime a fixed-capacity link model cannot
//! express at all.
//!
//! `benches/fabric.rs` drives it twice: for the simulated incast curve
//! and as `fabric_incast_32`, the wall-clock bench `scripts/verify.sh`
//! gates fabric re-rating on.

use kooza_sim::{Endpoint, Fabric, SimDuration, SimTime};

/// 1 GbE receiver link, bytes/sec.
pub const BW: f64 = 125e6;
/// One-way propagation gate for every flow.
pub const LAT: SimDuration = SimDuration::from_micros(100);
/// Bytes per response stripe.
pub const STRIPE: u64 = 256 * 1024;
/// Senders give a stripe this long to finish before restarting it.
pub const TIMEOUT: SimDuration = SimDuration::from_micros(25_000);

/// One sender's state in the incast driver.
#[derive(Clone, Copy)]
enum Sender {
    /// Waiting to (re)transmit at the given instant.
    Waiting(SimTime),
    /// Transmitting flow `id`, which times out at the given instant.
    Active(u64, SimTime),
    Done,
}

/// Simulated completion time of `fanout` servers each pushing one
/// [`STRIPE`]-byte response at host 0, restarting any stripe that
/// misses [`TIMEOUT`]. Returns `(completion, restarts)`.
pub fn incast(fanout: usize) -> (SimDuration, u64) {
    let mut fabric = Fabric::new(fanout + 1, 4, 2.0, BW, LAT);
    let mut senders = vec![Sender::Waiting(SimTime::ZERO); fanout];
    let mut completed: Vec<u64> = Vec::new();
    let mut restarts = 0u64;
    let mut now = SimTime::ZERO;
    let mut remaining = fanout;
    // Earliest sender wake-up (a (re)start instant or a timeout
    // deadline), maintained by the transition sweep below so the loop
    // head only consults the fabric. Every sender starts Waiting(0).
    let mut sender_next = SimTime::ZERO;
    while remaining > 0 {
        // Next instant anything happens: a fabric rate change, a sender
        // (re)start, or a timeout deadline.
        let next = fabric.next_change().unwrap_or(SimTime::MAX).min(sender_next);
        assert!(next > now || now == SimTime::ZERO, "incast driver stalled at {now}");
        now = next;
        fabric.advance_into(now, &mut completed);
        sender_next = SimTime::MAX;
        for (i, sender) in senders.iter_mut().enumerate() {
            match *sender {
                Sender::Active(id, deadline) => {
                    if completed.contains(&id) {
                        *sender = Sender::Done;
                        remaining -= 1;
                    } else if deadline <= now {
                        // Missed the timeout: drop the half-sent stripe
                        // and retransmit from scratch after a backoff
                        // staggered by sender index.
                        fabric.cancel_flow(id);
                        restarts += 1;
                        let backoff = TIMEOUT + SimDuration::from_micros(200 * (i as u64 + 1));
                        let at = now + backoff;
                        *sender = Sender::Waiting(at);
                        sender_next = sender_next.min(at);
                    } else {
                        sender_next = sender_next.min(deadline);
                    }
                }
                Sender::Waiting(at) if at <= now => {
                    let id = fabric.start_flow(Endpoint::Host(i + 1), Endpoint::Host(0), STRIPE);
                    let deadline = now + TIMEOUT;
                    *sender = Sender::Active(id, deadline);
                    sender_next = sender_next.min(deadline);
                }
                Sender::Waiting(at) => sender_next = sender_next.min(at),
                Sender::Done => {}
            }
        }
    }
    (now - SimTime::ZERO, restarts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lone_sender_finishes_without_restarts() {
        let (t, restarts) = incast(1);
        assert_eq!(restarts, 0);
        // One 256 KB stripe at 125 MB/s behind a 100 µs gate: ~2.2 ms.
        assert!(t > SimDuration::from_micros(2_000) && t < SimDuration::from_micros(3_000));
    }

    #[test]
    fn incast_curve_is_deterministic() {
        assert_eq!(incast(8), incast(8));
    }
}
