//! Random trace sets shared by the KTC property and corruption suites.

use kooza_sim::rng::Rng64;
use kooza_trace::{
    CpuRecord, Direction, IoOp, MemoryRecord, NetworkRecord, Span, SpanId, StorageRecord,
    TraceId, TraceSet,
};

/// Draws one value from a width-stratified distribution: small values,
/// mid-range values, and max-varint-width extremes (`u64::MAX` needs all
/// ten LEB128 bytes) all appear with real probability.
fn any_u64(rng: &mut Rng64) -> u64 {
    match rng.next_bounded(5) {
        0 => rng.next_bounded(16),
        1 => rng.next_bounded(1 << 20),
        2 => u64::MAX - rng.next_bounded(4),
        3 => (1u64 << 63) + rng.next_bounded(1000),
        _ => rng.next_u64(),
    }
}

fn any_name(rng: &mut Rng64) -> String {
    const NAMES: &[&str] = &[
        "request", "disk", "net", "α/β — non-ascii", "", "a very long span name that will not \
         fit in a single varint byte worth of length",
    ];
    NAMES[rng.next_bounded(NAMES.len() as u64) as usize].to_string()
}

/// An arbitrary `TraceSet`: per-stream lengths up to `max_rows`, values
/// drawn from [`any_u64`], spans with optional parents, duplicate
/// timestamps (drawn from a small pool with probability 1/2) and shared
/// interned names.
pub fn arbitrary_set(seed: u64, max_rows: u64) -> TraceSet {
    let mut rng = Rng64::new(seed);
    let mut ts = TraceSet::new();
    // Duplicate-timestamp pool: half of all timestamps come from here.
    let pool: Vec<u64> = (0..4).map(|_| any_u64(&mut rng)).collect();
    let any_ts = |rng: &mut Rng64| {
        if rng.next_bounded(2) == 0 {
            pool[rng.next_bounded(pool.len() as u64) as usize]
        } else {
            any_u64(rng)
        }
    };
    for _ in 0..rng.next_bounded(max_rows + 1) {
        ts.storage.push(StorageRecord {
            ts_nanos: any_ts(&mut rng),
            lbn: any_u64(&mut rng),
            size: any_u64(&mut rng),
            op: if rng.next_bounded(2) == 0 { IoOp::Read } else { IoOp::Write },
            request_id: any_u64(&mut rng),
        });
    }
    for _ in 0..rng.next_bounded(max_rows + 1) {
        ts.cpu.push(CpuRecord {
            ts_nanos: any_ts(&mut rng),
            utilization: rng.next_f64() * 2.0 - 0.5,
            busy_nanos: any_u64(&mut rng),
            request_id: any_u64(&mut rng),
        });
    }
    for _ in 0..rng.next_bounded(max_rows + 1) {
        ts.memory.push(MemoryRecord {
            ts_nanos: any_ts(&mut rng),
            bank: rng.next_u64() as u32,
            size: any_u64(&mut rng),
            op: if rng.next_bounded(2) == 0 { IoOp::Read } else { IoOp::Write },
            request_id: any_u64(&mut rng),
        });
    }
    for _ in 0..rng.next_bounded(max_rows + 1) {
        ts.network.push(NetworkRecord {
            ts_nanos: any_ts(&mut rng),
            size: any_u64(&mut rng),
            direction: if rng.next_bounded(2) == 0 {
                Direction::Ingress
            } else {
                Direction::Egress
            },
            request_id: any_u64(&mut rng),
        });
    }
    for _ in 0..rng.next_bounded(max_rows + 1) {
        let start = any_ts(&mut rng);
        // `Span::from_json` accepts end < start, so JSONL can carry it and
        // KTC must round-trip it: build the struct directly.
        let end = any_ts(&mut rng);
        let n_ann = rng.next_bounded(4);
        let annotations =
            (0..n_ann).map(|_| (any_u64(&mut rng), any_name(&mut rng).into())).collect();
        ts.spans.push(Span {
            trace_id: TraceId(any_u64(&mut rng)),
            span_id: SpanId(any_u64(&mut rng)),
            parent: if rng.next_bounded(2) == 0 {
                None
            } else {
                Some(SpanId(any_u64(&mut rng)))
            },
            name: any_name(&mut rng).into(),
            start_nanos: start,
            end_nanos: end,
            annotations,
        });
    }
    ts
}
