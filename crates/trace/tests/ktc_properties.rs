//! KTC golden-oracle property suite, on the deterministic in-repo
//! `kooza-check` harness.
//!
//! The contract under test is the one DESIGN.md §10 states: JSONL is the
//! spec, KTC is the optimization. For *any* `TraceSet` — including the
//! degenerate shapes text formats quietly tolerate — the KTC round trip
//! must be the identity, and must agree span-for-span with the JSONL
//! round trip.

use kooza_check::gen::{u64_range, zip2};
use kooza_check::{checker, ensure, ensure_eq, CaseResult};

mod common;
use common::arbitrary_set;

use kooza_trace::{Direction, IoOp, NetworkRecord, Span, SpanId, StorageRecord, TraceId, TraceSet};

/// KTC decode ∘ encode is the identity on arbitrary trace sets.
#[test]
fn ktc_round_trip_is_identity() {
    checker("ktc_round_trip_is_identity").run(
        zip2(u64_range(0, u64::MAX - 1), u64_range(0, 40)),
        |&(seed, max_rows)| {
            let ts = arbitrary_set(seed, max_rows);
            let mut buf = Vec::new();
            ts.write_ktc(&mut buf).map_err(|e| CaseResult::Fail(format!("encode failed: {e}")))?;
            let back =
                TraceSet::read_ktc(buf.as_slice()).map_err(|e| CaseResult::Fail(format!("decode failed: {e}")))?;
            ensure_eq!(ts, back);
            Ok(())
        },
    );
}

/// The golden oracle: the KTC round trip agrees with the JSONL round trip
/// span-for-span (and record-for-record) on arbitrary trace sets.
#[test]
fn ktc_round_trip_matches_jsonl_oracle() {
    checker("ktc_round_trip_matches_jsonl_oracle").run(
        zip2(u64_range(0, u64::MAX - 1), u64_range(0, 30)),
        |&(seed, max_rows)| {
            let ts = arbitrary_set(seed, max_rows);

            let mut jsonl = Vec::new();
            ts.write_jsonl(&mut jsonl).map_err(|e| CaseResult::Fail(format!("jsonl encode: {e}")))?;
            let via_jsonl =
                TraceSet::read_jsonl(jsonl.as_slice()).map_err(|e| CaseResult::Fail(format!("jsonl decode: {e}")))?;

            let mut ktc = Vec::new();
            ts.write_ktc(&mut ktc).map_err(|e| CaseResult::Fail(format!("ktc encode: {e}")))?;
            let via_ktc =
                TraceSet::read_ktc(ktc.as_slice()).map_err(|e| CaseResult::Fail(format!("ktc decode: {e}")))?;

            ensure_eq!(via_jsonl.storage, via_ktc.storage);
            ensure_eq!(via_jsonl.cpu, via_ktc.cpu);
            ensure_eq!(via_jsonl.memory, via_ktc.memory);
            ensure_eq!(via_jsonl.network, via_ktc.network);
            ensure_eq!(via_jsonl.spans.len(), via_ktc.spans.len());
            for (a, b) in via_jsonl.spans.iter().zip(&via_ktc.spans) {
                ensure_eq!(a, b);
            }
            Ok(())
        },
    );
}

/// Re-encoding a decoded KTC stream reproduces the bytes exactly — the
/// encoding is canonical (one valid encoding per trace), which is what
/// lets the golden fixture pin it.
#[test]
fn ktc_encoding_is_canonical() {
    checker("ktc_encoding_is_canonical").cases(64).run(
        zip2(u64_range(0, u64::MAX - 1), u64_range(0, 30)),
        |&(seed, max_rows)| {
            let ts = arbitrary_set(seed, max_rows);
            let mut first = Vec::new();
            ts.write_ktc(&mut first).map_err(|e| CaseResult::Fail(format!("encode: {e}")))?;
            let back =
                TraceSet::read_ktc(first.as_slice()).map_err(|e| CaseResult::Fail(format!("decode: {e}")))?;
            let mut second = Vec::new();
            back.write_ktc(&mut second).map_err(|e| CaseResult::Fail(format!("re-encode: {e}")))?;
            ensure_eq!(first, second);
            Ok(())
        },
    );
}

/// Explicit degenerate shapes the fuzz loop might visit rarely: empty,
/// single-span, all-duplicate timestamps, and max-varint-width values.
#[test]
fn ktc_round_trip_edge_shapes() {
    let mut shapes: Vec<TraceSet> = Vec::new();

    shapes.push(TraceSet::new());

    let mut single = TraceSet::new();
    single.spans.push(Span::new(TraceId(1), SpanId(0), None, "only", 5, 9));
    shapes.push(single);

    let mut dup = TraceSet::new();
    for _ in 0..10 {
        dup.network.push(NetworkRecord {
            ts_nanos: 42,
            size: 42,
            direction: Direction::Egress,
            request_id: 42,
        });
        dup.spans.push(Span::new(TraceId(42), SpanId(0), None, "dup", 42, 42));
    }
    shapes.push(dup);

    let mut extreme = TraceSet::new();
    extreme.storage.push(StorageRecord {
        ts_nanos: u64::MAX,
        lbn: u64::MAX,
        size: u64::MAX,
        op: IoOp::Write,
        request_id: u64::MAX,
    });
    extreme.storage.push(StorageRecord {
        ts_nanos: 0,
        lbn: 0,
        size: 0,
        op: IoOp::Read,
        request_id: 0,
    });
    extreme.spans.push(Span {
        trace_id: TraceId(u64::MAX),
        span_id: SpanId(u64::MAX),
        parent: Some(SpanId(u64::MAX)),
        name: "max".into(),
        start_nanos: u64::MAX,
        end_nanos: 0,
        annotations: vec![(u64::MAX, "edge".into())],
    });
    shapes.push(extreme);

    for (i, ts) in shapes.iter().enumerate() {
        let mut buf = Vec::new();
        ts.write_ktc(&mut buf).unwrap();
        let back = TraceSet::read_ktc(buf.as_slice()).unwrap();
        assert_eq!(ts, &back, "shape {i} failed the KTC round trip");

        let mut jsonl = Vec::new();
        ts.write_jsonl(&mut jsonl).unwrap();
        let via_jsonl = TraceSet::read_jsonl(jsonl.as_slice()).unwrap();
        assert_eq!(via_jsonl, back, "shape {i} disagreed with the JSONL oracle");
    }
}

/// Real simulator traces decode from KTC into the same set JSONL yields.
#[test]
fn simulator_trace_agrees_with_oracle() {
    checker("simulator_trace_agrees_with_oracle").cases(8).run(
        u64_range(1, 1000),
        |&seed| {
            let ts = arbitrary_set(seed, 200);
            let mut ktc = Vec::new();
            ts.write_ktc(&mut ktc).map_err(|e| CaseResult::Fail(format!("encode: {e}")))?;
            let mut jsonl = Vec::new();
            ts.write_jsonl(&mut jsonl).map_err(|e| CaseResult::Fail(format!("encode: {e}")))?;
            ensure!(
                ktc.len() < jsonl.len(),
                "KTC ({} bytes) not smaller than JSONL ({} bytes)",
                ktc.len(),
                jsonl.len()
            );
            let a = TraceSet::read_ktc(ktc.as_slice()).map_err(|e| CaseResult::Fail(format!("decode: {e}")))?;
            let b =
                TraceSet::read_jsonl(jsonl.as_slice()).map_err(|e| CaseResult::Fail(format!("decode: {e}")))?;
            ensure_eq!(a, b);
            Ok(())
        },
    );
}
