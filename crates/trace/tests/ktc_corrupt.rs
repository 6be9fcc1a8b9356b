//! Corrupt-input robustness for the KTC decoder.
//!
//! The decoder's contract: *any* byte stream either decodes to a
//! `TraceSet` or returns a typed `TraceError` — it never panics, never
//! hangs, and never allocates proportionally to a corrupt length field.
//! Targeted tests hit each named failure mode (truncation, bad magic,
//! wrong version, over-long varints, out-of-range intern indices); a
//! deterministic byte-mutation sweep over the committed golden fixture
//! then brute-forces the long tail, and a kooza-check property stacks
//! multi-byte overwrites with a range deletion, duplication or splice.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

use kooza_check::gen::{u64_range, vec_of, zip2, zip3, zip5};
use kooza_check::{checker, CaseResult};
use kooza_trace::{TraceError, TraceSet};

mod common;
use common::arbitrary_set;

fn golden_ktc() -> Vec<u8> {
    let path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden.ktc");
    std::fs::read(path).expect("committed golden.ktc fixture")
}

#[test]
fn every_truncation_of_the_fixture_errors_typed() {
    let bytes = golden_ktc();
    // Every strict prefix is a cut-short stream: it must fail (the end
    // marker guarantees even clean block boundaries are detected), and it
    // must fail with a typed Truncated/Corrupt/Io error, not a panic.
    for len in 0..bytes.len() {
        match TraceSet::read_ktc(&bytes[..len]) {
            Ok(_) => panic!("prefix of {len} bytes decoded successfully"),
            Err(
                TraceError::Truncated { .. }
                | TraceError::Corrupt { .. }
                | TraceError::BadMagic { .. }
                | TraceError::UnsupportedVersion(_),
            ) => {}
            Err(other) => panic!("prefix of {len} bytes: unexpected error {other:?}"),
        }
    }
}

#[test]
fn every_single_byte_mutation_is_handled() {
    let golden = golden_ktc();
    let original = TraceSet::read_ktc(golden.as_slice()).unwrap();
    let mut decoded_differently = 0usize;
    // Deterministic sweep: every position, a fixed set of interesting
    // mutations. Each mutated stream must either decode cleanly (varint
    // payloads make some single-byte flips legal) or produce a typed
    // error — never a panic.
    for pos in 0..golden.len() {
        for mutation in [0x00, 0x01, 0x7F, 0x80, 0xFF, golden[pos] ^ 0x01, golden[pos] ^ 0x80] {
            if mutation == golden[pos] {
                continue;
            }
            let mut bytes = golden.clone();
            bytes[pos] = mutation;
            match TraceSet::read_ktc(bytes.as_slice()) {
                Ok(decoded) => {
                    if decoded != original {
                        decoded_differently += 1;
                    }
                }
                Err(
                    TraceError::Truncated { .. }
                    | TraceError::Corrupt { .. }
                    | TraceError::BadMagic { .. }
                    | TraceError::UnsupportedVersion(_)
                    | TraceError::Io(_),
                ) => {}
                Err(other) => {
                    panic!("mutation {mutation:#04x} at byte {pos}: unexpected {other:?}")
                }
            }
        }
    }
    // Sanity: the sweep actually exercised accept-but-different paths too
    // (a flipped value byte is a different, valid trace).
    assert!(decoded_differently > 0, "sweep never hit a value mutation");
}

#[test]
fn bad_magic_is_typed() {
    for head in [&b"JUNKxxxx"[..], &b"ktc1\x01\x00\x00\x00"[..], &b"KTC2\x01\x00\x00\x00"[..]] {
        match TraceSet::read_ktc(head) {
            Err(TraceError::BadMagic { .. }) => {}
            other => panic!("expected BadMagic for {head:?}, got {other:?}"),
        }
    }
}

#[test]
fn wrong_version_is_typed() {
    let mut bytes = b"KTC1".to_vec();
    bytes.extend_from_slice(&2u16.to_le_bytes());
    bytes.extend_from_slice(&0u16.to_le_bytes());
    match TraceSet::read_ktc(bytes.as_slice()) {
        Err(TraceError::UnsupportedVersion(2)) => {}
        other => panic!("expected UnsupportedVersion(2), got {other:?}"),
    }
}

fn header() -> Vec<u8> {
    let mut v = b"KTC1".to_vec();
    v.extend_from_slice(&1u16.to_le_bytes());
    v.extend_from_slice(&0u16.to_le_bytes());
    v
}

#[test]
fn over_long_varint_in_framing_is_typed() {
    // Block count encoded as 11 continuation bytes: over-long by any
    // reading.
    let mut bytes = header();
    bytes.push(1); // storage tag
    bytes.extend_from_slice(&[0x80; 11]);
    match TraceSet::read_ktc(bytes.as_slice()) {
        Err(TraceError::Corrupt { message, .. }) => {
            assert!(message.contains("over-long varint"), "{message}");
        }
        other => panic!("expected Corrupt(over-long varint), got {other:?}"),
    }
    // 10 bytes whose last carries more than the single bit a u64 has left.
    let mut bytes = header();
    bytes.push(1);
    bytes.extend_from_slice(&[0x80; 9]);
    bytes.push(0x7F);
    match TraceSet::read_ktc(bytes.as_slice()) {
        Err(TraceError::Corrupt { message, .. }) => {
            assert!(message.contains("over-long varint"), "{message}");
        }
        other => panic!("expected Corrupt(over-long varint), got {other:?}"),
    }
}

#[test]
fn over_long_varint_in_payload_is_typed() {
    // A storage block claiming one row whose ts delta is an 11-byte
    // varint.
    let mut bytes = header();
    bytes.push(1); // storage tag
    bytes.push(1); // count = 1
    bytes.push(11); // payload_len = 11
    bytes.extend_from_slice(&[0x80; 11]);
    bytes.extend_from_slice(&[0xFF, 0, 0]); // end marker
    match TraceSet::read_ktc(bytes.as_slice()) {
        Err(TraceError::Corrupt { message, .. }) => {
            assert!(message.contains("over-long varint"), "{message}");
        }
        other => panic!("expected Corrupt(over-long varint), got {other:?}"),
    }
}

#[test]
fn out_of_range_intern_index_is_typed() {
    // A spans block with one span whose name index points past the (empty)
    // string table.
    let payload = vec![
        0, // trace_id delta 0
        0, // span_id 0
        0, // no parent
        9, // name index 9 — table is empty
        0, // start delta
        0, // end offset
        0, // annotation count
    ];
    let mut bytes = header();
    bytes.push(5); // spans tag
    bytes.push(1); // count
    bytes.push(payload.len() as u8);
    bytes.extend_from_slice(&payload);
    bytes.extend_from_slice(&[0xFF, 0, 0]);
    match TraceSet::read_ktc(bytes.as_slice()) {
        Err(TraceError::Corrupt { message, .. }) => {
            assert!(message.contains("intern index 9 out of range"), "{message}");
        }
        other => panic!("expected Corrupt(intern index), got {other:?}"),
    }
}

#[test]
fn unknown_tag_and_trailing_data_are_typed() {
    // Unknown block tag.
    let mut bytes = header();
    bytes.extend_from_slice(&[7, 0, 0]); // tag 7 does not exist
    bytes.extend_from_slice(&[0xFF, 0, 0]);
    match TraceSet::read_ktc(bytes.as_slice()) {
        Err(TraceError::Corrupt { message, .. }) => {
            assert!(message.contains("unknown block tag"), "{message}");
        }
        other => panic!("expected Corrupt(unknown tag), got {other:?}"),
    }
    // Data after the end marker.
    let mut bytes = header();
    bytes.extend_from_slice(&[0xFF, 0, 0]);
    bytes.push(0x42);
    match TraceSet::read_ktc(bytes.as_slice()) {
        Err(TraceError::Corrupt { message, .. }) => {
            assert!(message.contains("trailing data"), "{message}");
        }
        other => panic!("expected Corrupt(trailing data), got {other:?}"),
    }
}

#[test]
fn huge_claimed_lengths_do_not_allocate() {
    // A block header claiming u64::MAX rows / bytes must fail fast with a
    // typed error instead of attempting the allocation.
    let mut bytes = header();
    bytes.push(1); // storage tag
    // count = u64::MAX (10-byte varint), payload_len = 1, payload = 1 byte.
    bytes.extend_from_slice(&[0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01]);
    bytes.push(1);
    bytes.push(0);
    bytes.extend_from_slice(&[0xFF, 0, 0]);
    match TraceSet::read_ktc(bytes.as_slice()) {
        Err(TraceError::Corrupt { message, .. }) => {
            assert!(message.contains("row count"), "{message}");
        }
        other => panic!("expected Corrupt(row count), got {other:?}"),
    }
    // payload_len astronomically larger than the remaining stream.
    let mut bytes = header();
    bytes.push(1);
    bytes.push(0);
    bytes.extend_from_slice(&[0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01]);
    match TraceSet::read_ktc(bytes.as_slice()) {
        Err(TraceError::Truncated { .. }) => {}
        other => panic!("expected Truncated, got {other:?}"),
    }
}

#[test]
fn empty_and_tiny_streams_error_typed() {
    for bytes in [&[][..], &[0x4B][..], &b"KTC1"[..], &b"KTC1\x01\x00"[..]] {
        match TraceSet::read_ktc(bytes) {
            Err(TraceError::Truncated { .. }) => {}
            other => panic!("expected Truncated for {} bytes, got {other:?}", bytes.len()),
        }
    }
}

/// Stream `source`: 0 is the golden fixture, any other value the KTC
/// encoding of `arbitrary_set(source, 8)`.
fn stream(source: u64) -> Vec<u8> {
    if source == 0 {
        return golden_ktc();
    }
    let mut buf = Vec::new();
    arbitrary_set(source, 8)
        .write_ktc(&mut buf)
        .expect("encoding to memory succeeds");
    buf
}

/// One multi-byte corruption: overwrites `(position, byte)`, then one
/// range edit `(kind, at, len, other source, other at)` — kind 0 deletes
/// `len` bytes at `at`, 1 duplicates them in place, 2 replaces them with
/// `len` bytes of another stream. Positions wrap modulo the length.
type Corruption = (u64, Vec<(u64, u64)>, (u64, u64, u64, u64, u64));

fn corrupt(&(source, ref overwrites, (kind, at, len, other, other_at)): &Corruption) -> Vec<u8> {
    let mut bytes = stream(source);
    for &(pos, byte) in overwrites {
        let i = (pos % bytes.len() as u64) as usize;
        bytes[i] = byte as u8;
    }
    let at = (at % (bytes.len() as u64 + 1)) as usize;
    let end = (at + len as usize).min(bytes.len());
    match kind {
        0 => {
            bytes.drain(at..end);
        }
        1 => {
            let copy = bytes[at..end].to_vec();
            bytes.splice(end..end, copy);
        }
        _ => {
            let donor = stream(other);
            let from = (other_at % (donor.len() as u64 + 1)) as usize;
            let to = (from + len as usize).min(donor.len());
            bytes.splice(at..end, donor[from..to].iter().copied());
        }
    }
    bytes
}

/// Multi-byte corruption of the golden fixture and of random encodings
/// decodes or fails typed — never a panic.
#[test]
fn multi_byte_corruption_is_handled() {
    let overwrite = zip2(u64_range(0, 1 << 32), u64_range(0, 256));
    let edit = zip5(
        u64_range(0, 3),
        u64_range(0, 1 << 32),
        u64_range(0, 64),
        u64_range(0, 1000),
        u64_range(0, 1 << 32),
    );
    checker("multi_byte_corruption_is_handled").run(
        zip3(u64_range(0, 1000), vec_of(overwrite, 2, 16), edit),
        |case: &Corruption| {
            let bytes = corrupt(case);
            match catch_unwind(AssertUnwindSafe(|| TraceSet::read_ktc(bytes.as_slice()))) {
                Ok(
                    Ok(_)
                    | Err(
                        TraceError::Truncated { .. }
                        | TraceError::Corrupt { .. }
                        | TraceError::BadMagic { .. }
                        | TraceError::UnsupportedVersion(_)
                        | TraceError::Io(_),
                    ),
                ) => Ok(()),
                Ok(Err(other)) => Err(CaseResult::Fail(format!("untyped error {other:?}"))),
                Err(_) => Err(CaseResult::Fail("decoder panicked".into())),
            }
        },
    );
}
