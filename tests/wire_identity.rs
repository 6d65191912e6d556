//! Byte-identity properties of the zero-copy frame encoder.
//!
//! The scatter-gather encoder ([`Frame::try_encode_frame`]) must produce
//! exactly the byte stream of the legacy single-buffer encoder
//! ([`Frame::encode_via_copy`]) for every frame kind — decode, CRC
//! framing, retransmission, and chaos determinism all depend on the wire
//! bytes not moving. These tests pin that equivalence over random frames,
//! and pin the ownership rule that makes borrowing safe: an encoded frame
//! held for retransmission stays valid however the sender's heap (or the
//! event itself) changes afterwards.
//!
//! The receive side has the mirror-image pair: the owned-buffer decoder
//! ([`Frame::decode_owned`], what [`Frame::read_from`] uses) must decode
//! exactly what the copying one does, and the payload views it hands out
//! must keep the frame's buffer alive on their own.
//!
//! [`Frame::decode_owned`]: method_partitioning::jecho::Frame::decode_owned
//! [`Frame::read_from`]: method_partitioning::jecho::Frame::read_from
//!
//! [`Frame::try_encode_frame`]: method_partitioning::jecho::Frame::try_encode_frame
//! [`Frame::encode_via_copy`]: method_partitioning::jecho::Frame::encode_via_copy

use method_partitioning::core::continuation::ContinuationMessage;
use method_partitioning::core::profile::PseSample;
use method_partitioning::ir::heap::{ArrayData, Heap};
use method_partitioning::ir::marshal::{marshal_values, Marshalled};
use method_partitioning::ir::Value;
use method_partitioning::jecho::envelope::{Bytes, FRAME_HEADER_BYTES, ZERO_COPY_MIN_BYTES};
use method_partitioning::jecho::{Frame, ModulatedEvent, PlanEnvelope};
use proptest::prelude::*;
use proptest::strategy::Just;

fn sample_strategy() -> impl Strategy<Value = PseSample> {
    (any::<u32>(), any::<u64>(), any::<bool>(), any::<u64>(), any::<bool>()).prop_map(
        |(pse, mod_work, has_bytes, bytes, was_split)| PseSample {
            pse: pse as usize,
            mod_work,
            // u64::MAX is the wire's None sentinel, so Some(MAX) cannot
            // round-trip; keep generated sizes below it.
            payload_bytes: has_bytes.then_some(bytes % (u64::MAX - 1)),
            was_split,
        },
    )
}

/// Payload lengths clustered around the inline/borrow threshold, plus a
/// tail of large buffers, so both encoder paths (and the boundary) are
/// exercised.
fn payload_strategy() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        proptest::collection::vec(any::<u8>(), 0..64),
        proptest::collection::vec(any::<u8>(), ZERO_COPY_MIN_BYTES - 2..ZERO_COPY_MIN_BYTES + 2),
        proptest::collection::vec(any::<u8>(), 4096..8192),
    ]
}

fn event_strategy() -> impl Strategy<Value = (ModulatedEvent, u64)> {
    (
        (any::<u64>(), any::<u32>(), payload_strategy()),
        (
            any::<u64>(),
            any::<u64>(),
            proptest::collection::vec(sample_strategy(), 0..4),
            any::<u64>(),
        ),
    )
        .prop_map(|((seq, pse, payload), (mod_work, epoch, samples, t_mod))| {
            (
                ModulatedEvent {
                    seq,
                    continuation: ContinuationMessage {
                        pse: pse as usize,
                        payload: Marshalled::from_bytes(payload),
                        mod_work,
                        epoch,
                    },
                    samples,
                },
                t_mod,
            )
        })
}

fn frame_strategy() -> impl Strategy<Value = Frame> {
    prop_oneof![
        event_strategy().prop_map(|(event, t_mod_nanos)| Frame::Event { event, t_mod_nanos }),
        proptest::collection::vec(event_strategy(), 0..5)
            .prop_map(|events| Frame::Batch { events }),
        (proptest::collection::vec(any::<u32>(), 0..8), any::<u64>(), any::<u64>(), any::<u64>())
            .prop_map(|(active, revision, epoch, ack)| Frame::Plan(PlanEnvelope {
                active: active.into_iter().map(|p| p as usize).collect(),
                revision,
                epoch,
                ack,
            })),
        any::<u64>().prop_map(|seq| Frame::Heartbeat { seq }),
        any::<u64>().prop_map(|ack| Frame::Ack { ack }),
        proptest::collection::vec(any::<u64>(), 0..6)
            .prop_map(|watermarks| Frame::BatchAck { watermarks }),
        Just(Frame::Shutdown),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Scatter-gather encode, its deterministic flatten, its vectored
    /// write, and the delegating `encode`/`try_encode` all agree with the
    /// legacy copy encoder, byte for byte, for every frame kind.
    #[test]
    fn zero_copy_encoding_is_bit_identical(frame in frame_strategy()) {
        let legacy = frame.encode_via_copy();
        let enc = frame.encode_frame();
        prop_assert_eq!(&enc.to_vec(), &legacy);
        prop_assert_eq!(enc.len(), legacy.len());
        prop_assert_eq!(&frame.encode(), &legacy);
        prop_assert_eq!(&frame.try_encode().unwrap(), &legacy);
        let mut streamed = Vec::new();
        enc.write_to(&mut streamed).unwrap();
        prop_assert_eq!(&streamed, &legacy);
        // Segment lengths cover exactly the frame.
        let seg_total: usize = enc.segments().iter().map(|s| s.len()).sum();
        prop_assert_eq!(seg_total, legacy.len());
        // The encoding still decodes to a frame of the same kind.
        let (decoded, consumed) = Frame::decode_bytes(&legacy).unwrap();
        prop_assert_eq!(consumed, legacy.len());
        prop_assert_eq!(
            std::mem::discriminant(&decoded),
            std::mem::discriminant(&frame)
        );
    }

    /// The owned-buffer decoder, the copying decoder and the stream reader
    /// decode every frame kind to the same frame: each result re-encodes
    /// to the bytes it was decoded from.
    #[test]
    fn owned_decode_matches_copying_decode(frame in frame_strategy()) {
        let wire = frame.encode();
        let (kind, body) = (wire[0], &wire[FRAME_HEADER_BYTES..]);
        let copied = Frame::decode(kind, body).unwrap();
        let owned = Frame::decode_owned(kind, Bytes::from(body.to_vec())).unwrap();
        let streamed = Frame::read_from(&mut std::io::Cursor::new(&wire)).unwrap();
        prop_assert_eq!(&copied.encode(), &wire);
        prop_assert_eq!(&owned.encode(), &wire);
        prop_assert_eq!(&streamed.encode(), &wire);
        // Cut short, both decoders refuse, and for the same reason.
        let cut = body.len() / 2;
        if cut < body.len() {
            let copied = Frame::decode(kind, &body[..cut]).map(|f| f.encode());
            let owned = Frame::decode_owned(kind, Bytes::from(body[..cut].to_vec()))
                .map(|f| f.encode());
            prop_assert_eq!(copied, owned);
        }
    }

    /// Payload bytes land on exactly one side of the copy/borrow ledger,
    /// decided by the threshold, and everything else is inline.
    #[test]
    fn copy_borrow_accounting_matches_threshold(ev in event_strategy()) {
        let (event, t_mod_nanos) = ev;
        let payload_len = event.continuation.payload.wire_size() as u64;
        let enc = Frame::Event { event, t_mod_nanos }.encode_frame();
        if payload_len >= ZERO_COPY_MIN_BYTES as u64 {
            prop_assert_eq!(enc.borrowed_payload_bytes(), payload_len);
            prop_assert_eq!(enc.copied_payload_bytes(), 0);
            prop_assert!(enc.segments().len() > 1, "borrowed payload needs its own segment");
        } else {
            prop_assert_eq!(enc.copied_payload_bytes(), payload_len);
            prop_assert_eq!(enc.borrowed_payload_bytes(), 0);
            prop_assert_eq!(enc.segments().len(), 1, "small frames stay contiguous");
        }
    }
}

/// The ownership rule behind zero-copy: packing marshals the live set
/// into an immutable buffer, so an `EncodedFrame` sitting in a
/// retransmission window is untouched by anything the sender does
/// afterwards — mutating the source heap, re-packing, or dropping the
/// event entirely.
#[test]
fn in_flight_retransmission_survives_source_mutation() {
    let mut heap = Heap::new();
    let data: Vec<u8> = (0..(4 * ZERO_COPY_MIN_BYTES)).map(|i| (i % 256) as u8).collect();
    let arr = heap.alloc_array_from(ArrayData::Byte(data));
    let roots = vec![Value::Ref(arr)];
    let payload = marshal_values(&heap, &roots).expect("marshal");
    let event = ModulatedEvent {
        seq: 1,
        continuation: ContinuationMessage { pse: 0, payload, mod_work: 0, epoch: 0 },
        samples: vec![],
    };
    let frame = Frame::Event { event, t_mod_nanos: 0 };
    let wire_before = frame.encode_via_copy();

    // First transmission: encoded zero-copy, then parked as if unacked.
    let in_flight = frame.encode_frame();
    assert!(in_flight.borrowed_payload_bytes() > 0, "large payload must be borrowed");

    // The sender keeps computing: the source heap mutates and the same
    // roots are re-packed (a later message), none of which may reach into
    // the parked frame.
    for i in 0..64 {
        heap.array_set(arr, i, Value::Int(0x5A)).expect("mutate source array");
    }
    let repacked = marshal_values(&heap, &roots).expect("re-marshal");
    drop(frame);

    // Retransmission sends the parked frame: bit-identical to the first
    // transmission, not to the mutated heap.
    assert_eq!(in_flight.to_vec(), wire_before);
    let mut streamed = Vec::new();
    in_flight.write_to(&mut streamed).expect("retransmit");
    assert_eq!(streamed, wire_before);

    // And the mutation really did change what a fresh pack would send.
    let fresh = ModulatedEvent {
        seq: 2,
        continuation: ContinuationMessage { pse: 0, payload: repacked, mod_work: 0, epoch: 0 },
        samples: vec![],
    };
    let fresh_wire = Frame::Event { event: fresh, t_mod_nanos: 0 }.encode_frame().to_vec();
    assert_ne!(&fresh_wire[..], &wire_before[..], "sanity: mutation altered a fresh encode");
}

/// The receive-side ownership rule: a decoded payload is a view into the
/// frame's one buffer and a share of its ownership, so whoever holds a
/// member's payload can read it after the frame, its siblings and the
/// reader are gone — and no payload byte was copied to make that so.
#[test]
fn decoded_payload_outlives_its_frame_and_siblings() {
    let payload_of = |i: usize| -> Vec<u8> { (0..6000 + i).map(|b| (b * 7 + i) as u8).collect() };
    let events = (0..3)
        .map(|i| {
            let continuation = ContinuationMessage {
                pse: i,
                payload: Marshalled::from_bytes(payload_of(i)),
                mod_work: 0,
                epoch: 0,
            };
            (ModulatedEvent { seq: i as u64 + 1, continuation, samples: vec![] }, 0u64)
        })
        .collect();
    let wire = Frame::Batch { events }.encode();
    let body = wire[FRAME_HEADER_BYTES..].to_vec();
    let buffer = body.as_ptr_range();
    let Frame::Batch { events: mut decoded } =
        Frame::decode_owned(wire[0], Bytes::from(body)).expect("decodes")
    else {
        panic!("expected a batch");
    };
    assert_eq!(decoded.len(), 3);
    for (i, (event, _)) in decoded.iter().enumerate() {
        let view = event.continuation.payload.as_bytes().as_ptr_range();
        assert!(buffer.start <= view.start && view.end <= buffer.end, "member {i} was copied");
    }
    // Keep the middle member's payload only.
    let kept = decoded.swap_remove(1).0.continuation.payload;
    drop(decoded);
    drop(wire);
    assert_eq!(kept.as_bytes(), &payload_of(1)[..]);
    assert!(buffer.contains(&kept.as_bytes().as_ptr()), "still the frame's buffer");
}
