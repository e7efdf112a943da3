//! Wire-protocol property tests: every frame type round-trips through
//! encode/decode, and no malformed input — truncation at any length,
//! corrupted bytes, bad magic/version/length/type — ever panics or
//! decodes to a wrong frame. Decoding returns typed [`ProtoError`]s.

use proptest::prelude::*;
use versa_net::protocol::{
    crc32, decode_frame, encode_frame, read_frame, Frame, ProtoError, WireAccess, HEADER_LEN,
    MAGIC, MAX_PAYLOAD, VERSION,
};

fn small_string() -> impl Strategy<Value = String> {
    proptest::collection::vec(0u8..128, 0..24)
        .prop_map(|v| v.into_iter().map(|b| (b % 26 + b'a') as char).collect())
}

fn small_bytes() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(0u8..255, 0..64)
}

fn access_strategy() -> impl Strategy<Value = WireAccess> {
    (0u32..1000, 0u64..4096, 0u64..4096, 0u64..8192, 0u8..3).prop_map(
        |(data, offset, len, alloc_len, mode)| WireAccess { data, offset, len, alloc_len, mode },
    )
}

fn frame_strategy() -> impl Strategy<Value = Frame> {
    prop_oneof![
        (small_string(), 0u32..64, small_string(), small_string()).prop_map(
            |(name, smp_workers, simd_tier, hints)| Frame::Hello {
                name,
                smp_workers,
                simd_tier,
                hints
            }
        ),
        (0u16..256, small_string()).prop_map(|(node_id, hints)| Frame::Welcome { node_id, hints }),
        (0u32..1000, small_bytes()).prop_map(|(data, bytes)| Frame::Ship { data, bytes }),
        Just(Frame::ShipAck),
        (
            0u64..10_000,
            small_string(),
            0u16..8,
            1u32..5,
            proptest::collection::vec(access_strategy(), 0..5)
        )
            .prop_map(|(task, template, version, attempt, accesses)| Frame::Exec {
                task,
                template,
                version,
                attempt,
                accesses
            }),
        (0u64..u64::MAX, proptest::collection::vec((0u32..1000, small_bytes()), 0..4))
            .prop_map(|(kernel_ns, writes)| Frame::ExecOk { kernel_ns, writes }),
        small_string().prop_map(|message| Frame::ExecErr { message }),
        Just(Frame::Heartbeat),
        Just(Frame::HeartbeatAck),
        small_string().prop_map(|hints| Frame::Shutdown { hints }),
        Just(Frame::ShutdownAck),
    ]
}

proptest! {
    // Round-trip: every frame type, any tag, decodes back to itself and
    // consumes exactly the encoded length.
    #[test]
    fn every_frame_round_trips(frame in frame_strategy(), tag in 0u64..u64::MAX) {
        let wire = encode_frame(&frame, tag);
        let (got, got_tag, used) = decode_frame(&wire).expect("well-formed frame must decode");
        prop_assert_eq!(got, frame);
        prop_assert_eq!(got_tag, tag);
        prop_assert_eq!(used, wire.len());
    }

    // Truncation at EVERY prefix length is a typed error, never a panic
    // and never a bogus decode.
    #[test]
    fn every_truncation_is_rejected(frame in frame_strategy(), tag in 0u64..1000) {
        let wire = encode_frame(&frame, tag);
        for cut in 0..wire.len() {
            match decode_frame(&wire[..cut]) {
                Err(_) => {}
                Ok((_, _, used)) => prop_assert!(
                    used <= cut,
                    "decode consumed {} bytes from a {}-byte prefix",
                    used, cut
                ),
            }
        }
    }

    // Flipping any single byte is rejected (or decodes to the original
    // only when the flip landed in the tag, which the checksum doesn't
    // cover by design — the tag is routing metadata, not payload).
    #[test]
    fn single_byte_corruption_is_detected(
        frame in frame_strategy(),
        pos_seed in 0usize..10_000,
        flip in 1u8..255,
    ) {
        let wire = encode_frame(&frame, 42);
        let pos = pos_seed % wire.len();
        let mut bad = wire.clone();
        bad[pos] ^= flip;
        match decode_frame(&bad) {
            Err(_) => {} // typed rejection: the common case
            Ok((got, _, _)) => {
                // A flip inside the tag field (bytes 5..13) still decodes —
                // everything else must be caught by a field check or the CRC.
                prop_assert!(
                    (5..13).contains(&pos),
                    "corruption at byte {} decoded silently to {:?}", pos, got
                );
                prop_assert_eq!(got, frame);
            }
        }
    }

    // Arbitrary garbage never panics the decoder.
    #[test]
    fn random_bytes_never_panic(bytes in proptest::collection::vec(0u8..255, 0..256)) {
        let _ = decode_frame(&bytes);
        let mut cursor = std::io::Cursor::new(bytes);
        let _ = read_frame(&mut cursor);
    }
}

#[test]
fn version_mismatch_is_typed() {
    let mut wire = encode_frame(&Frame::Heartbeat, 1);
    wire[2..4].copy_from_slice(&2u16.to_le_bytes());
    assert_eq!(decode_frame(&wire), Err(ProtoError::BadVersion(2)));
}

#[test]
fn bad_magic_is_typed() {
    let mut wire = encode_frame(&Frame::Heartbeat, 1);
    wire[0] = b'X';
    assert_eq!(decode_frame(&wire), Err(ProtoError::BadMagic));
}

#[test]
fn oversized_length_is_typed() {
    let mut wire = encode_frame(&Frame::Heartbeat, 1);
    wire[13..17].copy_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
    assert_eq!(decode_frame(&wire), Err(ProtoError::BadLength(MAX_PAYLOAD + 1)));
}

#[test]
fn unknown_frame_type_is_typed() {
    // Type 200 with an empty payload and a correct checksum: only the
    // frame-type check can object.
    let mut wire = Vec::new();
    wire.extend_from_slice(&MAGIC);
    wire.extend_from_slice(&VERSION.to_le_bytes());
    wire.push(200);
    wire.extend_from_slice(&7u64.to_le_bytes());
    wire.extend_from_slice(&0u32.to_le_bytes());
    wire.extend_from_slice(&crc32(b"").to_le_bytes());
    assert_eq!(decode_frame(&wire), Err(ProtoError::BadFrameType(200)));
}

#[test]
fn checksum_flip_is_typed() {
    let mut wire = encode_frame(&Frame::ExecErr { message: "boom".into() }, 3);
    // Flip a payload byte without re-sealing the CRC.
    wire[HEADER_LEN] ^= 0xFF;
    assert_eq!(decode_frame(&wire), Err(ProtoError::BadChecksum));
}

#[test]
fn bad_utf8_in_string_field_is_typed() {
    // An ExecErr whose string bytes are invalid UTF-8, re-sealed so the
    // CRC passes and only the UTF-8 check can object.
    let mut payload = Vec::new();
    payload.extend_from_slice(&2u32.to_le_bytes());
    payload.extend_from_slice(&[0xFF, 0xFE]);
    let mut wire = Vec::new();
    wire.extend_from_slice(&MAGIC);
    wire.extend_from_slice(&VERSION.to_le_bytes());
    wire.push(7);
    wire.extend_from_slice(&0u64.to_le_bytes());
    wire.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    wire.extend_from_slice(&payload);
    wire.extend_from_slice(&crc32(&payload).to_le_bytes());
    assert_eq!(decode_frame(&wire), Err(ProtoError::BadUtf8));
}

/// Committed wire bytes produced by the encoder this build's replaced
/// (protocol VERSION 1): they must still decode, and re-encode to the
/// same bytes, so old and new peers interoperate.
#[test]
fn golden_wire_bytes_decode_and_reencode_identically() {
    fn unhex(s: &str) -> Vec<u8> {
        let s = s.trim();
        (0..s.len()).step_by(2).map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap()).collect()
    }
    let ship = Frame::Ship {
        data: 7,
        bytes: (0u8..40).map(|i| i.wrapping_mul(37).wrapping_add(11)).collect(),
    };
    let exec = Frame::Exec {
        task: 42,
        template: "matmul_tile".into(),
        version: 3,
        attempt: 2,
        accesses: vec![
            WireAccess { data: 1, offset: 0, len: 64, alloc_len: 64, mode: 0 },
            WireAccess { data: 2, offset: 8, len: 56, alloc_len: 128, mode: 2 },
        ],
    };
    let exec_ok = Frame::ExecOk {
        kernel_ns: 123_456_789,
        writes: vec![(5, vec![1, 2, 3, 4, 5]), (6, vec![]), (9, vec![0xFF; 3])],
    };
    for (golden, frame, tag) in [
        (include_str!("golden/ship.hex"), ship, 0x0102_0304_0506_0708u64),
        (include_str!("golden/exec.hex"), exec, 9),
        (include_str!("golden/exec_ok.hex"), exec_ok, 77),
    ] {
        let wire = unhex(golden);
        assert_eq!(decode_frame(&wire), Ok((frame.clone(), tag, wire.len())));
        assert_eq!(encode_frame(&frame, tag), wire);
        let mut written = Vec::new();
        versa_net::protocol::write_frame(&mut written, &frame, tag).unwrap();
        assert_eq!(written, wire);
        assert_eq!(read_frame(&mut std::io::Cursor::new(&wire)), Ok(Some((frame, tag))));
    }
}
