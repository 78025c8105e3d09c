//! Fuzz suite for the daemon's wire decoders: the frame codec
//! ([`frame::read_frame`], shared by the daemon and the client) and the
//! `Volume` payload ([`frame::parse_volume_payload`]).
//!
//! * arbitrary and mutated byte streams, delivered in arbitrary read
//!   sizes with interrupted reads, give frames, a clean end (`Ok(None)`)
//!   or a typed [`FrameError`] — never a panic or a hang — and every
//!   frame decoded re-encodes to the exact bytes it was read from;
//! * every frame kind survives [`frame::encode`] → [`frame::read_frame`];
//! * arbitrary and mutated `Volume` payloads give `None` or devices that
//!   re-encode to the same bytes.

#![allow(clippy::unwrap_used, clippy::panic)] // test code

use std::io::{self, Read};

use icd_server::frame::{self, Frame, FrameError, FrameType, HEADER_LEN};
use proptest::prelude::*;

/// A small payload bound, so a mutated length field cannot make a read
/// allocate much.
const MAX_PAYLOAD: u32 = 256;

/// Hands out `bytes` at most `step` bytes per read, answering every
/// third read with `Interrupted` first.
struct Trickle<'a> {
    bytes: &'a [u8],
    step: usize,
    reads: usize,
}

impl Read for Trickle<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.reads += 1;
        if self.reads.is_multiple_of(3) {
            return Err(io::ErrorKind::Interrupted.into());
        }
        let n = self.step.min(buf.len()).min(self.bytes.len());
        buf[..n].copy_from_slice(&self.bytes[..n]);
        self.bytes = &self.bytes[n..];
        Ok(n)
    }
}

/// Every defined frame type.
fn frame_types() -> Vec<FrameType> {
    (0..=u8::MAX).filter_map(FrameType::from_u8).collect()
}

/// A valid stream: a traced `Request`, a `Volume` and a bare `Ping`.
fn valid_stream() -> Vec<u8> {
    let devices = vec![
        (
            "d0.log".to_owned(),
            "datalog d0\npatterns 4\nfail 1 2\n".to_owned(),
        ),
        ("d1.log".to_owned(), String::new()),
    ];
    let frames = [
        Frame {
            frame_type: FrameType::Request,
            request_id: 7,
            trace_id: Some(0x1122_3344_5566_7788),
            payload: frame::request_payload(1500, "datalog d0\npatterns 4\nfail 1 2\n"),
        },
        Frame {
            frame_type: FrameType::Volume,
            request_id: 8,
            trace_id: None,
            payload: frame::volume_request_payload(0, &devices),
        },
        Frame::bare(FrameType::Ping, 9),
    ];
    frames.iter().flat_map(frame::encode).collect()
}

/// Overwrites, inserts or deletes bytes of `bytes` (an empty input only
/// grows).
fn mutate(mut bytes: Vec<u8>, edits: &[(u8, usize, u8)]) -> Vec<u8> {
    for &(op, at, byte) in edits {
        if bytes.is_empty() {
            bytes.push(byte);
            continue;
        }
        let at = at % bytes.len();
        match op {
            0 => bytes[at] = byte,
            1 => bytes.insert(at, byte),
            _ => {
                bytes.remove(at);
            }
        }
    }
    bytes
}

/// Reads frames from `bytes` (through a [`Trickle`] of `step`-byte reads)
/// until a clean end or the first error. Each frame must re-encode to
/// the bytes it came from, and an error must be a protocol error (a
/// byte slice has no transport to fail).
fn read_all(bytes: &[u8], step: usize) -> Result<usize, String> {
    let mut reader = Trickle {
        bytes,
        step: step.max(1),
        reads: 0,
    };
    let mut at = 0usize;
    let mut frames = 0usize;
    loop {
        match frame::read_frame(&mut reader, MAX_PAYLOAD) {
            Ok(None) => {
                prop_assert_eq!(at, bytes.len(), "clean end before the input ran out");
                return Ok(frames);
            }
            Ok(Some(f)) => {
                let wire = frame::encode(&f);
                prop_assert!(wire.len() >= HEADER_LEN);
                prop_assert_eq!(bytes.get(at..at + wire.len()), Some(&wire[..]));
                at += wire.len();
                frames += 1;
            }
            Err(FrameError::Protocol(e)) => {
                prop_assert!(!e.to_string().is_empty());
                return Ok(frames);
            }
            Err(FrameError::Io(e)) => return Err(format!("transport error from a slice: {e}")),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_give_frames_or_a_typed_error(
        bytes in prop::collection::vec(any::<u8>(), 0..96),
        step in 1usize..40,
    ) {
        read_all(&bytes, step)?;
    }

    /// Arbitrary bytes behind a valid header prefix, so reads get past
    /// the magic and version checks.
    #[test]
    fn arbitrary_headers_give_frames_or_a_typed_error(
        tail in prop::collection::vec(any::<u8>(), 0..64),
        step in 1usize..40,
    ) {
        let mut bytes = frame::MAGIC.to_vec();
        bytes.push(frame::VERSION);
        bytes.extend(tail);
        read_all(&bytes, step)?;
    }

    #[test]
    fn mutated_streams_give_frames_or_a_typed_error(
        edits in prop::collection::vec((0u8..3, any::<usize>(), any::<u8>()), 1..6),
        step in 1usize..200,
    ) {
        read_all(&mutate(valid_stream(), &edits), step)?;
    }

    #[test]
    fn every_frame_kind_round_trips(
        kind in any::<usize>(),
        request_id in any::<u64>(),
        traced in any::<bool>(),
        trace_id in any::<u64>(),
        payload in prop::collection::vec(any::<u8>(), 0..200),
        step in 1usize..300,
    ) {
        let kinds = frame_types();
        let sent = Frame {
            frame_type: kinds[kind % kinds.len()],
            request_id,
            trace_id: traced.then_some(trace_id),
            payload,
        };
        let bytes = frame::encode(&sent);
        let mut reader = Trickle { bytes: &bytes, step, reads: 0 };
        let got = frame::read_frame(&mut reader, MAX_PAYLOAD);
        prop_assert!(matches!(&got, Ok(Some(f)) if *f == sent), "{:?}", got);
        prop_assert!(matches!(frame::read_frame(&mut reader, MAX_PAYLOAD), Ok(None)));
    }

    #[test]
    fn arbitrary_volume_payloads_give_none_or_devices(
        payload in prop::collection::vec(any::<u8>(), 0..96),
    ) {
        if let Some((deadline_ms, devices)) = frame::parse_volume_payload(&payload) {
            prop_assert_eq!(frame::volume_request_payload(deadline_ms, &devices), payload);
        }
    }

    #[test]
    fn mutated_volume_payloads_give_none_or_devices(
        names in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..6), 0..4),
        deadline_ms in any::<u32>(),
        edits in prop::collection::vec((0u8..3, any::<usize>(), any::<u8>()), 0..4),
    ) {
        let devices: Vec<(String, String)> = names
            .iter()
            .map(|name| {
                let name = String::from_utf8_lossy(name).into_owned();
                let text = format!("datalog {name}\n");
                (name, text)
            })
            .collect();
        let valid = frame::volume_request_payload(deadline_ms, &devices);
        prop_assert_eq!(
            frame::parse_volume_payload(&valid),
            Some((deadline_ms, devices.clone()))
        );
        let payload = mutate(valid, &edits);
        if let Some((deadline_ms, devices)) = frame::parse_volume_payload(&payload) {
            prop_assert_eq!(frame::volume_request_payload(deadline_ms, &devices), payload);
        }
    }
}

#[test]
fn the_valid_stream_decodes_to_three_frames() {
    let bytes = valid_stream();
    for step in [1, 7, bytes.len()] {
        assert_eq!(read_all(&bytes, step), Ok(3), "step {step}");
    }
}
