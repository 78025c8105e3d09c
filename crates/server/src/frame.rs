//! The versioned length-framed wire protocol of the diagnosis daemon.
//!
//! Every message on the wire is one frame:
//!
//! ```text
//! offset  size  field
//! 0       4     magic        b"ICDS"
//! 4       1     version      0x01
//! 5       1     frame type   (see [`FrameType`])
//! 6       2     flags        (u16 LE; unknown bits are rejected)
//! 8       8     request id   (u64 LE, client-chosen, echoed in responses)
//! 16      4     payload len  (u32 LE, <= negotiated max)
//! 20      4     crc32        IEEE crc32 of the payload bytes (u32 LE)
//! 24      len   payload
//! ```
//!
//! The flags field was the always-zero reserved field through protocol
//! version 1's first deployments; a zero flags word is byte-identical
//! to the old encoding, so old and new builds interoperate as long as
//! no flag is used. One flag is defined: [`FLAG_TRACE_ID`] declares
//! that the payload starts with an 8-byte LE trace id (stripped on
//! decode into [`Frame::trace_id`], echoed by the server on every
//! response to the request). The payload length and crc32 cover the
//! prefix.
//!
//! Malformed input never panics the daemon — every way a frame can be
//! wrong is a typed [`ProtocolError`], split into two severities:
//!
//! * **frame-bounded** (bad crc, unknown frame type): the bad frame was
//!   fully consumed, the stream is still in sync, and the connection
//!   keeps serving after an `Error` response;
//! * **desynchronizing** (bad magic/version, oversized length, truncated
//!   read): the reader can no longer trust frame boundaries, so the
//!   server answers with an `Error` frame and closes the connection.

use std::error::Error;
use std::fmt;
use std::io::{self, Read, Write};
use std::sync::OnceLock;

/// The four magic bytes opening every frame.
pub const MAGIC: [u8; 4] = *b"ICDS";
/// Protocol version this build speaks.
pub const VERSION: u8 = 1;
/// Fixed header size in bytes (payload follows).
pub const HEADER_LEN: usize = 24;
/// Default cap on payload size; larger claims are rejected unread.
pub const DEFAULT_MAX_PAYLOAD: u32 = 1 << 20;
/// Header flag: the payload starts with an 8-byte LE trace id.
pub const FLAG_TRACE_ID: u16 = 0x0001;
/// Every flag bit this build understands; anything else is rejected.
pub const KNOWN_FLAGS: u16 = FLAG_TRACE_ID;

/// What a frame carries. Client-to-server types sit below 0x80,
/// server-to-client types at or above it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameType {
    /// Client: diagnose one datalog. Payload: `u32 LE deadline_ms`
    /// (0 = server default) followed by datalog text.
    Request = 0x01,
    /// Client: liveness probe; empty payload.
    Ping = 0x02,
    /// Client: ask the daemon to drain and exit; empty payload.
    Shutdown = 0x03,
    /// Client: volume-diagnose many datalogs of the served design as one
    /// workload. Payload: `u32 LE deadline_ms`, `u32 LE count`, then
    /// `count` records of `u32 LE name_len, name, u32 LE text_len, text`
    /// (see [`volume_request_payload`]). Answered with a single
    /// [`FrameType::Report`] whose payload is the status byte followed
    /// by the canonical volume-report JSON (byte-identical to
    /// `icdiag volume --json-out` over the same corpus).
    Volume = 0x04,
    /// Client: snapshot the daemon's live stats (rolling-window
    /// counters, latency percentiles, queue depth, drain state); empty
    /// payload. Answered with [`FrameType::StatsReport`]. Served even
    /// while draining — an operator watching a drain is the moment
    /// stats matter most.
    Stats = 0x05,
    /// Server: the front stage resolved; payload is ASCII gate indices,
    /// space-separated, in report slot order.
    Suspects = 0x81,
    /// Server: one suspect analysis finished. Payload:
    /// `slot=<n> gate=<g> ok=<0|1>` ASCII.
    Progress = 0x82,
    /// Server: final answer. Payload: one [`ResponseStatus`] byte, then
    /// the canonical summary line (byte-identical to `icdiag run`).
    Report = 0x83,
    /// Server: a request failed. Payload: one error code byte, then a
    /// human-readable message.
    Error = 0x84,
    /// Server: answer to [`FrameType::Ping`]; empty payload.
    Pong = 0x85,
    /// Server: orderly close (drain reached this connection or the
    /// client's shutdown was accepted); empty payload.
    Goodbye = 0x86,
    /// Server: answer to [`FrameType::Stats`]; payload is the live
    /// stats snapshot as JSON with byte-stable field names.
    StatsReport = 0x87,
}

impl FrameType {
    /// Decodes the wire byte.
    pub fn from_u8(b: u8) -> Option<FrameType> {
        Some(match b {
            0x01 => FrameType::Request,
            0x02 => FrameType::Ping,
            0x03 => FrameType::Shutdown,
            0x04 => FrameType::Volume,
            0x05 => FrameType::Stats,
            0x81 => FrameType::Suspects,
            0x82 => FrameType::Progress,
            0x83 => FrameType::Report,
            0x84 => FrameType::Error,
            0x85 => FrameType::Pong,
            0x86 => FrameType::Goodbye,
            0x87 => FrameType::StatsReport,
            _ => return None,
        })
    }
}

/// Outcome byte leading a [`FrameType::Report`] payload. `Degraded`
/// deliberately shares its value with `icdiag`'s exit code 3: a partial
/// report over the wire means exactly what exit 3 means on the CLI.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ResponseStatus {
    /// Complete report, nothing skipped for operational reasons.
    Ok = 0,
    /// Complete-but-degraded report (skipped suspects or unexplained
    /// patterns) — mirrors `icdiag` exit code 3.
    Degraded = 3,
}

impl ResponseStatus {
    /// Decodes the wire byte.
    pub fn from_u8(b: u8) -> Option<ResponseStatus> {
        match b {
            0 => Some(ResponseStatus::Ok),
            3 => Some(ResponseStatus::Degraded),
            _ => None,
        }
    }
}

/// Error code byte leading a [`FrameType::Error`] payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// The frame violated the protocol (see message for which way).
    Protocol = 1,
    /// The request payload was not a parseable datalog.
    BadPayload = 2,
    /// Admission kept failing after every retry: the queue stayed full.
    Busy = 3,
    /// The request's deadline expired (or the client's token cancelled)
    /// before a report could be merged.
    DeadlineExceeded = 4,
    /// The daemon is draining and accepts no new requests.
    Draining = 5,
    /// The request failed as a whole (front-stage error, or worker
    /// panics survived every retry).
    Internal = 6,
}

impl ErrorCode {
    /// Decodes the wire byte.
    pub fn from_u8(b: u8) -> Option<ErrorCode> {
        Some(match b {
            1 => ErrorCode::Protocol,
            2 => ErrorCode::BadPayload,
            3 => ErrorCode::Busy,
            4 => ErrorCode::DeadlineExceeded,
            5 => ErrorCode::Draining,
            6 => ErrorCode::Internal,
            _ => return None,
        })
    }
}

/// Every way an incoming byte stream can fail to be a frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// The first four bytes were not [`MAGIC`].
    BadMagic {
        /// The bytes actually read.
        got: [u8; 4],
    },
    /// Version byte this build does not speak.
    BadVersion {
        /// The version actually read.
        got: u8,
    },
    /// The flags field carried bits this build does not understand
    /// (the pre-flags protocol required the field to be zero, so old
    /// peers are a strict subset of this check).
    UnknownFlags {
        /// The flags word actually read.
        got: u16,
    },
    /// The header declared [`FLAG_TRACE_ID`] but the payload is too
    /// short to hold the 8-byte prefix (frame-bounded: the payload was
    /// fully consumed).
    MissingTraceId {
        /// Payload bytes actually present.
        got: usize,
    },
    /// Frame type byte outside the known set (frame-bounded: the
    /// payload length was still trusted and consumed).
    UnknownFrameType {
        /// The type byte actually read.
        got: u8,
    },
    /// Claimed payload length exceeds the negotiated maximum; rejected
    /// before reading the payload.
    Oversized {
        /// The claimed length.
        len: u32,
        /// The maximum this endpoint accepts.
        max: u32,
    },
    /// Payload bytes did not match the header's crc32.
    BadChecksum {
        /// The crc the header claimed.
        expected: u32,
        /// The crc of the bytes actually received.
        got: u32,
    },
    /// The stream ended (or the peer stalled past its budget) inside a
    /// frame.
    Truncated {
        /// Which part of the frame was being read.
        context: &'static str,
        /// Bytes the frame still needed.
        needed: usize,
        /// Bytes actually available.
        got: usize,
    },
}

impl ProtocolError {
    /// Whether the stream is still frame-synchronized after this error
    /// (the connection may keep serving) or must be closed.
    pub fn is_frame_bounded(&self) -> bool {
        matches!(
            self,
            ProtocolError::UnknownFrameType { .. }
                | ProtocolError::BadChecksum { .. }
                | ProtocolError::MissingTraceId { .. }
        )
    }
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::BadMagic { got } => {
                write!(f, "bad frame magic {got:02x?} (expected {MAGIC:02x?})")
            }
            ProtocolError::BadVersion { got } => {
                write!(
                    f,
                    "unsupported protocol version {got} (this build speaks {VERSION})"
                )
            }
            ProtocolError::UnknownFlags { got } => {
                write!(
                    f,
                    "unknown header flag bits {got:#06x} (this build understands {KNOWN_FLAGS:#06x})"
                )
            }
            ProtocolError::MissingTraceId { got } => {
                write!(
                    f,
                    "trace-id flag set but payload holds only {got} bytes (need 8)"
                )
            }
            ProtocolError::UnknownFrameType { got } => {
                write!(f, "unknown frame type {got:#04x}")
            }
            ProtocolError::Oversized { len, max } => {
                write!(f, "payload of {len} bytes exceeds the {max}-byte limit")
            }
            ProtocolError::BadChecksum { expected, got } => {
                write!(
                    f,
                    "payload crc32 {got:#010x} does not match header {expected:#010x}"
                )
            }
            ProtocolError::Truncated {
                context,
                needed,
                got,
            } => {
                write!(
                    f,
                    "stream truncated reading {context}: needed {needed} bytes, got {got}"
                )
            }
        }
    }
}

impl Error for ProtocolError {}

/// A frame-read failure: either the bytes were wrong ([`ProtocolError`])
/// or the transport itself failed.
#[derive(Debug)]
pub enum FrameError {
    /// The bytes violated the protocol.
    Protocol(ProtocolError),
    /// The socket failed (reset, refused, OS error). Truncation mid-frame
    /// is reported as [`ProtocolError::Truncated`], not here.
    Io(io::Error),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Protocol(e) => write!(f, "{e}"),
            FrameError::Io(e) => write!(f, "frame transport failed: {e}"),
        }
    }
}

impl Error for FrameError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            FrameError::Protocol(e) => Some(e),
            FrameError::Io(e) => Some(e),
        }
    }
}

impl From<ProtocolError> for FrameError {
    fn from(e: ProtocolError) -> Self {
        FrameError::Protocol(e)
    }
}

/// One decoded frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// What the payload means.
    pub frame_type: FrameType,
    /// Client-chosen id echoed in every response to the request.
    pub request_id: u64,
    /// The request's trace id, when the frame carried
    /// [`FLAG_TRACE_ID`]. On the wire it travels as an 8-byte LE
    /// payload prefix; [`Frame::payload`] holds the bytes *after* the
    /// prefix.
    pub trace_id: Option<u64>,
    /// The payload bytes (already crc-verified and trace-id-stripped on
    /// decode).
    pub payload: Vec<u8>,
}

impl Frame {
    /// A payload-free frame (ping/pong/goodbye/shutdown).
    pub fn bare(frame_type: FrameType, request_id: u64) -> Frame {
        Frame {
            frame_type,
            request_id,
            trace_id: None,
            payload: Vec::new(),
        }
    }

    /// The same frame carrying a trace id (chainable constructor aid).
    #[must_use]
    pub fn with_trace_id(mut self, trace_id: Option<u64>) -> Frame {
        self.trace_id = trace_id;
        self
    }
}

fn crc_table() -> &'static [u32; 256] {
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut table = [0u32; 256];
        for (i, entry) in table.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xedb8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *entry = c;
        }
        table
    })
}

/// IEEE crc32 (the zlib/PNG polynomial) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let table = crc_table();
    let mut c = 0xffff_ffffu32;
    for &b in bytes {
        c = table[((c ^ u32::from(b)) & 0xff) as usize] ^ (c >> 8);
    }
    c ^ 0xffff_ffff
}

/// Encodes a frame to its wire bytes. A frame without a trace id is
/// byte-identical to the pre-flags encoding (flags word zero).
pub fn encode(frame: &Frame) -> Vec<u8> {
    let flags = if frame.trace_id.is_some() {
        FLAG_TRACE_ID
    } else {
        0
    };
    let mut out = Vec::with_capacity(HEADER_LEN + 8 + frame.payload.len());
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
    out.push(frame.frame_type as u8);
    out.extend_from_slice(&flags.to_le_bytes());
    out.extend_from_slice(&frame.request_id.to_le_bytes());
    // Payload length and crc32, patched once the wire payload is in place.
    out.extend_from_slice(&[0; 8]);
    if let Some(id) = frame.trace_id {
        out.extend_from_slice(&id.to_le_bytes());
    }
    out.extend_from_slice(&frame.payload);
    let wire_len = (out.len() - HEADER_LEN) as u32;
    let crc = crc32(&out[HEADER_LEN..]);
    out[16..20].copy_from_slice(&wire_len.to_le_bytes());
    out[20..24].copy_from_slice(&crc.to_le_bytes());
    out
}

/// Writes a frame to `w` (one `write_all`; no partial frames on success).
///
/// # Errors
///
/// Propagates the transport's I/O error.
pub fn write_frame<W: Write>(w: &mut W, frame: &Frame) -> io::Result<()> {
    w.write_all(&encode(frame))?;
    w.flush()
}

/// The validated fields of a frame header, before the payload is read.
struct Header {
    /// Raw frame-type byte; validated against [`FrameType`] only after
    /// the payload is consumed, so an unknown type stays frame-bounded.
    type_byte: u8,
    flags: u16,
    request_id: u64,
    /// Payload length including any trace-id prefix (already bounded by
    /// `max_payload`).
    payload_len: u32,
    crc: u32,
}

/// Parses and validates the fixed-size header. Magic, version, flag
/// bits and the length bound are checked here; the frame type and crc
/// are checked by [`finish_frame`] once the payload is in hand.
fn parse_header(bytes: &[u8; HEADER_LEN], max_payload: u32) -> Result<Header, ProtocolError> {
    if bytes[0..4] != MAGIC {
        let mut got = [0u8; 4];
        got.copy_from_slice(&bytes[0..4]);
        return Err(ProtocolError::BadMagic { got });
    }
    if bytes[4] != VERSION {
        return Err(ProtocolError::BadVersion { got: bytes[4] });
    }
    let flags = u16::from_le_bytes([bytes[6], bytes[7]]);
    if flags & !KNOWN_FLAGS != 0 {
        return Err(ProtocolError::UnknownFlags { got: flags });
    }
    let mut id = [0u8; 8];
    id.copy_from_slice(&bytes[8..16]);
    let mut len = [0u8; 4];
    len.copy_from_slice(&bytes[16..20]);
    let payload_len = u32::from_le_bytes(len);
    if payload_len > max_payload {
        return Err(ProtocolError::Oversized {
            len: payload_len,
            max: max_payload,
        });
    }
    let mut crc = [0u8; 4];
    crc.copy_from_slice(&bytes[20..24]);
    Ok(Header {
        type_byte: bytes[5],
        flags,
        request_id: u64::from_le_bytes(id),
        payload_len,
        crc: u32::from_le_bytes(crc),
    })
}

/// Validates frame type and payload crc once the payload is read, and
/// strips the trace-id prefix when the header declared one. Every error
/// here is frame-bounded: the stream is still in sync.
fn finish_frame(header: &Header, mut payload: Vec<u8>) -> Result<Frame, ProtocolError> {
    let got = crc32(&payload);
    if got != header.crc {
        return Err(ProtocolError::BadChecksum {
            expected: header.crc,
            got,
        });
    }
    let frame_type =
        FrameType::from_u8(header.type_byte).ok_or(ProtocolError::UnknownFrameType {
            got: header.type_byte,
        })?;
    let trace_id = if header.flags & FLAG_TRACE_ID != 0 {
        if payload.len() < 8 {
            return Err(ProtocolError::MissingTraceId { got: payload.len() });
        }
        let mut id = [0u8; 8];
        id.copy_from_slice(&payload[..8]);
        payload.drain(..8);
        Some(u64::from_le_bytes(id))
    } else {
        None
    };
    Ok(Frame {
        frame_type,
        request_id: header.request_id,
        trace_id,
        payload,
    })
}

/// Reads until `buf` is full or the stream ends; returns the bytes read.
fn fill<R: Read>(r: &mut R, buf: &mut [u8]) -> Result<usize, FrameError> {
    let mut filled = 0usize;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(filled)
}

/// Reads one frame from a blocking reader. `Ok(None)` is a clean EOF at
/// a frame boundary (the peer closed between frames); EOF *inside* a
/// frame is [`ProtocolError::Truncated`].
///
/// # Errors
///
/// [`FrameError::Protocol`] for malformed bytes, [`FrameError::Io`] for
/// transport failures.
pub fn read_frame<R: Read>(r: &mut R, max_payload: u32) -> Result<Option<Frame>, FrameError> {
    let mut header = [0u8; HEADER_LEN];
    match fill(r, &mut header)? {
        0 => return Ok(None),
        HEADER_LEN => {}
        got => {
            return Err(ProtocolError::Truncated {
                context: "header",
                needed: HEADER_LEN,
                got,
            }
            .into())
        }
    }
    let header = parse_header(&header, max_payload)?;
    let mut payload = vec![0u8; header.payload_len as usize];
    let got = fill(r, &mut payload)?;
    if got < payload.len() {
        return Err(ProtocolError::Truncated {
            context: "payload",
            needed: payload.len(),
            got,
        }
        .into());
    }
    Ok(Some(finish_frame(&header, payload)?))
}

/// Builds a [`FrameType::Request`] payload from its parts.
pub fn request_payload(deadline_ms: u32, datalog_text: &str) -> Vec<u8> {
    let mut payload = Vec::with_capacity(4 + datalog_text.len());
    payload.extend_from_slice(&deadline_ms.to_le_bytes());
    payload.extend_from_slice(datalog_text.as_bytes());
    payload
}

/// Splits a [`FrameType::Request`] payload into `(deadline_ms, datalog
/// text)`; `None` when it is too short or not UTF-8.
pub fn parse_request_payload(payload: &[u8]) -> Option<(u32, &str)> {
    if payload.len() < 4 {
        return None;
    }
    let deadline_ms = u32::from_le_bytes([payload[0], payload[1], payload[2], payload[3]]);
    std::str::from_utf8(&payload[4..])
        .ok()
        .map(|text| (deadline_ms, text))
}

/// Builds a [`FrameType::Volume`] payload: a deadline and a named corpus
/// of datalog texts.
pub fn volume_request_payload(deadline_ms: u32, devices: &[(String, String)]) -> Vec<u8> {
    let mut payload = Vec::with_capacity(
        8 + devices
            .iter()
            .map(|(n, t)| 8 + n.len() + t.len())
            .sum::<usize>(),
    );
    payload.extend_from_slice(&deadline_ms.to_le_bytes());
    payload.extend_from_slice(&(devices.len() as u32).to_le_bytes());
    for (name, text) in devices {
        payload.extend_from_slice(&(name.len() as u32).to_le_bytes());
        payload.extend_from_slice(name.as_bytes());
        payload.extend_from_slice(&(text.len() as u32).to_le_bytes());
        payload.extend_from_slice(text.as_bytes());
    }
    payload
}

/// Splits a [`FrameType::Volume`] payload into `(deadline_ms, devices)`;
/// `None` when any length field runs past the payload, the record count
/// lies, or a name/text is not UTF-8.
pub fn parse_volume_payload(payload: &[u8]) -> Option<(u32, Vec<(String, String)>)> {
    fn take_u32(payload: &[u8], at: &mut usize) -> Option<u32> {
        let bytes = payload.get(*at..*at + 4)?;
        *at += 4;
        Some(u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]))
    }
    fn take_str(payload: &[u8], at: &mut usize) -> Option<String> {
        let len = take_u32(payload, at)? as usize;
        let bytes = payload.get(*at..*at + len)?;
        *at += len;
        String::from_utf8(bytes.to_vec()).ok()
    }
    let mut at = 0usize;
    let deadline_ms = take_u32(payload, &mut at)?;
    let count = take_u32(payload, &mut at)? as usize;
    // An absurd count claim must not pre-allocate unbounded memory: the
    // payload itself bounds how many records can exist (≥ 8 bytes each).
    if count > payload.len() / 8 + 1 {
        return None;
    }
    let mut devices = Vec::with_capacity(count);
    for _ in 0..count {
        let name = take_str(payload, &mut at)?;
        let text = take_str(payload, &mut at)?;
        devices.push((name, text));
    }
    if at != payload.len() {
        return None;
    }
    Some((deadline_ms, devices))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Frame {
        Frame {
            frame_type: FrameType::Request,
            request_id: 0xdead_beef_cafe_f00d,
            trace_id: None,
            payload: request_payload(1500, "datalog d0\npatterns 4\nfail 1 2\n"),
        }
    }

    #[test]
    fn trace_id_rides_a_payload_prefix_and_round_trips() {
        let frame = sample().with_trace_id(Some(0x1122_3344_5566_7788));
        let bytes = encode(&frame);
        // The flags word announces the prefix and the length covers it.
        assert_eq!(u16::from_le_bytes([bytes[6], bytes[7]]), FLAG_TRACE_ID);
        let wire_len = u32::from_le_bytes([bytes[16], bytes[17], bytes[18], bytes[19]]);
        assert_eq!(wire_len as usize, 8 + frame.payload.len());
        let mut cursor = &bytes[..];
        let decoded = read_frame(&mut cursor, DEFAULT_MAX_PAYLOAD)
            .expect("decodes")
            .expect("not EOF");
        assert_eq!(decoded, frame);
        // The prefix is stripped: the logical payload is untouched.
        let (deadline, text) = parse_request_payload(&decoded.payload).expect("request payload");
        assert_eq!(deadline, 1500);
        assert!(text.starts_with("datalog d0"));
    }

    /// Decodes a hex literal, two digits per byte.
    fn unhex(text: &str) -> Vec<u8> {
        (0..text.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&text[i..i + 2], 16).expect("hex digits"))
            .collect()
    }

    #[test]
    fn request_frames_keep_their_wire_bytes() {
        // Computed apart from this module: little-endian header fields,
        // zlib crc32 over the trace-id prefix plus the payload.
        const PLAIN: &str = concat!(
            "49434453", // magic
            "01",       // version
            "01",       // Request
            "0000",     // flags
            "0700000000000000",
            "1a000000", // payload length
            "0fb6f3f1", // crc32
            "dc050000", // deadline_ms 1500
            "646174616c6f672064300a7061747465726e7320340a",
        );
        const TRACED: &str = concat!(
            "49434453",
            "01",
            "01",
            "0100", // FLAG_TRACE_ID
            "0700000000000000",
            "22000000", // payload length, prefix included
            "70343b3d",
            "8877665544332211", // trace id prefix
            "dc050000",
            "646174616c6f672064300a7061747465726e7320340a",
        );
        let plain = Frame {
            frame_type: FrameType::Request,
            request_id: 7,
            trace_id: None,
            payload: request_payload(1500, "datalog d0\npatterns 4\n"),
        };
        let traced = plain.clone().with_trace_id(Some(0x1122_3344_5566_7788));
        for (frame, wire) in [(plain, PLAIN), (traced, TRACED)] {
            let hex: String = encode(&frame).iter().map(|b| format!("{b:02x}")).collect();
            assert_eq!(hex, wire);
            let bytes = unhex(wire);
            let decoded = read_frame(&mut &bytes[..], DEFAULT_MAX_PAYLOAD)
                .expect("decodes")
                .expect("not EOF");
            assert_eq!(decoded, frame);
        }
    }

    #[test]
    fn zero_flags_encoding_is_byte_identical_to_the_pre_flags_wire() {
        // A frame without a trace id must produce exactly the bytes an
        // old (reserved-field) peer would: zero at offsets 6..8 and no
        // payload prefix.
        let bytes = encode(&sample());
        assert_eq!(&bytes[6..8], &[0, 0]);
        assert_eq!(bytes.len(), HEADER_LEN + sample().payload.len());
    }

    #[test]
    fn trace_flag_without_room_for_the_prefix_is_frame_bounded() {
        let mut frame = Frame::bare(FrameType::Ping, 1);
        frame.payload = vec![1, 2, 3]; // < 8 bytes
        let mut bytes = encode(&frame);
        bytes[6] = (FLAG_TRACE_ID & 0xff) as u8; // claim a prefix anyway
        let mut cursor = &bytes[..];
        let err = read_frame(&mut cursor, DEFAULT_MAX_PAYLOAD).expect_err("short prefix");
        let FrameError::Protocol(p) = err else {
            panic!("expected protocol error")
        };
        assert!(matches!(p, ProtocolError::MissingTraceId { got: 3 }));
        assert!(p.is_frame_bounded());
        assert!(cursor.is_empty(), "payload consumed, stream in sync");
    }

    #[test]
    fn volume_payload_round_trips() {
        let devices = vec![
            (
                "device-000.log".to_owned(),
                "datalog d0\npatterns 4\n".to_owned(),
            ),
            (
                "device-001.log".to_owned(),
                "datalog d1\npatterns 4\nfail 1 2\n".to_owned(),
            ),
        ];
        let payload = volume_request_payload(2500, &devices);
        let (deadline, parsed) = parse_volume_payload(&payload).expect("parses");
        assert_eq!(deadline, 2500);
        assert_eq!(parsed, devices);
        // Empty corpus round-trips too.
        let empty = volume_request_payload(0, &[]);
        assert_eq!(parse_volume_payload(&empty), Some((0, Vec::new())));
    }

    #[test]
    fn malformed_volume_payloads_are_rejected() {
        let devices = vec![("a.log".to_owned(), "datalog a\npatterns 1\n".to_owned())];
        let good = volume_request_payload(0, &devices);
        // Too short for the fixed prefix.
        assert_eq!(parse_volume_payload(&good[..3]), None);
        // Truncated mid-record.
        assert_eq!(parse_volume_payload(&good[..good.len() - 1]), None);
        // Trailing garbage.
        let mut padded = good.clone();
        padded.push(0);
        assert_eq!(parse_volume_payload(&padded), None);
        // A count that lies about how many records follow.
        let mut lying = good.clone();
        lying[4..8].copy_from_slice(&2u32.to_le_bytes());
        assert_eq!(parse_volume_payload(&lying), None);
        // An absurd count claim must not allocate.
        let mut absurd = good;
        absurd[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(parse_volume_payload(&absurd), None);
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The IEEE crc32 check value from the CRC catalogue.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let frame = sample();
        let bytes = encode(&frame);
        assert_eq!(bytes.len(), HEADER_LEN + frame.payload.len());
        let mut cursor = &bytes[..];
        let decoded = read_frame(&mut cursor, DEFAULT_MAX_PAYLOAD)
            .expect("decodes")
            .expect("not EOF");
        assert_eq!(decoded, frame);
        let (deadline, text) = parse_request_payload(&decoded.payload).expect("request payload");
        assert_eq!(deadline, 1500);
        assert!(text.starts_with("datalog d0"));
    }

    #[test]
    fn clean_eof_at_boundary_is_none_but_mid_frame_is_truncated() {
        let empty: &[u8] = &[];
        assert!(read_frame(&mut { empty }, DEFAULT_MAX_PAYLOAD)
            .expect("clean EOF")
            .is_none());

        let bytes = encode(&sample());
        for cut in [1, HEADER_LEN - 1, HEADER_LEN + 3] {
            let mut cursor = &bytes[..cut];
            let err = read_frame(&mut cursor, DEFAULT_MAX_PAYLOAD).expect_err("truncated");
            assert!(
                matches!(err, FrameError::Protocol(ProtocolError::Truncated { .. })),
                "cut at {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn bad_magic_and_version_desynchronize() {
        let mut bytes = encode(&sample());
        bytes[0] = b'X';
        let mut cursor = &bytes[..];
        let err = read_frame(&mut cursor, DEFAULT_MAX_PAYLOAD).expect_err("bad magic");
        let FrameError::Protocol(p) = err else {
            panic!("expected protocol error")
        };
        assert!(matches!(p, ProtocolError::BadMagic { .. }) && !p.is_frame_bounded());

        let mut bytes = encode(&sample());
        bytes[4] = 9;
        let mut cursor = &bytes[..];
        let err = read_frame(&mut cursor, DEFAULT_MAX_PAYLOAD).expect_err("bad version");
        let FrameError::Protocol(p) = err else {
            panic!("expected protocol error")
        };
        assert!(matches!(p, ProtocolError::BadVersion { got: 9 }) && !p.is_frame_bounded());
    }

    #[test]
    fn corrupt_payload_is_a_frame_bounded_checksum_error() {
        let frame = sample();
        let mut bytes = encode(&frame);
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        let mut cursor = &bytes[..];
        let err = read_frame(&mut cursor, DEFAULT_MAX_PAYLOAD).expect_err("corrupt payload");
        let FrameError::Protocol(p) = err else {
            panic!("expected protocol error")
        };
        assert!(matches!(p, ProtocolError::BadChecksum { .. }) && p.is_frame_bounded());
        // The whole bad frame was consumed: the stream is still in sync.
        assert!(cursor.is_empty());
    }

    #[test]
    fn unknown_frame_type_is_frame_bounded() {
        let mut bytes = encode(&sample());
        bytes[5] = 0x7f;
        let mut cursor = &bytes[..];
        let err = read_frame(&mut cursor, DEFAULT_MAX_PAYLOAD).expect_err("unknown type");
        let FrameError::Protocol(p) = err else {
            panic!("expected protocol error")
        };
        assert!(matches!(p, ProtocolError::UnknownFrameType { got: 0x7f }));
        assert!(p.is_frame_bounded());
        assert!(cursor.is_empty(), "payload consumed, stream in sync");
    }

    #[test]
    fn oversized_claim_is_rejected_before_reading_the_payload() {
        let mut frame = sample();
        frame.payload = vec![0u8; 64];
        let bytes = encode(&frame);
        let mut cursor = &bytes[..];
        let err = read_frame(&mut cursor, 16).expect_err("oversized");
        let FrameError::Protocol(p) = err else {
            panic!("expected protocol error")
        };
        assert!(matches!(p, ProtocolError::Oversized { len: 64, max: 16 }));
        assert!(!p.is_frame_bounded());
    }

    #[test]
    fn unknown_flag_bits_are_rejected() {
        let mut bytes = encode(&sample());
        bytes[7] = 0x80; // flag bit 15: undefined
        let mut cursor = &bytes[..];
        let err = read_frame(&mut cursor, DEFAULT_MAX_PAYLOAD).expect_err("unknown flags");
        let FrameError::Protocol(p) = err else {
            panic!("expected protocol error")
        };
        assert!(matches!(p, ProtocolError::UnknownFlags { got: 0x8000 }));
        assert!(!p.is_frame_bounded());
    }

    #[test]
    fn every_protocol_error_displays_without_panicking() {
        let errs = [
            ProtocolError::BadMagic { got: [0, 1, 2, 3] },
            ProtocolError::BadVersion { got: 7 },
            ProtocolError::UnknownFlags { got: 0xbeef },
            ProtocolError::MissingTraceId { got: 3 },
            ProtocolError::UnknownFrameType { got: 0x44 },
            ProtocolError::Oversized { len: 10, max: 5 },
            ProtocolError::BadChecksum {
                expected: 1,
                got: 2,
            },
            ProtocolError::Truncated {
                context: "header",
                needed: 24,
                got: 3,
            },
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn status_and_error_codes_roundtrip() {
        for s in [ResponseStatus::Ok, ResponseStatus::Degraded] {
            assert_eq!(ResponseStatus::from_u8(s as u8), Some(s));
        }
        assert_eq!(ResponseStatus::from_u8(9), None);
        for c in [
            ErrorCode::Protocol,
            ErrorCode::BadPayload,
            ErrorCode::Busy,
            ErrorCode::DeadlineExceeded,
            ErrorCode::Draining,
            ErrorCode::Internal,
        ] {
            assert_eq!(ErrorCode::from_u8(c as u8), Some(c));
        }
        assert_eq!(ErrorCode::from_u8(0), None);
        for t in [
            FrameType::Request,
            FrameType::Ping,
            FrameType::Shutdown,
            FrameType::Volume,
            FrameType::Stats,
            FrameType::Suspects,
            FrameType::Progress,
            FrameType::Report,
            FrameType::Error,
            FrameType::Pong,
            FrameType::Goodbye,
            FrameType::StatsReport,
        ] {
            assert_eq!(FrameType::from_u8(t as u8), Some(t));
        }
    }
}
