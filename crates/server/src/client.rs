//! A small blocking client for the diagnosis daemon — what `icdiag
//! submit` and the test harnesses speak.

use std::error::Error;
use std::fmt;
use std::io::{self, BufReader, BufWriter};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::frame::{self, ErrorCode, Frame, FrameType, ResponseStatus, DEFAULT_MAX_PAYLOAD};

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// The transport or framing failed.
    Frame(frame::FrameError),
    /// The server answered with an `Error` frame.
    Server {
        /// The machine-readable code byte.
        code: Option<ErrorCode>,
        /// The human-readable message.
        message: String,
    },
    /// The server closed (or said goodbye) before answering.
    Closed,
    /// The server sent a response that makes no sense here (wrong
    /// request id, malformed report payload).
    UnexpectedResponse(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Frame(e) => write!(f, "{e}"),
            ClientError::Server { code, message } => {
                write!(f, "server error ({code:?}): {message}")
            }
            ClientError::Closed => write!(f, "server closed the connection before answering"),
            ClientError::UnexpectedResponse(m) => write!(f, "unexpected response: {m}"),
        }
    }
}

impl Error for ClientError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ClientError::Frame(e) => Some(e),
            _ => None,
        }
    }
}

impl From<frame::FrameError> for ClientError {
    fn from(e: frame::FrameError) -> Self {
        ClientError::Frame(e)
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Frame(frame::FrameError::Io(e))
    }
}

/// The server's final answer to one submitted datalog.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Complete or degraded (mirrors `icdiag` exit semantics).
    pub status: ResponseStatus,
    /// The canonical summary line — byte-identical to the matching
    /// `icdiag run` output line.
    pub summary: String,
    /// Gate indices from the streamed `Suspects` frame (if any).
    pub suspects: Vec<u32>,
    /// `(slot, gate, ok)` from each streamed `Progress` frame.
    pub progress: Vec<(usize, u32, bool)>,
}

/// One blocking connection to a diagnosis daemon. Requests run
/// sequentially; the connection is reusable across requests.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    next_id: u64,
}

impl Client {
    /// Connects with a socket read timeout generous enough for a full
    /// diagnosis (pass the server's deadline plus slack).
    ///
    /// # Errors
    ///
    /// Connection/I-O failures.
    pub fn connect<A: ToSocketAddrs>(addr: A, io_timeout: Duration) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(io_timeout))?;
        stream.set_write_timeout(Some(io_timeout))?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            reader,
            writer: BufWriter::new(stream),
            next_id: 1,
        })
    }

    fn send(&mut self, frame: &Frame) -> Result<(), ClientError> {
        Ok(frame::write_frame(&mut self.writer, frame)?)
    }

    fn recv(&mut self) -> Result<Option<Frame>, ClientError> {
        Ok(frame::read_frame(&mut self.reader, DEFAULT_MAX_PAYLOAD)?)
    }

    /// Round-trips a ping.
    ///
    /// # Errors
    ///
    /// Transport failures or a non-pong answer.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        let id = self.next_id();
        self.send(&Frame::bare(FrameType::Ping, id))?;
        match self.recv()? {
            Some(f) if f.frame_type == FrameType::Pong && f.request_id == id => Ok(()),
            Some(f) => Err(ClientError::UnexpectedResponse(format!(
                "{:?}",
                f.frame_type
            ))),
            None => Err(ClientError::Closed),
        }
    }

    /// Submits one datalog (text form) and blocks until the final
    /// `Report` frame, collecting streamed progress along the way.
    /// `deadline_ms = 0` asks for the server's default deadline.
    ///
    /// # Errors
    ///
    /// Transport failures, server `Error` frames, or an early close.
    pub fn submit(
        &mut self,
        datalog_text: &str,
        deadline_ms: u32,
    ) -> Result<Response, ClientError> {
        self.submit_traced(datalog_text, deadline_ms, None)
    }

    /// [`Client::submit`] carrying an explicit trace id on the request
    /// frame ([`frame::FLAG_TRACE_ID`]); the server adopts it for the
    /// request's event-log record instead of minting its own.
    ///
    /// # Errors
    ///
    /// Transport failures, server `Error` frames, or an early close.
    pub fn submit_traced(
        &mut self,
        datalog_text: &str,
        deadline_ms: u32,
        trace_id: Option<u64>,
    ) -> Result<Response, ClientError> {
        let payload = frame::request_payload(deadline_ms, datalog_text);
        self.diagnose(FrameType::Request, trace_id, payload)
    }

    /// Submits a named corpus of datalog texts for volume diagnosis and
    /// blocks until the final `Report` frame, whose summary is the
    /// canonical volume-report JSON (byte-identical to `icdiag volume
    /// --json-out` over the same corpus). Streamed per-device
    /// Suspects/Progress frames are collected like [`Client::submit`];
    /// `suspects` holds the last streamed set and `progress` accumulates
    /// across devices.
    ///
    /// # Errors
    ///
    /// Transport failures, server `Error` frames, or an early close.
    pub fn submit_volume(
        &mut self,
        devices: &[(String, String)],
        deadline_ms: u32,
    ) -> Result<Response, ClientError> {
        let payload = frame::volume_request_payload(deadline_ms, devices);
        self.diagnose(FrameType::Volume, None, payload)
    }

    /// Sends one `Request` or `Volume` frame and collects the streamed
    /// frames until the final `Report`. A `Suspects` frame replaces the
    /// suspect list; for a single datalog it also restarts `progress`,
    /// because a retried attempt streams again.
    fn diagnose(
        &mut self,
        frame_type: FrameType,
        trace_id: Option<u64>,
        payload: Vec<u8>,
    ) -> Result<Response, ClientError> {
        let id = self.next_id();
        self.send(&Frame {
            frame_type,
            request_id: id,
            trace_id,
            payload,
        })?;
        let mut suspects = Vec::new();
        let mut progress = Vec::new();
        loop {
            let Some(f) = self.recv()? else {
                return Err(ClientError::Closed);
            };
            if f.request_id != id && f.frame_type != FrameType::Goodbye {
                return Err(ClientError::UnexpectedResponse(format!(
                    "frame for request {} while waiting on {id}",
                    f.request_id
                )));
            }
            match f.frame_type {
                FrameType::Suspects => {
                    suspects = std::str::from_utf8(&f.payload)
                        .unwrap_or("")
                        .split_whitespace()
                        .filter_map(|t| t.parse::<u32>().ok())
                        .collect();
                    if frame_type == FrameType::Request {
                        progress.clear();
                    }
                }
                FrameType::Progress => {
                    if let Some(p) = parse_progress(&f.payload) {
                        progress.push(p);
                    }
                }
                FrameType::Report => {
                    let (status, summary) = parse_report(&f.payload)?;
                    return Ok(Response {
                        status,
                        summary,
                        suspects,
                        progress,
                    });
                }
                FrameType::Error => return Err(parse_error(&f.payload)),
                FrameType::Goodbye => return Err(ClientError::Closed),
                other => {
                    return Err(ClientError::UnexpectedResponse(format!("{other:?}")));
                }
            }
        }
    }

    /// Snapshots the daemon's live stats: rolling-window counters,
    /// latency percentiles, queue depth, drain state, uptime. Returns
    /// the raw JSON (byte-stable field names; parse with
    /// [`icd_obs::json`] if structure is needed).
    ///
    /// # Errors
    ///
    /// Transport failures or a non-`StatsReport` answer.
    pub fn stats(&mut self) -> Result<String, ClientError> {
        let id = self.next_id();
        self.send(&Frame::bare(FrameType::Stats, id))?;
        match self.recv()? {
            Some(f) if f.frame_type == FrameType::StatsReport && f.request_id == id => {
                Ok(String::from_utf8_lossy(&f.payload).into_owned())
            }
            Some(f) if f.frame_type == FrameType::Goodbye => Err(ClientError::Closed),
            Some(f) => Err(ClientError::UnexpectedResponse(format!(
                "{:?}",
                f.frame_type
            ))),
            None => Err(ClientError::Closed),
        }
    }

    /// Asks the daemon to drain and exit; resolves on its `Goodbye`.
    ///
    /// # Errors
    ///
    /// Transport failures or an unexpected answer.
    pub fn shutdown_server(&mut self) -> Result<(), ClientError> {
        let id = self.next_id();
        self.send(&Frame::bare(FrameType::Shutdown, id))?;
        match self.recv()? {
            Some(f) if f.frame_type == FrameType::Goodbye => Ok(()),
            // Server may close right after; treat EOF as acknowledged.
            None => Ok(()),
            Some(f) => Err(ClientError::UnexpectedResponse(format!(
                "{:?}",
                f.frame_type
            ))),
        }
    }

    fn next_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }
}

fn parse_progress(payload: &[u8]) -> Option<(usize, u32, bool)> {
    let text = std::str::from_utf8(payload).ok()?;
    let mut slot = None;
    let mut gate = None;
    let mut ok = None;
    for part in text.split_whitespace() {
        let (key, value) = part.split_once('=')?;
        match key {
            "slot" => slot = value.parse::<usize>().ok(),
            "gate" => gate = value.parse::<u32>().ok(),
            "ok" => ok = Some(value == "1"),
            _ => {}
        }
    }
    Some((slot?, gate?, ok?))
}

fn parse_report(payload: &[u8]) -> Result<(ResponseStatus, String), ClientError> {
    let (&status_byte, rest) = payload
        .split_first()
        .ok_or_else(|| ClientError::UnexpectedResponse("empty report payload".to_owned()))?;
    let status = ResponseStatus::from_u8(status_byte).ok_or_else(|| {
        ClientError::UnexpectedResponse(format!("unknown response status {status_byte}"))
    })?;
    let summary = String::from_utf8_lossy(rest).into_owned();
    Ok((status, summary))
}

fn parse_error(payload: &[u8]) -> ClientError {
    match payload.split_first() {
        Some((&code, rest)) => ClientError::Server {
            code: ErrorCode::from_u8(code),
            message: String::from_utf8_lossy(rest).into_owned(),
        },
        None => ClientError::Server {
            code: None,
            message: "empty error payload".to_owned(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn progress_and_report_payloads_parse() {
        assert_eq!(parse_progress(b"slot=2 gate=17 ok=1"), Some((2, 17, true)));
        assert_eq!(parse_progress(b"slot=0 gate=3 ok=0"), Some((0, 3, false)));
        assert_eq!(parse_progress(b"slot=2 gate=17"), None);
        assert_eq!(parse_progress(b"garbage"), None);

        let (status, summary) = parse_report(b"\x00hello").expect("parses");
        assert_eq!(status, ResponseStatus::Ok);
        assert_eq!(summary, "hello");
        let (status, _) = parse_report(b"\x03partial").expect("parses");
        assert_eq!(status, ResponseStatus::Degraded);
        assert!(parse_report(b"").is_err());
        assert!(parse_report(b"\x07x").is_err());
    }

    #[test]
    fn error_payloads_parse_with_and_without_known_codes() {
        match parse_error(b"\x03queue full") {
            ClientError::Server {
                code: Some(ErrorCode::Busy),
                message,
            } => {
                assert_eq!(message, "queue full");
            }
            other => panic!("unexpected: {other:?}"),
        }
        match parse_error(b"\xffwho knows") {
            ClientError::Server { code: None, .. } => {}
            other => panic!("unexpected: {other:?}"),
        }
    }
}
