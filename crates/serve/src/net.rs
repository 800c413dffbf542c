//! Networked front-end: a length-framed binary protocol over
//! nonblocking `std::net`.
//!
//! The runtime stops being an in-process library here: [`NetServer`]
//! accepts TCP connections, decodes framed requests into
//! [`crate::ServeRuntime::submit`] through [`crate::shed`]'s admission
//! control, and writes framed responses back as lanes retire — all from
//! one event-loop thread with per-connection read/write buffering, no
//! external crates. When a pass over the connections finds nothing to
//! do, the thread blocks in `poll(2)` until a socket is ready, a worker
//! completes a response, a connection's read or idle timeout falls due,
//! or the server is stopped. It never sleeps on a timer, so a request
//! waits for neither its frame to be noticed nor its reply to be sent.
//!
//! ## Wire format
//!
//! Every frame is a `u32` little-endian payload length, then the
//! payload. The payload's first byte is the frame kind:
//!
//! ```text
//! request  (kind 1): id u64 | model_len u8 + UTF-8 | policy
//!                    | deadline_µs u64 | npix u32 | f32 × npix
//!   policy: tag u8 — 0 Fixed{steps u32}
//!                    1 ConfidenceMargin{margin f32, patience u32,
//!                                       check_every u32, max_steps u32}
//!                    2 SpikeBudget{max_spikes u64, max_steps u32}
//!   deadline_µs: remaining completion budget relative to server receipt;
//!                0 = no deadline
//! response (kind 2): id u64 | status u8
//!   status 0 OK:    prediction u32 | steps u32 | spikes u64 | margin f32
//!                   | exit u8 | model_epoch u64 | queue_µs u64
//!                   | service_µs u64 | batch u32 | degraded u8
//!   status 1 SHED:  reason u8 (see ShedReason::code) — refused before
//!                   queueing; back off and retry
//!   status 2 ERROR: message_len u16 | UTF-8 message
//!   status 3 DEADLINE_EXCEEDED: (empty) — the deadline expired at
//!                   admission, in the queue, or at batch formation
//! stats    (kind 3): what u8 — 0 Prometheus metrics dump,
//!                              1 Chrome trace-event JSON
//! stats-reply (kind 4): what u8 | UTF-8 text (the requested dump)
//! ```
//!
//! `STATS` frames are answered inline from the event loop (no queueing,
//! never shed), so the observability surface stays reachable under the
//! very overload it exists to explain.
//!
//! Responses are matched to requests by `id` (chosen by the client,
//! echoed verbatim) and may arrive **out of request order**: a request
//! that early-exits is answered before an older one still simulating.
//!
//! ## Failure semantics
//!
//! A malformed frame (bad kind/tag/trailing bytes), an oversized frame
//! (`len > max_frame`), or a partial frame older than `read_timeout`
//! poisons only its own connection: the server sends a final ERROR frame
//! where possible and closes it; other connections are untouched.
//! Overload is *explicit*: admission control answers SHED instead of
//! letting clients hang on an unbounded queue.

use crate::error::ServeError;
use crate::obs::MetricsHub;
use crate::request::{
    CompletionHook, ExitPolicy, ExitReason, InferRequest, InferResponse, ResponseHandle,
};
use crate::runtime::ServeRuntime;
use crate::shed::{AdmissionControl, AdmitError, ShedConfig, ShedReason};
use std::ffi::{c_int, c_short};
use std::fmt;
use std::io::{self, PipeReader, PipeWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Frame kind: client → server inference request.
pub const KIND_REQUEST: u8 = 1;
/// Frame kind: server → client response.
pub const KIND_RESPONSE: u8 = 2;
/// Frame kind: client → server stats/trace dump request.
pub const KIND_STATS: u8 = 3;
/// Frame kind: server → client stats/trace dump reply.
pub const KIND_STATS_REPLY: u8 = 4;

/// `STATS` selector: the Prometheus-style metrics dump.
pub const STATS_METRICS: u8 = 0;
/// `STATS` selector: the sampled Chrome trace-event JSON.
pub const STATS_TRACE: u8 = 1;

/// Response status: the request was served.
pub const STATUS_OK: u8 = 0;
/// Response status: the request was shed by admission control.
pub const STATUS_SHED: u8 = 1;
/// Response status: the request failed.
pub const STATUS_ERROR: u8 = 2;
/// Response status: the request's deadline expired before it could be
/// served.
pub const STATUS_DEADLINE: u8 = 3;

/// A malformed wire frame (the connection that sent it is poisoned).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The declared payload length exceeds the configured maximum.
    FrameTooLarge {
        /// Declared payload length.
        len: usize,
        /// Configured maximum.
        max: usize,
    },
    /// The payload ended before the structure it declares.
    Truncated,
    /// The payload has bytes left over after its structure ended.
    TrailingBytes,
    /// Unknown frame kind byte.
    BadKind(u8),
    /// Unknown exit-policy tag byte.
    BadPolicyTag(u8),
    /// Unknown response status / exit-reason / shed-reason byte.
    BadCode(u8),
    /// The model name is not valid UTF-8.
    BadModelName,
    /// A field exceeds its encodable range (model name over 255 bytes,
    /// an error message over 64 KiB, ...).
    FieldTooLarge(&'static str),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::FrameTooLarge { len, max } => {
                write!(
                    f,
                    "frame payload of {len} bytes exceeds the {max}-byte limit"
                )
            }
            WireError::Truncated => write!(f, "frame payload is truncated"),
            WireError::TrailingBytes => write!(f, "frame payload has trailing bytes"),
            WireError::BadKind(k) => write!(f, "unknown frame kind {k}"),
            WireError::BadPolicyTag(t) => write!(f, "unknown exit-policy tag {t}"),
            WireError::BadCode(c) => write!(f, "unknown status/reason code {c}"),
            WireError::BadModelName => write!(f, "model name is not valid UTF-8"),
            WireError::FieldTooLarge(what) => write!(f, "{what} exceeds its wire limit"),
        }
    }
}

impl std::error::Error for WireError {}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

fn reserve_frame(buf: &mut Vec<u8>) -> usize {
    let at = buf.len();
    buf.extend_from_slice(&0u32.to_le_bytes());
    at
}

fn finish_frame(buf: &mut [u8], at: usize) {
    let len = (buf.len() - at - 4) as u32;
    buf[at..at + 4].copy_from_slice(&len.to_le_bytes());
}

fn exit_reason_code(reason: ExitReason) -> u8 {
    match reason {
        ExitReason::HorizonReached => 0,
        ExitReason::Converged => 1,
        ExitReason::BudgetExhausted => 2,
    }
}

fn exit_reason_from_code(code: u8) -> Result<ExitReason, WireError> {
    match code {
        0 => Ok(ExitReason::HorizonReached),
        1 => Ok(ExitReason::Converged),
        2 => Ok(ExitReason::BudgetExhausted),
        other => Err(WireError::BadCode(other)),
    }
}

/// Appends one encoded request frame with no deadline to `buf`.
///
/// # Errors
///
/// [`WireError::FieldTooLarge`] if the model name exceeds 255 bytes or
/// an exit-policy step count exceeds `u32::MAX`; `buf` is then left
/// untouched.
pub fn encode_request(
    buf: &mut Vec<u8>,
    request_id: u64,
    model: &str,
    policy: &ExitPolicy,
    image: &[f32],
) -> Result<(), WireError> {
    encode_request_with_deadline(buf, request_id, model, policy, image, 0)
}

/// Appends one encoded request frame to `buf`. `deadline_us` is the
/// remaining completion budget in µs relative to server receipt (`0` =
/// no deadline): the server answers `DEADLINE_EXCEEDED` instead of a
/// result once it runs out.
///
/// # Errors
///
/// [`WireError::FieldTooLarge`] if the model name exceeds 255 bytes or
/// an exit-policy step count exceeds `u32::MAX`; `buf` is then left
/// untouched.
pub fn encode_request_with_deadline(
    buf: &mut Vec<u8>,
    request_id: u64,
    model: &str,
    policy: &ExitPolicy,
    image: &[f32],
    deadline_us: u64,
) -> Result<(), WireError> {
    if model.len() > u8::MAX as usize {
        return Err(WireError::FieldTooLarge("model name"));
    }
    if image.len() > u32::MAX as usize {
        return Err(WireError::FieldTooLarge("image"));
    }
    // Every step count travels as a u32.
    let step_fields = match *policy {
        ExitPolicy::Fixed { steps } => [steps, 0, 0],
        ExitPolicy::ConfidenceMargin {
            patience,
            check_every,
            max_steps,
            ..
        } => [patience, check_every, max_steps],
        ExitPolicy::SpikeBudget { max_steps, .. } => [max_steps, 0, 0],
    };
    if step_fields.iter().any(|&n| n > u32::MAX as usize) {
        return Err(WireError::FieldTooLarge("exit policy"));
    }
    let at = reserve_frame(buf);
    buf.push(KIND_REQUEST);
    buf.extend_from_slice(&request_id.to_le_bytes());
    buf.push(model.len() as u8);
    buf.extend_from_slice(model.as_bytes());
    match *policy {
        ExitPolicy::Fixed { steps } => {
            buf.push(0);
            buf.extend_from_slice(&(steps as u32).to_le_bytes());
        }
        ExitPolicy::ConfidenceMargin {
            margin,
            patience,
            check_every,
            max_steps,
        } => {
            buf.push(1);
            buf.extend_from_slice(&margin.to_le_bytes());
            buf.extend_from_slice(&(patience as u32).to_le_bytes());
            buf.extend_from_slice(&(check_every as u32).to_le_bytes());
            buf.extend_from_slice(&(max_steps as u32).to_le_bytes());
        }
        ExitPolicy::SpikeBudget {
            max_spikes,
            max_steps,
        } => {
            buf.push(2);
            buf.extend_from_slice(&max_spikes.to_le_bytes());
            buf.extend_from_slice(&(max_steps as u32).to_le_bytes());
        }
    }
    buf.extend_from_slice(&deadline_us.to_le_bytes());
    buf.extend_from_slice(&(image.len() as u32).to_le_bytes());
    for px in image {
        buf.extend_from_slice(&px.to_le_bytes());
    }
    finish_frame(buf, at);
    Ok(())
}

/// Appends one encoded OK response frame to `buf`.
pub fn encode_response_ok(buf: &mut Vec<u8>, request_id: u64, resp: &InferResponse) {
    let at = reserve_frame(buf);
    buf.push(KIND_RESPONSE);
    buf.extend_from_slice(&request_id.to_le_bytes());
    buf.push(STATUS_OK);
    buf.extend_from_slice(&(resp.prediction as u32).to_le_bytes());
    buf.extend_from_slice(&(resp.steps as u32).to_le_bytes());
    buf.extend_from_slice(&resp.spikes.to_le_bytes());
    buf.extend_from_slice(&resp.margin.to_le_bytes());
    buf.push(exit_reason_code(resp.exit));
    buf.extend_from_slice(&resp.model_epoch.to_le_bytes());
    buf.extend_from_slice(&resp.queue_micros.to_le_bytes());
    buf.extend_from_slice(&resp.service_micros.to_le_bytes());
    buf.extend_from_slice(&(resp.batch_size as u32).to_le_bytes());
    buf.push(resp.degraded as u8);
    finish_frame(buf, at);
}

/// Appends one encoded DEADLINE_EXCEEDED response frame to `buf`.
pub fn encode_response_deadline(buf: &mut Vec<u8>, request_id: u64) {
    let at = reserve_frame(buf);
    buf.push(KIND_RESPONSE);
    buf.extend_from_slice(&request_id.to_le_bytes());
    buf.push(STATUS_DEADLINE);
    finish_frame(buf, at);
}

/// Appends one encoded SHED response frame to `buf`.
pub fn encode_response_shed(buf: &mut Vec<u8>, request_id: u64, reason: ShedReason) {
    let at = reserve_frame(buf);
    buf.push(KIND_RESPONSE);
    buf.extend_from_slice(&request_id.to_le_bytes());
    buf.push(STATUS_SHED);
    buf.push(reason.code());
    finish_frame(buf, at);
}

/// Appends one encoded ERROR response frame to `buf` (the message is
/// truncated to 64 KiB if longer).
pub fn encode_response_error(buf: &mut Vec<u8>, request_id: u64, message: &str) {
    // Truncate on a char boundary so the message stays valid UTF-8.
    let mut cut = message.len().min(u16::MAX as usize);
    while !message.is_char_boundary(cut) {
        cut -= 1;
    }
    let message = &message[..cut];
    let at = reserve_frame(buf);
    buf.push(KIND_RESPONSE);
    buf.extend_from_slice(&request_id.to_le_bytes());
    buf.push(STATUS_ERROR);
    buf.extend_from_slice(&(message.len() as u16).to_le_bytes());
    buf.extend_from_slice(message.as_bytes());
    finish_frame(buf, at);
}

/// Appends one encoded `STATS` request frame to `buf` (`what` is
/// [`STATS_METRICS`] or [`STATS_TRACE`]).
pub fn encode_stats_request(buf: &mut Vec<u8>, what: u8) {
    let at = reserve_frame(buf);
    buf.push(KIND_STATS);
    buf.push(what);
    finish_frame(buf, at);
}

/// Appends one encoded `STATS` reply frame carrying `text` to `buf`.
pub fn encode_stats_reply(buf: &mut Vec<u8>, what: u8, text: &str) {
    let at = reserve_frame(buf);
    buf.push(KIND_STATS_REPLY);
    buf.push(what);
    buf.extend_from_slice(text.as_bytes());
    finish_frame(buf, at);
}

/// Decodes one `STATS` request payload; returns the dump selector.
///
/// # Errors
///
/// Any [`WireError`] for malformed bytes or an unknown selector.
pub fn decode_stats_request(payload: &[u8]) -> Result<u8, WireError> {
    let mut c = Cursor::new(payload);
    let kind = c.u8()?;
    if kind != KIND_STATS {
        return Err(WireError::BadKind(kind));
    }
    let what = c.u8()?;
    if what != STATS_METRICS && what != STATS_TRACE {
        return Err(WireError::BadCode(what));
    }
    c.finish()?;
    Ok(what)
}

/// Decodes one `STATS` reply payload into `(selector, text)`.
///
/// # Errors
///
/// Any [`WireError`] for malformed bytes or non-UTF-8 text.
pub fn decode_stats_reply(payload: &[u8]) -> Result<(u8, String), WireError> {
    let [kind, what, text @ ..] = payload else {
        return Err(WireError::Truncated);
    };
    if *kind != KIND_STATS_REPLY {
        return Err(WireError::BadKind(*kind));
    }
    let text = std::str::from_utf8(text)
        .map_err(|_| WireError::BadModelName)?
        .to_string();
    Ok((*what, text))
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes, at: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let slice = self
            .bytes
            .get(self.at..self.at + n)
            .ok_or(WireError::Truncated)?;
        self.at += n;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(
            self.take(2)?.try_into().expect("2 bytes"),
        ))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn f32(&mut self) -> Result<f32, WireError> {
        Ok(f32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn finish(self) -> Result<(), WireError> {
        if self.at == self.bytes.len() {
            Ok(())
        } else {
            Err(WireError::TrailingBytes)
        }
    }
}

/// A decoded request frame: the client-chosen id plus the request.
#[derive(Debug, Clone, PartialEq)]
pub struct WireRequest {
    /// Client-chosen id, echoed verbatim in the response.
    pub request_id: u64,
    /// The decoded inference request (its `deadline` field is *not* set
    /// by decoding — the server applies `deadline_us` against its own
    /// clock at admission, keeping the decoder pure).
    pub request: InferRequest,
    /// Remaining completion budget in µs relative to receipt; `0` = no
    /// deadline.
    pub deadline_us: u64,
}

/// A decoded response frame.
#[derive(Debug, Clone, PartialEq)]
pub enum NetResponse {
    /// The request was served.
    Ok {
        /// Echoed request id.
        request_id: u64,
        /// The inference result.
        response: InferResponse,
    },
    /// The request was refused by admission control — back off.
    Shed {
        /// Echoed request id.
        request_id: u64,
        /// Why it was shed.
        reason: ShedReason,
    },
    /// The request failed.
    Error {
        /// Echoed request id.
        request_id: u64,
        /// Human-readable failure description.
        message: String,
    },
    /// The request's deadline expired before it could be served.
    DeadlineExceeded {
        /// Echoed request id.
        request_id: u64,
    },
}

impl NetResponse {
    /// The echoed request id, regardless of status.
    pub fn request_id(&self) -> u64 {
        match self {
            NetResponse::Ok { request_id, .. }
            | NetResponse::Shed { request_id, .. }
            | NetResponse::Error { request_id, .. }
            | NetResponse::DeadlineExceeded { request_id } => *request_id,
        }
    }
}

/// How many whole frames are buffered, without decoding them: returns
/// `Some(total_bytes)` of the first frame (header + payload) if `buf`
/// holds at least one complete frame.
///
/// # Errors
///
/// [`WireError::FrameTooLarge`] as soon as the *header* declares a
/// payload over `max_frame` — callers must poison the connection without
/// waiting for the bytes to arrive.
pub fn frame_ready(buf: &[u8], max_frame: usize) -> Result<Option<usize>, WireError> {
    let Some(header) = buf.get(..4) else {
        return Ok(None);
    };
    let len = u32::from_le_bytes(header.try_into().expect("4 bytes")) as usize;
    if len > max_frame {
        return Err(WireError::FrameTooLarge {
            len,
            max: max_frame,
        });
    }
    if buf.len() < 4 + len {
        return Ok(None);
    }
    Ok(Some(4 + len))
}

/// Decodes one request payload (the bytes after the length header).
///
/// # Errors
///
/// Any [`WireError`] for malformed bytes.
pub fn decode_request(payload: &[u8]) -> Result<WireRequest, WireError> {
    let mut c = Cursor::new(payload);
    let kind = c.u8()?;
    if kind != KIND_REQUEST {
        return Err(WireError::BadKind(kind));
    }
    let request_id = c.u64()?;
    let model_len = c.u8()? as usize;
    let model = std::str::from_utf8(c.take(model_len)?).map_err(|_| WireError::BadModelName)?;
    let policy = match c.u8()? {
        0 => ExitPolicy::Fixed {
            steps: c.u32()? as usize,
        },
        1 => ExitPolicy::ConfidenceMargin {
            margin: c.f32()?,
            patience: c.u32()? as usize,
            check_every: c.u32()? as usize,
            max_steps: c.u32()? as usize,
        },
        2 => ExitPolicy::SpikeBudget {
            max_spikes: c.u64()?,
            max_steps: c.u32()? as usize,
        },
        tag => return Err(WireError::BadPolicyTag(tag)),
    };
    let deadline_us = c.u64()?;
    let npix = c.u32()? as usize;
    // The cursor bounds-checks against the actual payload, so a huge
    // declared npix with a short payload is Truncated, not an allocation.
    let mut image = Vec::with_capacity(npix.min(payload.len() / 4 + 1));
    for _ in 0..npix {
        image.push(c.f32()?);
    }
    let request = InferRequest::new(image, model, policy);
    c.finish()?;
    Ok(WireRequest {
        request_id,
        request,
        deadline_us,
    })
}

/// Decodes one response payload (the bytes after the length header).
///
/// # Errors
///
/// Any [`WireError`] for malformed bytes.
pub fn decode_response(payload: &[u8]) -> Result<NetResponse, WireError> {
    let mut c = Cursor::new(payload);
    let kind = c.u8()?;
    if kind != KIND_RESPONSE {
        return Err(WireError::BadKind(kind));
    }
    let request_id = c.u64()?;
    let decoded = match c.u8()? {
        STATUS_OK => NetResponse::Ok {
            request_id,
            response: InferResponse {
                prediction: c.u32()? as usize,
                steps: c.u32()? as usize,
                spikes: c.u64()?,
                margin: c.f32()?,
                exit: exit_reason_from_code(c.u8()?)?,
                model_epoch: c.u64()?,
                queue_micros: c.u64()?,
                service_micros: c.u64()?,
                batch_size: c.u32()? as usize,
                degraded: match c.u8()? {
                    0 => false,
                    1 => true,
                    other => return Err(WireError::BadCode(other)),
                },
            },
        },
        STATUS_SHED => {
            let code = c.u8()?;
            NetResponse::Shed {
                request_id,
                reason: ShedReason::from_code(code).ok_or(WireError::BadCode(code))?,
            }
        }
        STATUS_ERROR => {
            let len = c.u16()? as usize;
            let message = std::str::from_utf8(c.take(len)?)
                .map_err(|_| WireError::BadModelName)?
                .to_string();
            NetResponse::Error {
                request_id,
                message,
            }
        }
        STATUS_DEADLINE => NetResponse::DeadlineExceeded { request_id },
        status => return Err(WireError::BadCode(status)),
    };
    c.finish()?;
    Ok(decoded)
}

// ---------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------

/// How soon the event loop retries a listener whose accept failed.
const ACCEPT_RETRY: Duration = Duration::from_millis(10);

/// Tuning knobs of a [`NetServer`].
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Maximum accepted frame *payload* size in bytes. A header
    /// declaring more poisons the connection immediately.
    pub max_frame: usize,
    /// Maximum simultaneously open connections; excess accepts are
    /// closed on the spot.
    pub max_connections: usize,
    /// A partially received frame older than this poisons its
    /// connection (slow-writer / trickle protection).
    pub read_timeout: Duration,
    /// A connection with no traffic and nothing in flight for this long
    /// is closed.
    pub idle_timeout: Duration,
    /// Admission-control (load shedding) configuration.
    pub shed: ShedConfig,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            max_frame: 1 << 20,
            max_connections: 1024,
            read_timeout: Duration::from_secs(2),
            idle_timeout: Duration::from_secs(60),
            shed: ShedConfig::default(),
        }
    }
}

impl NetConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidConfig`] for zero limits or zero timeouts.
    pub fn validate(&self) -> Result<(), ServeError> {
        if self.max_frame == 0 {
            return Err(ServeError::InvalidConfig(
                "max_frame must be nonzero".into(),
            ));
        }
        if self.max_connections == 0 {
            return Err(ServeError::InvalidConfig(
                "max_connections must be nonzero".into(),
            ));
        }
        if self.read_timeout.is_zero() || self.idle_timeout.is_zero() {
            return Err(ServeError::InvalidConfig(
                "read/idle timeouts must be nonzero".into(),
            ));
        }
        Ok(())
    }
}

/// Front-end counters (all monotonic; sample via
/// [`NetServer::stats`] / [`NetServerHandle::stats`]).
#[derive(Debug, Default)]
pub struct NetStats {
    accepted: AtomicU64,
    closed: AtomicU64,
    refused_connections: AtomicU64,
    frames_in: AtomicU64,
    responses_ok: AtomicU64,
    responses_shed: AtomicU64,
    responses_error: AtomicU64,
    responses_deadline: AtomicU64,
    responses_degraded: AtomicU64,
    protocol_errors: AtomicU64,
    timeouts: AtomicU64,
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
}

impl NetStats {
    fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self) -> NetStatsSnapshot {
        NetStatsSnapshot {
            accepted: self.accepted.load(Ordering::Relaxed),
            closed: self.closed.load(Ordering::Relaxed),
            refused_connections: self.refused_connections.load(Ordering::Relaxed),
            frames_in: self.frames_in.load(Ordering::Relaxed),
            responses_ok: self.responses_ok.load(Ordering::Relaxed),
            responses_shed: self.responses_shed.load(Ordering::Relaxed),
            responses_error: self.responses_error.load(Ordering::Relaxed),
            responses_deadline: self.responses_deadline.load(Ordering::Relaxed),
            responses_degraded: self.responses_degraded.load(Ordering::Relaxed),
            protocol_errors: self.protocol_errors.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            bytes_in: self.bytes_in.load(Ordering::Relaxed),
            bytes_out: self.bytes_out.load(Ordering::Relaxed),
        }
    }
}

/// A cloneable live view of a front-end's counters, independent of the
/// server's lifetime — [`NetServer::bind`] wires one into its
/// [`MetricsHub`] so `bsnn_net_*` series appear in the metrics dump.
#[derive(Debug, Clone)]
pub struct NetStatsHandle(Arc<NetStats>);

impl NetStatsHandle {
    /// Point-in-time counters.
    pub fn snapshot(&self) -> NetStatsSnapshot {
        self.0.snapshot()
    }
}

/// Point-in-time copy of a front-end's counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NetStatsSnapshot {
    /// Connections accepted.
    pub accepted: u64,
    /// Connections closed (any reason).
    pub closed: u64,
    /// Connections refused at accept time (over `max_connections`).
    pub refused_connections: u64,
    /// Whole request frames decoded.
    pub frames_in: u64,
    /// OK responses written.
    pub responses_ok: u64,
    /// SHED responses written.
    pub responses_shed: u64,
    /// ERROR responses written.
    pub responses_error: u64,
    /// DEADLINE_EXCEEDED responses written.
    pub responses_deadline: u64,
    /// OK responses flagged degraded (a subset of `responses_ok`).
    pub responses_degraded: u64,
    /// Connections poisoned by malformed/oversized frames.
    pub protocol_errors: u64,
    /// Connections closed by read/idle timeout.
    pub timeouts: u64,
    /// Bytes received.
    pub bytes_in: u64,
    /// Bytes sent.
    pub bytes_out: u64,
}

impl fmt::Display for NetStatsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "net conns  accepted {}  closed {}  refused {}  timeouts {}",
            self.accepted, self.closed, self.refused_connections, self.timeouts
        )?;
        writeln!(
            f,
            "net frames in {}  ok {}  shed {}  error {}  deadline {}  degraded {}  \
             protocol-errors {}",
            self.frames_in,
            self.responses_ok,
            self.responses_shed,
            self.responses_error,
            self.responses_deadline,
            self.responses_degraded,
            self.protocol_errors
        )?;
        write!(f, "net bytes  in {}  out {}", self.bytes_in, self.bytes_out)
    }
}

struct Conn {
    stream: TcpStream,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    wpos: usize,
    pending: Vec<(u64, ResponseHandle)>,
    last_activity: Instant,
    partial_since: Option<Instant>,
    read_closed: bool,
    poisoned: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Self {
        Conn {
            stream,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            wpos: 0,
            pending: Vec::new(),
            last_activity: Instant::now(),
            partial_since: None,
            read_closed: false,
            poisoned: false,
        }
    }

    fn flushed(&self) -> bool {
        self.wpos == self.wbuf.len()
    }

    fn has_ready_response(&self) -> bool {
        self.pending.iter().any(|(_, handle)| handle.is_ready())
    }

    /// The `poll(2)` events this connection waits for: readable while it
    /// can still read, writable while its write buffer is unflushed. A
    /// connection with neither (read side closed, responses still in
    /// flight) is left out of the wait; the wake-up pipe covers it.
    fn interest(&self) -> c_short {
        let mut events = 0;
        if !self.read_closed && !self.poisoned {
            events |= sys::POLLIN;
        }
        if !self.flushed() {
            events |= sys::POLLOUT;
        }
        events
    }
}

#[cfg(not(unix))]
compile_error!("the TCP front-end blocks in poll(2), so bsnn-serve builds only for unix targets");

/// The front-end's one foreign call, `poll(2)`.
#[cfg(unix)]
mod sys {
    use std::ffi::{c_int, c_short};
    use std::io;

    /// `struct pollfd`.
    #[repr(C)]
    pub(super) struct PollFd {
        fd: c_int,
        events: c_short,
        pub(super) revents: c_short,
    }

    impl PollFd {
        pub(super) fn new(fd: c_int, events: c_short) -> Self {
            PollFd {
                fd,
                events,
                revents: 0,
            }
        }
    }

    pub(super) const POLLIN: c_short = 0x1;
    pub(super) const POLLOUT: c_short = 0x4;

    #[cfg(any(target_os = "linux", target_os = "android"))]
    type Nfds = std::ffi::c_ulong;
    #[cfg(not(any(target_os = "linux", target_os = "android")))]
    type Nfds = std::ffi::c_uint;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: Nfds, timeout: c_int) -> c_int;
    }

    /// Blocks until an entry of `fds` is ready or `timeout_ms` passes
    /// (`-1` waits indefinitely), filling in each entry's `revents`.
    pub(super) fn wait(fds: &mut [PollFd], timeout_ms: c_int) -> io::Result<()> {
        // SAFETY: `fds` is an exclusively borrowed slice of `#[repr(C)]`
        // `struct pollfd` records and `nfds` is its length, so poll(2)
        // writes only their `revents` fields, within the slice, and
        // keeps no pointer past the call.
        let ready = unsafe { poll(fds.as_mut_ptr(), fds.len() as Nfds, timeout_ms) };
        if ready < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(())
        }
    }
}

/// How the front-end thread is woken from `poll(2)`: a self-pipe whose
/// read end is in every wait.
///
/// Workers ping it through the completion hook the front-end installs on
/// each admitted request, but only while the loop is armed: it arms,
/// looks once more for a finished response, then blocks, and the first
/// completion after arming disarms it and pings. A busy loop never arms, so it pays no
/// syscall per response. Stopping always pings. At most one byte is
/// ever in the pipe, so a ping never blocks on it. Every hook holds an
/// `Arc` of this, so the read end lives as long as any hook that can
/// still fire, and a worker that finishes after the front-end has exited
/// never writes into a closed pipe.
#[derive(Debug)]
struct Wakeup {
    rx: PipeReader,
    tx: PipeWriter,
    armed: AtomicBool,
    /// Whether a ping's byte is in the pipe (or about to be).
    pinged: AtomicBool,
    stop: AtomicBool,
}

impl Wakeup {
    fn new() -> io::Result<Self> {
        let (rx, tx) = io::pipe()?;
        Ok(Wakeup {
            rx,
            tx,
            armed: AtomicBool::new(false),
            pinged: AtomicBool::new(false),
            stop: AtomicBool::new(false),
        })
    }

    /// The completion hook's body: pings if the loop is armed. The load
    /// keeps the common, unarmed case free of a read-modify-write.
    fn completed(&self) {
        if self.armed.load(Ordering::SeqCst) && self.armed.swap(false, Ordering::SeqCst) {
            self.ping();
        }
    }

    fn arm(&self) {
        self.armed.store(true, Ordering::SeqCst);
    }

    fn disarm(&self) {
        self.armed.store(false, Ordering::SeqCst);
    }

    fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        self.ping();
    }

    fn stopping(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// Writes a byte unless one is already pending, which wakes the
    /// loop just as well.
    fn ping(&self) {
        if !self.pinged.swap(true, Ordering::SeqCst) {
            let _ = (&self.tx).write(&[1]);
        }
    }

    /// Consumes the pending byte once the wait saw it. The flag is
    /// cleared first, so a later ping writes a fresh byte and none is
    /// lost.
    fn drain(&self) {
        if self.pinged.swap(false, Ordering::SeqCst) {
            let _ = (&self.rx).read(&mut [0u8; 1]);
        }
    }
}

/// The event-loop TCP front-end over a [`ServeRuntime`].
///
/// Bind with [`bind`](Self::bind), then [`spawn`](Self::spawn) its
/// thread. Each pass over the nonblocking sockets accepts, reads,
/// decodes, admits, collects finished responses, and flushes. A pass
/// that finds nothing to do arms the admitted requests' completion
/// hooks, looks once more for a finished response, then blocks in
/// `poll(2)` on the listener, every connection that can still read or
/// has unflushed output, and a wake-up pipe, for at most the time to
/// the nearest connection read/idle timeout. So an idle server uses no
/// CPU, a ready socket or a finished response is handled as soon as it
/// happens, and a loaded server, whose passes keep finding work, makes
/// no extra syscalls.
pub struct NetServer {
    listener: TcpListener,
    addr: SocketAddr,
    admission: AdmissionControl,
    cfg: NetConfig,
    stats: Arc<NetStats>,
    hub: Arc<MetricsHub>,
    wake: Arc<Wakeup>,
    hook: CompletionHook,
}

impl fmt::Debug for NetServer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NetServer")
            .field("addr", &self.addr)
            .field("cfg", &self.cfg)
            .finish_non_exhaustive()
    }
}

impl NetServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) over
    /// `runtime`.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidConfig`] for a bad `cfg`, or
    /// [`ServeError::Internal`] if binding or creating the wake-up pipe
    /// fails.
    pub fn bind<A: ToSocketAddrs>(
        addr: A,
        runtime: Arc<ServeRuntime>,
        cfg: NetConfig,
    ) -> Result<Self, ServeError> {
        cfg.validate()?;
        let listener = TcpListener::bind(addr)
            .map_err(|e| ServeError::Internal(format!("bind failed: {e}")))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| ServeError::Internal(format!("set_nonblocking failed: {e}")))?;
        let addr = listener
            .local_addr()
            .map_err(|e| ServeError::Internal(format!("local_addr failed: {e}")))?;
        let wake = Arc::new(
            Wakeup::new().map_err(|e| ServeError::Internal(format!("wake-up pipe failed: {e}")))?,
        );
        let hook: CompletionHook = {
            let wake = Arc::clone(&wake);
            Arc::new(move || wake.completed())
        };
        let stats = Arc::new(NetStats::default());
        let hub = Arc::new(MetricsHub::new(Arc::clone(&runtime)));
        hub.set_net_stats(NetStatsHandle(Arc::clone(&stats)));
        let admission = AdmissionControl::new(runtime, &cfg.shed);
        Ok(NetServer {
            listener,
            addr,
            admission,
            cfg,
            stats,
            hub,
            wake,
            hook,
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Point-in-time front-end counters.
    pub fn stats(&self) -> NetStatsSnapshot {
        self.stats.snapshot()
    }

    /// A live counter view for external [`MetricsHub`]s.
    pub fn stats_handle(&self) -> NetStatsHandle {
        NetStatsHandle(Arc::clone(&self.stats))
    }

    /// The metrics hub `STATS` frames are answered from — the runtime
    /// and front-end sources are pre-wired; add a snapshot watcher via
    /// [`MetricsHub::set_watch_stats`].
    pub fn metrics_hub(&self) -> &Arc<MetricsHub> {
        &self.hub
    }

    /// Runs the event loop on a dedicated thread; the returned handle
    /// stops and joins it on shutdown/drop.
    ///
    /// # Errors
    ///
    /// [`ServeError::Internal`] if the thread cannot be spawned.
    pub fn spawn(self) -> Result<NetServerHandle, ServeError> {
        let addr = self.addr;
        let stats = Arc::clone(&self.stats);
        let hub = Arc::clone(&self.hub);
        let wake = Arc::clone(&self.wake);
        let thread = std::thread::Builder::new()
            .name("bsnn-net-frontend".into())
            .spawn(move || self.run())
            .map_err(|e| ServeError::Internal(format!("failed to spawn front-end: {e}")))?;
        Ok(NetServerHandle {
            addr,
            stats,
            hub,
            wake,
            thread: Some(thread),
        })
    }

    /// Runs the event loop until the handle stops it; drains nothing on
    /// exit (in-flight requests still complete in the runtime, but their
    /// responses are not delivered).
    fn run(self) {
        let mut conns: Vec<Conn> = Vec::new();
        let mut scratch = vec![0u8; 64 * 1024];
        let mut fds = Vec::new();
        while !self.wake.stopping() {
            let (accepted, accept_failed) = self.accept(&mut conns);
            if self.pass(&mut conns, &mut scratch) || accepted {
                continue;
            }
            // Nothing to do. Arm the completion hooks, then look once
            // more for a response that completed before arming and so
            // sent no ping; one that completes later pings the pipe.
            // Sockets need no second look: the wait reports them
            // level-triggered.
            self.wake.arm();
            if !conns.iter().any(Conn::has_ready_response) {
                self.wait(&conns, accept_failed, &mut fds);
            }
            self.wake.disarm();
        }
    }

    /// Accepts every connection queued on the listener. Returns whether
    /// one arrived, and whether accepting failed (out of descriptors,
    /// say), which can leave the listener readable.
    fn accept(&self, conns: &mut Vec<Conn>) -> (bool, bool) {
        let mut accepted = false;
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    accepted = true;
                    if conns.len() >= self.cfg.max_connections {
                        NetStats::bump(&self.stats.refused_connections);
                        drop(stream);
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    NetStats::bump(&self.stats.accepted);
                    conns.push(Conn::new(stream));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return (accepted, false),
                Err(_) => return (accepted, true),
            }
        }
    }

    /// One pass: service each connection once and retire finished ones.
    /// Returns whether anything happened.
    fn pass(&self, conns: &mut Vec<Conn>, scratch: &mut [u8]) -> bool {
        let mut progressed = false;
        let now = Instant::now();
        for conn in conns.iter_mut() {
            progressed |= self.service_conn(conn, scratch, now);
        }
        conns.retain(|conn| {
            let done = conn.poisoned && conn.flushed()
                || conn.read_closed && conn.pending.is_empty() && conn.flushed();
            if done {
                NetStats::bump(&self.stats.closed);
            }
            !done
        });
        progressed
    }

    /// Blocks in `poll(2)` until the listener, a connection or the
    /// wake-up pipe is ready, or the nearest connection timeout falls
    /// due.
    fn wait(&self, conns: &[Conn], accept_failed: bool, fds: &mut Vec<sys::PollFd>) {
        fds.clear();
        fds.push(sys::PollFd::new(self.wake.rx.as_raw_fd(), sys::POLLIN));
        // A failed accept can leave its connection queued and the
        // listener readable; waiting on it would spin, so retry it on a
        // short timer instead.
        let mut due = if accept_failed {
            Some(Instant::now() + ACCEPT_RETRY)
        } else {
            fds.push(sys::PollFd::new(self.listener.as_raw_fd(), sys::POLLIN));
            None
        };
        for conn in conns {
            let events = conn.interest();
            if events != 0 {
                fds.push(sys::PollFd::new(conn.stream.as_raw_fd(), events));
            }
            if let Some((at, _)) = self.timeout(conn) {
                due = Some(due.map_or(at, |d| d.min(at)));
            }
        }
        // A timeout fires only once strictly past due, so round up.
        let timeout_ms = due.map_or(-1, |at| {
            let ms = at.saturating_duration_since(Instant::now()).as_millis() + 1;
            ms.min(c_int::MAX as u128) as c_int
        });
        // An interrupted or failed wait just starts the next pass.
        let _ = sys::wait(fds, timeout_ms);
        if fds[0].revents != 0 {
            self.wake.drain();
        }
    }

    /// When this connection's running timeout falls due, and whether it
    /// is the read timeout of a partial frame (else the idle timeout).
    /// A pending response is activity in flight, so only a partial frame
    /// or full idleness runs a timeout.
    fn timeout(&self, conn: &Conn) -> Option<(Instant, bool)> {
        if conn.poisoned {
            None
        } else if let Some(since) = conn.partial_since {
            since
                .checked_add(self.cfg.read_timeout)
                .map(|at| (at, true))
        } else if conn.pending.is_empty() && conn.rbuf.is_empty() {
            conn.last_activity
                .checked_add(self.cfg.idle_timeout)
                .map(|at| (at, false))
        } else {
            None
        }
    }

    /// One service pass over one connection; returns whether anything
    /// happened.
    fn service_conn(&self, conn: &mut Conn, scratch: &mut [u8], now: Instant) -> bool {
        let mut progressed = false;

        // 1. Drain the socket into the read buffer.
        while !conn.read_closed && !conn.poisoned {
            match conn.stream.read(scratch) {
                Ok(0) => {
                    conn.read_closed = true;
                    progressed = true;
                }
                Ok(n) => {
                    conn.rbuf.extend_from_slice(&scratch[..n]);
                    self.stats.bytes_in.fetch_add(n as u64, Ordering::Relaxed);
                    conn.last_activity = now;
                    progressed = true;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    // Peer went away (reset); nothing left to deliver.
                    conn.read_closed = true;
                    conn.poisoned = true;
                    conn.wbuf.clear();
                    conn.wpos = 0;
                    progressed = true;
                }
            }
        }

        // 2. Decode and admit every complete frame.
        while !conn.poisoned {
            match frame_ready(&conn.rbuf, self.cfg.max_frame) {
                Ok(None) => break,
                Ok(Some(total)) => {
                    progressed = true;
                    NetStats::bump(&self.stats.frames_in);
                    if conn.rbuf.get(4) == Some(&KIND_STATS) {
                        let decoded = decode_stats_request(&conn.rbuf[4..total]);
                        conn.rbuf.drain(..total);
                        match decoded {
                            Ok(what) => self.answer_stats(conn, what),
                            Err(e) => self.poison(conn, 0, &e),
                        }
                    } else {
                        let decoded = decode_request(&conn.rbuf[4..total]);
                        conn.rbuf.drain(..total);
                        match decoded {
                            Ok(wire) => self.admit(conn, wire),
                            Err(e) => self.poison(conn, 0, &e),
                        }
                    }
                }
                Err(e) => {
                    progressed = true;
                    self.poison(conn, 0, &e);
                }
            }
        }
        // Track how long a partial frame has been sitting.
        if conn.rbuf.is_empty() {
            conn.partial_since = None;
        } else if conn.partial_since.is_none() {
            conn.partial_since = Some(now);
        }

        // 3. Collect finished responses.
        let mut i = 0;
        while i < conn.pending.len() {
            if conn.pending[i].1.is_ready() {
                progressed = true;
                let (id, handle) = conn.pending.swap_remove(i);
                match handle.wait() {
                    Ok(resp) => {
                        NetStats::bump(&self.stats.responses_ok);
                        if resp.degraded {
                            NetStats::bump(&self.stats.responses_degraded);
                        }
                        encode_response_ok(&mut conn.wbuf, id, &resp);
                    }
                    Err(ServeError::DeadlineExceeded) => {
                        NetStats::bump(&self.stats.responses_deadline);
                        encode_response_deadline(&mut conn.wbuf, id);
                    }
                    Err(e) => {
                        NetStats::bump(&self.stats.responses_error);
                        encode_response_error(&mut conn.wbuf, id, &e.to_string());
                    }
                }
                conn.last_activity = now;
            } else {
                i += 1;
            }
        }

        // 4. Flush the write buffer.
        while conn.wpos < conn.wbuf.len() {
            match conn.stream.write(&conn.wbuf[conn.wpos..]) {
                Ok(0) => break,
                Ok(n) => {
                    conn.wpos += n;
                    self.stats.bytes_out.fetch_add(n as u64, Ordering::Relaxed);
                    conn.last_activity = now;
                    progressed = true;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    conn.poisoned = true;
                    conn.wbuf.clear();
                    conn.wpos = 0;
                    progressed = true;
                    break;
                }
            }
        }
        if conn.flushed() && conn.wpos > 0 {
            conn.wbuf.clear();
            conn.wpos = 0;
        }

        // 5. Timeouts.
        if let Some((due, partial)) = self.timeout(conn) {
            if now > due {
                NetStats::bump(&self.stats.timeouts);
                if partial {
                    encode_response_error(&mut conn.wbuf, 0, "read timeout: partial frame");
                }
                conn.poisoned = true;
                conn.read_closed = true;
                progressed = true;
            }
        }
        progressed
    }

    /// Admits one decoded request, queueing the handle or writing an
    /// immediate SHED/ERROR/DEADLINE_EXCEEDED response. The wire's
    /// relative deadline budget becomes an absolute instant here, on the
    /// server's clock — client and server clocks never have to agree.
    fn admit(&self, conn: &mut Conn, wire: WireRequest) {
        let mut request = wire.request;
        if wire.deadline_us > 0 {
            request =
                request.with_deadline(Instant::now() + Duration::from_micros(wire.deadline_us));
        }
        match self.admission.try_admit(request) {
            Ok(handle) => {
                // This pass's collect step finds a response that beat
                // the hook to the slot.
                handle.on_ready(Arc::clone(&self.hook));
                conn.pending.push((wire.request_id, handle));
            }
            Err(AdmitError::Shed(reason)) => {
                NetStats::bump(&self.stats.responses_shed);
                encode_response_shed(&mut conn.wbuf, wire.request_id, reason);
            }
            Err(AdmitError::Rejected(ServeError::DeadlineExceeded)) => {
                NetStats::bump(&self.stats.responses_deadline);
                encode_response_deadline(&mut conn.wbuf, wire.request_id);
            }
            Err(AdmitError::Rejected(e)) => {
                NetStats::bump(&self.stats.responses_error);
                encode_response_error(&mut conn.wbuf, wire.request_id, &e.to_string());
            }
        }
    }

    /// Answers one `STATS` frame inline: renders the requested dump and
    /// queues the reply. Never queued, never shed — observability stays
    /// reachable under the overload it exists to explain.
    fn answer_stats(&self, conn: &mut Conn, what: u8) {
        let text = match what {
            STATS_TRACE => self.hub.runtime().tracer().export_chrome(),
            _ => self.hub.render_prometheus(),
        };
        encode_stats_reply(&mut conn.wbuf, what, &text);
    }

    /// Marks a connection poisoned by a protocol error: queue a final
    /// ERROR frame (best effort), stop reading, close once flushed.
    fn poison(&self, conn: &mut Conn, request_id: u64, error: &WireError) {
        NetStats::bump(&self.stats.protocol_errors);
        NetStats::bump(&self.stats.responses_error);
        encode_response_error(&mut conn.wbuf, request_id, &error.to_string());
        conn.poisoned = true;
        conn.read_closed = true;
        conn.rbuf.clear();
    }
}

/// Owner handle of a spawned [`NetServer`]: stops and joins the event
/// loop on [`shutdown`](Self::shutdown) or drop.
#[derive(Debug)]
pub struct NetServerHandle {
    addr: SocketAddr,
    stats: Arc<NetStats>,
    hub: Arc<MetricsHub>,
    wake: Arc<Wakeup>,
    thread: Option<JoinHandle<()>>,
}

impl NetServerHandle {
    /// The bound address of the running front-end.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Point-in-time front-end counters.
    pub fn stats(&self) -> NetStatsSnapshot {
        self.stats.snapshot()
    }

    /// A live counter view for external [`MetricsHub`]s.
    pub fn stats_handle(&self) -> NetStatsHandle {
        NetStatsHandle(Arc::clone(&self.stats))
    }

    /// The running front-end's metrics hub (see
    /// [`NetServer::metrics_hub`]).
    pub fn metrics_hub(&self) -> &Arc<MetricsHub> {
        &self.hub
    }

    /// Stops the event loop, joins its thread, and returns the final
    /// counters.
    pub fn shutdown(mut self) -> NetStatsSnapshot {
        self.stop_and_join();
        self.stats.snapshot()
    }

    fn stop_and_join(&mut self) {
        if let Some(thread) = self.thread.take() {
            self.wake.stop();
            let _ = thread.join();
        }
    }
}

impl Drop for NetServerHandle {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

// ---------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------

/// Reads length-framed payloads off any blocking [`Read`] stream.
#[derive(Debug)]
pub struct FrameReader<R> {
    reader: R,
    buf: Vec<u8>,
    max_frame: usize,
}

impl<R: Read> FrameReader<R> {
    /// A reader accepting payloads up to `max_frame` bytes.
    pub fn new(reader: R, max_frame: usize) -> Self {
        FrameReader {
            reader,
            buf: Vec::new(),
            max_frame,
        }
    }

    /// Blocks until one whole frame is available and returns its
    /// payload; `Ok(None)` on clean EOF between frames.
    ///
    /// # Errors
    ///
    /// I/O errors from the underlying stream; `InvalidData` for an
    /// oversized frame or EOF mid-frame.
    pub fn next_frame(&mut self) -> io::Result<Option<Vec<u8>>> {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match frame_ready(&self.buf, self.max_frame)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?
            {
                Some(total) => {
                    let payload = self.buf[4..total].to_vec();
                    self.buf.drain(..total);
                    return Ok(Some(payload));
                }
                None => {
                    let n = self.reader.read(&mut chunk)?;
                    if n == 0 {
                        return if self.buf.is_empty() {
                            Ok(None)
                        } else {
                            Err(io::Error::new(
                                io::ErrorKind::InvalidData,
                                "connection closed mid-frame",
                            ))
                        };
                    }
                    self.buf.extend_from_slice(&chunk[..n]);
                }
            }
        }
    }
}

/// A deterministic, jitter-free bounded exponential backoff schedule:
/// attempt `k` (0-based) waits `min(base · 2^k, max)` before re-dialing.
/// No randomness means tests can pin the exact schedule; fleets that
/// need jitter can layer it on top.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BackoffPolicy {
    /// Delay before the first retry.
    pub base: Duration,
    /// Delay ceiling.
    pub max: Duration,
    /// Total connection attempts (the first dial counts; `1` means no
    /// retries, `0` is treated as `1`).
    pub attempts: u32,
}

impl Default for BackoffPolicy {
    fn default() -> Self {
        BackoffPolicy {
            base: Duration::from_millis(10),
            max: Duration::from_secs(1),
            attempts: 6,
        }
    }
}

impl BackoffPolicy {
    /// The delay after failed attempt `attempt` (0-based):
    /// `min(base · 2^attempt, max)`.
    pub fn delay(&self, attempt: u32) -> Duration {
        let factor = 1u32.checked_shl(attempt).unwrap_or(u32::MAX);
        self.base
            .checked_mul(factor)
            .unwrap_or(self.max)
            .min(self.max)
    }
}

/// A simple blocking client for the framed protocol — one request in
/// flight at a time (the open-loop load generator manages its own
/// streams for pipelining).
#[derive(Debug)]
pub struct NetClient {
    stream: TcpStream,
    reader: FrameReader<TcpStream>,
    next_id: u64,
}

impl NetClient {
    /// Connects to a [`NetServer`] (single attempt; use
    /// [`connect_with_backoff`](Self::connect_with_backoff) to retry).
    ///
    /// # Errors
    ///
    /// Connection-level I/O errors.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Self> {
        Self::connect_with_backoff(
            addr,
            BackoffPolicy {
                attempts: 1,
                ..BackoffPolicy::default()
            },
        )
    }

    /// Connects to a [`NetServer`], retrying under `backoff`.
    ///
    /// # Errors
    ///
    /// The last connection-level I/O error once attempts are exhausted.
    pub fn connect_with_backoff<A: ToSocketAddrs>(
        addr: A,
        backoff: BackoffPolicy,
    ) -> io::Result<Self> {
        let addr = addr.to_socket_addrs()?.next().ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "address resolved to nothing")
        })?;
        let stream = Self::dial(addr, &backoff)?;
        let reader = FrameReader::new(stream.try_clone()?, usize::MAX >> 1);
        Ok(NetClient {
            stream,
            reader,
            next_id: 1,
        })
    }

    fn dial(addr: SocketAddr, backoff: &BackoffPolicy) -> io::Result<TcpStream> {
        let attempts = backoff.attempts.max(1);
        let mut last: Option<io::Error> = None;
        for attempt in 0..attempts {
            if attempt > 0 {
                std::thread::sleep(backoff.delay(attempt - 1));
            }
            match TcpStream::connect(addr) {
                Ok(stream) => {
                    stream.set_nodelay(true)?;
                    return Ok(stream);
                }
                Err(e) => last = Some(e),
            }
        }
        Err(last.expect("at least one dial attempt runs"))
    }

    /// Sends one request and blocks for its response (requests and
    /// responses are matched by id, so interleaved server output is
    /// handled).
    ///
    /// # Errors
    ///
    /// I/O errors, or `InvalidData` for undecodable response bytes.
    pub fn call(
        &mut self,
        model: &str,
        policy: &ExitPolicy,
        image: &[f32],
    ) -> io::Result<NetResponse> {
        let id = self.next_id;
        self.next_id += 1;
        let mut buf = Vec::with_capacity(64 + image.len() * 4);
        encode_request(&mut buf, id, model, policy, image)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
        self.stream.write_all(&buf)?;
        loop {
            let Some(payload) = self.reader.next_frame()? else {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection before responding",
                ));
            };
            let response = decode_response(&payload)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
            if response.request_id() == id {
                return Ok(response);
            }
        }
    }

    /// Fetches the server's Prometheus-style metrics dump over a
    /// `STATS` frame.
    ///
    /// # Errors
    ///
    /// I/O errors, or `InvalidData` for undecodable reply bytes.
    pub fn dump_metrics(&mut self) -> io::Result<String> {
        self.dump(STATS_METRICS)
    }

    /// Fetches the server's sampled request trace as Chrome trace-event
    /// JSON (empty array unless the server enabled tracing).
    ///
    /// # Errors
    ///
    /// I/O errors, or `InvalidData` for undecodable reply bytes.
    pub fn dump_trace(&mut self) -> io::Result<String> {
        self.dump(STATS_TRACE)
    }

    fn dump(&mut self, what: u8) -> io::Result<String> {
        let mut buf = Vec::new();
        encode_stats_request(&mut buf, what);
        self.stream.write_all(&buf)?;
        loop {
            let Some(payload) = self.reader.next_frame()? else {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection before the stats reply",
                ));
            };
            // Skip any still-in-flight inference responses; the reply
            // to the dump we just sent is the next stats frame.
            if payload.first() == Some(&KIND_STATS_REPLY) {
                let (_, text) = decode_stats_reply(&payload)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
                return Ok(text);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_response() -> InferResponse {
        InferResponse {
            prediction: 7,
            steps: 42,
            spikes: 9001,
            margin: 0.125,
            exit: ExitReason::Converged,
            model_epoch: 3,
            queue_micros: 17,
            service_micros: 450,
            batch_size: 8,
            degraded: false,
        }
    }

    #[test]
    fn request_frame_round_trips() {
        for policy in [
            ExitPolicy::Fixed { steps: 96 },
            ExitPolicy::ConfidenceMargin {
                margin: 0.02,
                patience: 2,
                check_every: 8,
                max_steps: 96,
            },
            ExitPolicy::SpikeBudget {
                max_spikes: 20_000,
                max_steps: 64,
            },
        ] {
            let image = vec![0.0, 0.25, 0.5, 1.0];
            let mut buf = Vec::new();
            encode_request(&mut buf, 77, "digits", &policy, &image).unwrap();
            let total = frame_ready(&buf, 1 << 20).unwrap().unwrap();
            assert_eq!(total, buf.len());
            let wire = decode_request(&buf[4..total]).unwrap();
            assert_eq!(wire.request_id, 77);
            assert_eq!(wire.request.model, "digits");
            assert_eq!(wire.request.policy, policy);
            assert_eq!(wire.request.image, image);
            assert_eq!(wire.deadline_us, 0, "plain encode_request has no deadline");
        }
    }

    #[test]
    fn deadline_rides_the_request_frame() {
        let mut buf = Vec::new();
        encode_request_with_deadline(
            &mut buf,
            9,
            "m",
            &ExitPolicy::Fixed { steps: 4 },
            &[0.5],
            2_500,
        )
        .unwrap();
        let total = frame_ready(&buf, 1 << 20).unwrap().unwrap();
        let wire = decode_request(&buf[4..total]).unwrap();
        assert_eq!(wire.request_id, 9);
        assert_eq!(wire.deadline_us, 2_500);
        assert_eq!(wire.request.image, vec![0.5]);
    }

    #[test]
    fn response_frames_round_trip() {
        let degraded_resp = InferResponse {
            degraded: true,
            ..sample_response()
        };
        let mut buf = Vec::new();
        encode_response_ok(&mut buf, 1, &sample_response());
        encode_response_shed(&mut buf, 2, ShedReason::QueueDepth);
        encode_response_error(&mut buf, 3, "boom");
        encode_response_deadline(&mut buf, 4);
        encode_response_ok(&mut buf, 5, &degraded_resp);
        let mut decoded = Vec::new();
        let mut rest = buf.as_slice();
        while let Some(total) = frame_ready(rest, 1 << 20).unwrap() {
            decoded.push(decode_response(&rest[4..total]).unwrap());
            rest = &rest[total..];
        }
        assert_eq!(
            decoded,
            vec![
                NetResponse::Ok {
                    request_id: 1,
                    response: sample_response()
                },
                NetResponse::Shed {
                    request_id: 2,
                    reason: ShedReason::QueueDepth
                },
                NetResponse::Error {
                    request_id: 3,
                    message: "boom".into()
                },
                NetResponse::DeadlineExceeded { request_id: 4 },
                NetResponse::Ok {
                    request_id: 5,
                    response: degraded_resp
                },
            ]
        );
    }

    #[test]
    fn backoff_schedule_is_pinned_and_jitter_free() {
        let policy = BackoffPolicy {
            base: Duration::from_millis(10),
            max: Duration::from_millis(100),
            attempts: 6,
        };
        let schedule: Vec<u64> = (0..6).map(|k| policy.delay(k).as_millis() as u64).collect();
        assert_eq!(schedule, vec![10, 20, 40, 80, 100, 100]);
        // Huge attempt indices saturate at the ceiling instead of
        // overflowing.
        assert_eq!(policy.delay(63), Duration::from_millis(100));
        assert_eq!(policy.delay(200), Duration::from_millis(100));
    }

    #[test]
    fn partial_frames_are_not_decoded() {
        let mut buf = Vec::new();
        encode_request(&mut buf, 5, "m", &ExitPolicy::Fixed { steps: 4 }, &[0.5]).unwrap();
        for cut in 0..buf.len() {
            assert_eq!(
                frame_ready(&buf[..cut], 1 << 20).unwrap(),
                None,
                "prefix of {cut} bytes must wait for more"
            );
        }
        assert_eq!(frame_ready(&buf, 1 << 20).unwrap(), Some(buf.len()));
    }

    #[test]
    fn oversized_header_rejects_before_payload_arrives() {
        let huge = (1u32 << 24).to_le_bytes();
        assert_eq!(
            frame_ready(&huge, 1 << 20),
            Err(WireError::FrameTooLarge {
                len: 1 << 24,
                max: 1 << 20
            })
        );
    }

    #[test]
    fn malformed_payloads_error_cleanly() {
        // Unknown kind.
        assert_eq!(decode_request(&[9]), Err(WireError::BadKind(9)));
        // Truncated id.
        assert_eq!(
            decode_request(&[KIND_REQUEST, 1, 2]),
            Err(WireError::Truncated)
        );
        // Bad policy tag.
        let mut buf = Vec::new();
        encode_request(&mut buf, 1, "m", &ExitPolicy::Fixed { steps: 4 }, &[]).unwrap();
        let tag_at = 4 + 1 + 8 + 1 + 1; // header|kind|id|model_len|model
        let mut bad = buf.clone();
        bad[tag_at] = 9;
        assert_eq!(decode_request(&bad[4..]), Err(WireError::BadPolicyTag(9)));
        // Pixel count promising more than the payload delivers.
        let npix_at = buf.len() - 4;
        let mut short = buf.clone();
        short[npix_at..].copy_from_slice(&1000u32.to_le_bytes());
        assert_eq!(decode_request(&short[4..]), Err(WireError::Truncated));
        // Trailing garbage after a valid structure.
        let mut trailing = buf[4..].to_vec();
        trailing.push(0xFF);
        assert_eq!(decode_request(&trailing), Err(WireError::TrailingBytes));
        // Garbage response status.
        let mut resp = Vec::new();
        encode_response_shed(&mut resp, 2, ShedReason::QueueFull);
        let status_at = 4 + 1 + 8;
        resp[status_at] = 7;
        assert_eq!(decode_response(&resp[4..]), Err(WireError::BadCode(7)));
        // An unknown shed reason is reported as the byte that arrived.
        resp[status_at] = STATUS_SHED;
        resp[status_at + 1] = 9;
        assert_eq!(decode_response(&resp[4..]), Err(WireError::BadCode(9)));
        // The OK frame's degraded flag is 0 or 1, nothing else.
        let mut ok = Vec::new();
        encode_response_ok(
            &mut ok,
            3,
            &InferResponse {
                prediction: 1,
                steps: 8,
                spikes: 40,
                margin: 0.5,
                exit: ExitReason::Converged,
                model_epoch: 1,
                queue_micros: 2,
                service_micros: 3,
                batch_size: 4,
                degraded: true,
            },
        );
        let last = ok.len() - 1;
        ok[last] = 2;
        assert_eq!(decode_response(&ok[4..]), Err(WireError::BadCode(2)));
    }

    #[test]
    fn model_name_over_255_bytes_is_refused_at_encode_time() {
        let long = "m".repeat(256);
        let mut buf = Vec::new();
        assert_eq!(
            encode_request(&mut buf, 1, &long, &ExitPolicy::Fixed { steps: 1 }, &[]),
            Err(WireError::FieldTooLarge("model name"))
        );
        // Each exit-policy step count travels as a u32: one past
        // `u32::MAX` is refused before a byte is written, and `u32::MAX`
        // itself round-trips.
        let with_field = |n: usize| {
            [
                ExitPolicy::Fixed { steps: n },
                ExitPolicy::ConfidenceMargin {
                    margin: 0.5,
                    patience: n,
                    check_every: 1,
                    max_steps: 1,
                },
                ExitPolicy::ConfidenceMargin {
                    margin: 0.5,
                    patience: 1,
                    check_every: n,
                    max_steps: 1,
                },
                ExitPolicy::ConfidenceMargin {
                    margin: 0.5,
                    patience: 1,
                    check_every: 1,
                    max_steps: n,
                },
                ExitPolicy::SpikeBudget {
                    max_spikes: 1,
                    max_steps: n,
                },
            ]
        };
        for policy in with_field(u32::MAX as usize + 8) {
            let mut buf = Vec::new();
            assert_eq!(
                encode_request(&mut buf, 1, "m", &policy, &[0.5]),
                Err(WireError::FieldTooLarge("exit policy")),
                "{policy:?}"
            );
            assert!(buf.is_empty(), "{policy:?} wrote {} bytes", buf.len());
        }
        for policy in with_field(u32::MAX as usize) {
            let mut buf = Vec::new();
            encode_request(&mut buf, 1, "m", &policy, &[0.5]).unwrap();
            let total = frame_ready(&buf, 1 << 20).unwrap().unwrap();
            let wire = decode_request(&buf[4..total]).unwrap();
            assert_eq!(wire.request.policy, policy);
        }
    }

    #[test]
    fn error_message_truncates_on_char_boundary() {
        let msg = "é".repeat(40_000); // 80 kB of two-byte chars
        let mut buf = Vec::new();
        encode_response_error(&mut buf, 1, &msg);
        let total = frame_ready(&buf, 1 << 20).unwrap().unwrap();
        match decode_response(&buf[4..total]).unwrap() {
            NetResponse::Error { message, .. } => {
                assert!(message.len() <= u16::MAX as usize);
                assert!(message.chars().all(|c| c == 'é'));
            }
            other => panic!("expected error response, got {other:?}"),
        }
    }

    #[test]
    fn stats_frames_round_trip_and_reject_garbage() {
        for what in [STATS_METRICS, STATS_TRACE] {
            let mut buf = Vec::new();
            encode_stats_request(&mut buf, what);
            let total = frame_ready(&buf, 1 << 20).unwrap().unwrap();
            assert_eq!(decode_stats_request(&buf[4..total]), Ok(what));
        }
        let mut reply = Vec::new();
        encode_stats_reply(&mut reply, STATS_METRICS, "bsnn_queue_depth 0\n");
        let total = frame_ready(&reply, 1 << 20).unwrap().unwrap();
        assert_eq!(
            decode_stats_reply(&reply[4..total]),
            Ok((STATS_METRICS, "bsnn_queue_depth 0\n".to_string()))
        );
        // Unknown selector, wrong kind, trailing bytes.
        assert_eq!(
            decode_stats_request(&[KIND_STATS, 9]),
            Err(WireError::BadCode(9))
        );
        assert_eq!(
            decode_stats_request(&[KIND_REQUEST, 0]),
            Err(WireError::BadKind(KIND_REQUEST))
        );
        assert_eq!(
            decode_stats_request(&[KIND_STATS, 0, 0]),
            Err(WireError::TrailingBytes)
        );
        assert_eq!(
            decode_stats_request(&[KIND_STATS]),
            Err(WireError::Truncated)
        );
        assert_eq!(
            decode_stats_reply(&[KIND_STATS_REPLY]),
            Err(WireError::Truncated)
        );
    }

    /// End to end over a real socket: a served request shows up in the
    /// metrics dump fetched via the `STATS` frame, and the trace dump
    /// carries the request's sampled lifecycle spans.
    #[test]
    fn stats_frame_serves_metrics_and_trace_over_the_wire() {
        use crate::obs::{parse_metric, TraceConfig};
        use crate::registry::ModelRegistry;
        use crate::runtime::{ServeConfig, ServeRuntime};
        use bsnn_core::coding::{CodingScheme, HiddenCoding, InputCoding};
        use bsnn_core::layer::{SpikingLayer, ThresholdPolicy};
        use bsnn_core::synapse::Synapse;
        use bsnn_core::SpikingNetwork;
        use bsnn_tensor::Tensor;

        let diag = || Synapse::Dense {
            weight: Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2]).unwrap(),
        };
        let hidden = SpikingLayer::new(diag(), None, ThresholdPolicy::Fixed { vth: 0.25 }).unwrap();
        let net = SpikingNetwork::new(2, vec![hidden], diag(), None).unwrap();
        let registry = Arc::new(ModelRegistry::new());
        registry.install(
            "m",
            net,
            CodingScheme::new(InputCoding::Real, HiddenCoding::Rate),
            8,
        );
        let runtime = Arc::new(
            ServeRuntime::start(
                ServeConfig {
                    workers: 1,
                    queue_capacity: 16,
                    max_batch: 4,
                    batch_linger: Duration::from_micros(50),
                    trace: TraceConfig {
                        sample_every: 1,
                        capacity: 256,
                    },
                    profile: true,
                    ..ServeConfig::default()
                },
                registry,
            )
            .unwrap(),
        );
        let server =
            NetServer::bind("127.0.0.1:0", Arc::clone(&runtime), NetConfig::default()).unwrap();
        let addr = server.local_addr();
        let handle = server.spawn().unwrap();

        let mut client = NetClient::connect(addr).unwrap();
        let response = client
            .call("m", &ExitPolicy::Fixed { steps: 4 }, &[0.9, 0.1])
            .unwrap();
        assert!(matches!(response, NetResponse::Ok { .. }));

        let metrics = client.dump_metrics().unwrap();
        assert_eq!(
            parse_metric(&metrics, "bsnn_requests_completed_total"),
            Some(1.0)
        );
        assert_eq!(
            parse_metric(&metrics, "bsnn_net_responses_ok_total"),
            Some(1.0)
        );
        assert_eq!(
            parse_metric(&metrics, "bsnn_model_epoch{model=\"m\"}"),
            Some(1.0)
        );
        // Profiling was on: the model's stage counters account the run.
        let steps = parse_metric(&metrics, "bsnn_model_steps_total{model=\"m\"}");
        assert_eq!(steps, Some(4.0), "fixed 4-step request profiled");

        let trace = client.dump_trace().unwrap();
        assert!(trace.starts_with('['));
        assert!(trace.contains("\"name\":\"arrival\""));
        assert!(trace.contains("\"name\":\"service\""));
        assert!(trace.contains("\"name\":\"flush\""));

        handle.shutdown();
    }

    #[test]
    fn net_config_validation() {
        assert!(NetConfig::default().validate().is_ok());
        for cfg in [
            NetConfig {
                max_frame: 0,
                ..NetConfig::default()
            },
            NetConfig {
                max_connections: 0,
                ..NetConfig::default()
            },
            NetConfig {
                read_timeout: Duration::ZERO,
                ..NetConfig::default()
            },
            NetConfig {
                idle_timeout: Duration::ZERO,
                ..NetConfig::default()
            },
        ] {
            assert!(matches!(cfg.validate(), Err(ServeError::InvalidConfig(_))));
        }
    }
}
