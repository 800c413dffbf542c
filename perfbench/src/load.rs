//! The load generator: open-loop and fixed-window phases driven by one
//! sending thread and one receiving thread, over one TCP connection or
//! in process through admission control.
//!
//! The sender sleeps until each send is due and never spins; a send that
//! is already late goes out at once and its lateness is recorded. Every
//! attempt is logged with its scheduled time, so latency is measured
//! from when a request was due, and every reply (or its absence) is
//! matched back to its attempt.

use bsnn_serve::net::{decode_response, encode_request, FrameReader};
use bsnn_serve::{
    AdmissionControl, AdmitError, ExitPolicy, InferRequest, InferResponse, NetResponse,
    ResponseHandle, ServeError,
};
use std::io::{self, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError};
use std::time::{Duration, Instant};

/// A reply that takes longer than this means the server hung.
const STALL: Duration = Duration::from_secs(30);
/// Request frames a traced window keeps for the codec replay.
const CAPTURE_FRAMES: usize = 4096;
/// How long the in-process collector blocks on the oldest outstanding
/// request before it checks the others for replies that completed out
/// of order.
const RESCAN: Duration = Duration::from_micros(200);

/// How sends are paced within a phase.
#[derive(Debug, Clone, Copy)]
pub enum Shape {
    /// Sends at a fixed rate, whatever the replies do.
    Open { rps: f64 },
    /// Keeps this many requests in flight.
    Window { in_flight: usize },
}

/// One phase of a run: it sends until `duration` has passed or `limit`
/// requests have gone out.
#[derive(Debug, Clone, Copy)]
pub struct PhaseSpec {
    pub name: &'static str,
    pub shape: Shape,
    pub duration: Duration,
    pub limit: u64,
}

/// What came back for one request.
#[derive(Debug, Clone)]
pub enum Answer {
    Ok(InferResponse),
    Shed,
    Deadline,
    Error,
}

/// One attempt, as the sender logged it.
#[derive(Debug, Clone, Copy)]
pub struct Sent {
    pub seq: u64,
    pub due: Instant,
    pub at: Instant,
}

/// One reply, as the receiver logged it.
#[derive(Debug, Clone)]
pub struct Reply {
    pub seq: u64,
    pub at: Instant,
    pub answer: Answer,
}

/// The attempts of one phase.
#[derive(Debug)]
pub struct PhaseLog {
    pub spec: PhaseSpec,
    pub start: Instant,
    pub sent: Vec<Sent>,
}

impl PhaseLog {
    /// When the phase stopped sending.
    pub fn end(&self) -> Instant {
        self.start + self.spec.duration
    }
}

/// Everything one phase produced.
#[derive(Debug)]
pub struct RunLog {
    pub phase: PhaseLog,
    pub replies: Vec<Reply>,
    /// Undecodable frames from the server.
    pub protocol_errors: u64,
    /// Request payloads as sent (traced TCP runs only), for the codec
    /// replay.
    pub request_frames: Vec<Vec<u8>>,
}

fn sleep_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

fn await_token(tokens: &Receiver<()>) -> io::Result<()> {
    match tokens.recv_timeout(STALL) {
        Ok(()) => Ok(()),
        Err(RecvTimeoutError::Timeout) => Err(io::Error::new(
            io::ErrorKind::TimedOut,
            "no reply within the stall limit",
        )),
        Err(RecvTimeoutError::Disconnected) => Err(io::Error::new(
            io::ErrorKind::BrokenPipe,
            "receiver stopped before every reply arrived",
        )),
    }
}

/// Runs one phase on the sending thread. `send(seq)` issues request
/// `seq` and returns whether a reply (and so a token) will come back;
/// the phase ends by waiting for every outstanding token.
fn drive_phase(
    spec: PhaseSpec,
    seq: &mut u64,
    tokens: &Receiver<()>,
    mut send: impl FnMut(u64) -> io::Result<bool>,
) -> io::Result<PhaseLog> {
    let start = Instant::now();
    let end = start + spec.duration;
    let mut log = PhaseLog {
        spec,
        start,
        sent: Vec::new(),
    };
    let mut in_flight = 0usize;
    for i in 0u64.. {
        let due = match spec.shape {
            Shape::Open { rps } => start + Duration::from_secs_f64(i as f64 / rps),
            Shape::Window { in_flight: window } => {
                while in_flight >= window {
                    await_token(tokens)?;
                    in_flight -= 1;
                }
                Instant::now()
            }
        };
        if due >= end || i >= spec.limit {
            break;
        }
        sleep_until(due);
        let at = Instant::now();
        if send(*seq)? {
            in_flight += 1;
        }
        log.sent.push(Sent { seq: *seq, due, at });
        *seq += 1;
    }
    for _ in 0..in_flight {
        await_token(tokens)?;
    }
    Ok(log)
}

/// The fixed request content: model, exit policy, and the seed-ordered
/// image pool that request `seq` cycles through.
#[derive(Debug, Clone, Copy)]
pub struct Traffic<'a> {
    pub model: &'a str,
    pub policy: &'a ExitPolicy,
    pub pool: &'a [Vec<f32>],
}

impl Traffic<'_> {
    pub fn image(&self, seq: u64) -> &[f32] {
        &self.pool[(seq % self.pool.len() as u64) as usize]
    }
}

/// Drives one phase over a fresh connection to `addr`, numbering
/// requests from `first_seq`.
pub fn run_tcp(
    addr: SocketAddr,
    traffic: Traffic<'_>,
    spec: PhaseSpec,
    first_seq: u64,
    capture: bool,
) -> io::Result<RunLog> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let reader = stream.try_clone()?;
    reader.set_read_timeout(Some(STALL))?;
    let (token_tx, tokens) = channel();
    std::thread::scope(|scope| {
        let receiver = scope.spawn(move || {
            let mut frames = FrameReader::new(reader, 1 << 20);
            let mut replies = Vec::new();
            let mut protocol_errors = 0u64;
            while let Ok(Some(payload)) = frames.next_frame() {
                let at = Instant::now();
                match decode_response(&payload) {
                    Ok(response) => {
                        let seq = response.request_id();
                        let answer = match response {
                            NetResponse::Ok { response, .. } => Answer::Ok(response),
                            NetResponse::Shed { .. } => Answer::Shed,
                            NetResponse::DeadlineExceeded { .. } => Answer::Deadline,
                            NetResponse::Error { .. } => Answer::Error,
                        };
                        replies.push(Reply { seq, at, answer });
                    }
                    Err(_) => protocol_errors += 1,
                }
                if token_tx.send(()).is_err() {
                    break;
                }
            }
            (replies, protocol_errors)
        });
        let mut request_frames = Vec::new();
        let mut seq = first_seq;
        let mut buf = Vec::new();
        let phase = drive_phase(spec, &mut seq, &tokens, |seq| {
            buf.clear();
            encode_request(
                &mut buf,
                seq,
                traffic.model,
                traffic.policy,
                traffic.image(seq),
            )
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
            stream.write_all(&buf)?;
            if capture && request_frames.len() < CAPTURE_FRAMES {
                request_frames.push(buf[4..].to_vec());
            }
            Ok(true)
        });
        // Closing our half makes the server flush and close; the
        // receiver then sees end-of-stream and returns.
        let _ = stream.shutdown(Shutdown::Write);
        let (replies, protocol_errors) = receiver.join().expect("receiver thread panicked");
        Ok(RunLog {
            phase: phase?,
            replies,
            protocol_errors,
            request_frames,
        })
    })
}

/// Drives one phase in process through `admission`, numbering requests
/// from `first_seq`.
///
/// A second thread blocks on the oldest outstanding response handle, so a
/// reply in order is stamped the moment it arrives; every `RESCAN` it
/// also checks the other handles, so a reply that overtook an older one
/// is stamped at most that late instead of when the older one finishes.
pub fn run_inproc(
    admission: &AdmissionControl,
    traffic: Traffic<'_>,
    spec: PhaseSpec,
    first_seq: u64,
) -> io::Result<RunLog> {
    let (handle_tx, handles) = channel::<(u64, ResponseHandle)>();
    let (token_tx, tokens) = channel();
    std::thread::scope(|scope| {
        let collector = scope.spawn(move || {
            let mut replies = Vec::new();
            // Outstanding requests, oldest first, with when each was handed
            // over.
            let mut pending: Vec<(u64, ResponseHandle, Instant)> = Vec::new();
            loop {
                if pending.is_empty() {
                    match handles.recv() {
                        Ok((seq, handle)) => pending.push((seq, handle, Instant::now())),
                        Err(_) => break,
                    }
                }
                while let Ok((seq, handle)) = handles.try_recv() {
                    pending.push((seq, handle, Instant::now()));
                }
                // Block on the oldest: a reply in order wakes us at once.
                let (seq, oldest, since) = pending.remove(0);
                let mut done = Vec::new();
                match oldest.wait_timeout(RESCAN) {
                    Ok(result) => done.push((seq, Some(result))),
                    Err(_) if since.elapsed() > STALL => done.push((seq, None)),
                    Err(handle) => pending.insert(0, (seq, handle, since)),
                }
                // Replies that completed out of order are stamped by this
                // scan, at most `RESCAN` late.
                let mut i = 0;
                while i < pending.len() {
                    if pending[i].1.is_ready() {
                        let (seq, handle, _) = pending.remove(i);
                        done.push((seq, Some(handle.wait())));
                    } else {
                        i += 1;
                    }
                }
                let at = Instant::now();
                for (seq, result) in done {
                    let answer = match result {
                        Some(Ok(response)) => Answer::Ok(response),
                        Some(Err(ServeError::DeadlineExceeded)) => Answer::Deadline,
                        Some(Err(_)) | None => Answer::Error,
                    };
                    replies.push(Reply { seq, at, answer });
                    if token_tx.send(()).is_err() {
                        return replies;
                    }
                }
            }
            replies
        });
        let mut refused = Vec::new();
        let mut seq = first_seq;
        let phase = drive_phase(spec, &mut seq, &tokens, |seq| {
            let request = InferRequest::new(
                traffic.image(seq).to_vec(),
                traffic.model,
                traffic.policy.clone(),
            );
            let answer = match admission.try_admit(request) {
                Ok(handle) => {
                    handle_tx.send((seq, handle)).map_err(|_| {
                        io::Error::new(io::ErrorKind::BrokenPipe, "collector stopped")
                    })?;
                    return Ok(true);
                }
                Err(AdmitError::Shed(_)) => Answer::Shed,
                Err(AdmitError::Rejected(ServeError::DeadlineExceeded)) => Answer::Deadline,
                Err(AdmitError::Rejected(_)) => Answer::Error,
            };
            refused.push(Reply {
                seq,
                at: Instant::now(),
                answer,
            });
            Ok(false)
        });
        drop(handle_tx);
        let mut replies = collector.join().expect("collector thread panicked");
        replies.extend(refused);
        Ok(RunLog {
            phase: phase?,
            replies,
            protocol_errors: 0,
            request_frames: Vec::new(),
        })
    })
}
