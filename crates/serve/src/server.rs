//! A long-lived TCP scoring server over a frozen detector, plus the
//! matching blocking client.
//!
//! Wire protocol **version 3** (all little-endian):
//!
//! * score request — `u32` feature count `n`, then `n` `f64` values;
//! * health probe — the sentinel feature count `u32::MAX`
//!   ([`HEALTH_PROBE`]) with no payload;
//! * response — one status byte:
//!   * `0` followed by the `f64` score;
//!   * `1` followed by a `u32` length and a UTF-8 error message;
//!   * `2` followed by a `u32` length and a UTF-8 message — the server
//!     **shed** this request to protect itself (queue full or deadline
//!     expired). The sample was not scored; retrying after a backoff is
//!     safe and the connection stays usable;
//!   * `3` followed by a `u32` payload length and an encoded
//!     [`HealthReport`] (the answer to a health probe).
//!
//! The v3 health payload is six fixed fields: `u32` protocol version,
//! then `u64` queue depth, shed total, batches dispatched, samples
//! scored and caught group panics — 44 bytes. [`ScoreClient::health`]
//! rejects a payload that reports any other version with a typed error.
//!
//! Version history: v1 had only statuses `0` and `1` and no health
//! probe. v2 added the probe and statuses `2` and `3`; its health
//! payload ended in a list of per-shard liveness rows. v3 keeps v2's
//! frames and replaces those rows with the caught-panic count. Score
//! requests and replies are unchanged since v1, so a v1 or v2 client
//! scores against a v3 server as before; only its health decoding
//! differs.
//!
//! Error semantics: a *well-framed* bad request (wrong feature width,
//! unscorable values) is answered with an error frame and the connection
//! stays usable for the next request. The width is checked against the
//! header before any payload is buffered: a wrong-width payload is
//! drained through a fixed-size buffer, so only a request of the
//! detector's own width is ever buffered. A frame that cannot be
//! trusted — a declared feature count over `MAX_REQUEST_FEATURES` (2^20) —
//! is answered with an error frame and then the connection is
//! **closed**: the declared length is the only framing information the
//! protocol carries, so once it is implausible the stream can never be
//! resynchronised and draining it would mean reading up to 32 GiB of
//! attacker-controlled payload.
//!
//! Each connection gets its own handler thread; every handler submits
//! through the shared [`BatchScorer`], so samples arriving concurrently
//! on different connections coalesce into one panel, which
//! [`FrozenDetector::score_samples`] scores as one pool job per group.

use crate::batch::{BatchHandle, BatchScorer, CoalescePolicy, OverloadPolicy};
use crate::error::ServeError;
use crate::frozen::FrozenDetector;
use crate::wire::{Reader, Writer};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// Upper bound on a request's declared feature count; anything larger is
/// a corrupt or hostile frame, not a plausible sample.
const MAX_REQUEST_FEATURES: u32 = 1 << 20;

/// Sentinel feature count marking a health probe instead of a score
/// request (protocol v2).
pub const HEALTH_PROBE: u32 = u32::MAX;

/// The version this server speaks (reported in [`HealthReport`]).
pub const PROTOCOL_VERSION: u32 = 3;

/// Live connections keyed by connection id, shared between the acceptor
/// (insert), handlers (remove-on-exit) and shutdown (sever all).
type ConnSlab = Arc<Mutex<HashMap<u64, TcpStream>>>;

/// A server liveness snapshot, answered to a [`HEALTH_PROBE`]: batcher
/// queue pressure, load-shedding totals and the scorer's caught group
/// panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthReport {
    /// The wire protocol version the server speaks.
    pub protocol_version: u32,
    /// Samples currently waiting in the batching queue.
    pub queue_depth: u64,
    /// Requests shed so far because the queue was at capacity.
    pub shed_total: u64,
    /// Panels dispatched by the shared batcher.
    pub batches_dispatched: u64,
    /// Samples scored by the shared batcher.
    pub samples_scored: u64,
    /// Scoring attempts that panicked and were caught — group jobs and
    /// dense prep stages — over the served detector's lifetime
    /// ([`FrozenDetector::group_panics`]).
    pub group_panics: u64,
}

impl HealthReport {
    fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u32(self.protocol_version);
        w.u64(self.queue_depth);
        w.u64(self.shed_total);
        w.u64(self.batches_dispatched);
        w.u64(self.samples_scored);
        w.u64(self.group_panics);
        w.into_bytes()
    }

    fn decode(payload: &[u8]) -> Result<Self, ServeError> {
        let mut r = Reader::new(payload);
        let protocol_version = r.u32()?;
        if protocol_version != PROTOCOL_VERSION {
            return Err(ServeError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!(
                    "health report speaks protocol v{protocol_version}, this client speaks v{PROTOCOL_VERSION}"
                ),
            )));
        }
        Ok(HealthReport {
            protocol_version,
            queue_depth: r.u64()?,
            shed_total: r.u64()?,
            batches_dispatched: r.u64()?,
            samples_scored: r.u64()?,
            group_panics: r.u64()?,
        })
    }
}

/// The serving runtime: an acceptor thread, one handler thread per
/// connection, and a shared batching worker coalescing across all of
/// them. Shuts down cleanly on [`QuorumServer::shutdown`] or drop.
#[derive(Debug)]
pub struct QuorumServer {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    scorer: Arc<BatchScorer>,
    frozen: Arc<FrozenDetector>,
    conns: ConnSlab,
}

impl QuorumServer {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts
    /// serving `frozen` under the given coalescing policy and default
    /// overload limits.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] if binding fails; [`ServeError::Spawn`] if
    /// the batcher or acceptor thread cannot be spawned.
    pub fn bind(
        addr: impl ToSocketAddrs,
        frozen: Arc<FrozenDetector>,
        policy: CoalescePolicy,
    ) -> Result<Self, ServeError> {
        Self::bind_with(addr, frozen, policy, OverloadPolicy::default())
    }

    /// [`QuorumServer::bind`] with explicit overload limits (queue
    /// capacity and per-request deadline).
    ///
    /// # Errors
    ///
    /// Same conditions as [`QuorumServer::bind`].
    pub fn bind_with(
        addr: impl ToSocketAddrs,
        frozen: Arc<FrozenDetector>,
        policy: CoalescePolicy,
        overload: OverloadPolicy,
    ) -> Result<Self, ServeError> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let scorer = Arc::new(BatchScorer::start_with(
            Arc::clone(&frozen),
            policy,
            overload,
        )?);
        let conns: ConnSlab = Arc::new(Mutex::new(HashMap::new()));
        let acceptor = {
            let stop = Arc::clone(&stop);
            let scorer = Arc::clone(&scorer);
            let frozen = Arc::clone(&frozen);
            let conns = Arc::clone(&conns);
            std::thread::Builder::new()
                .name("quorum-acceptor".into())
                .spawn(move || {
                    accept_loop(&listener, &scorer, &frozen, &conns, &stop);
                })
                .map_err(|e| ServeError::spawn("quorum-acceptor", e))?
        };
        Ok(QuorumServer {
            local_addr,
            stop,
            acceptor: Some(acceptor),
            scorer,
            frozen,
            conns,
        })
    }

    /// The bound address — connect clients here.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Panels dispatched by the shared batcher (throughput diagnostics).
    pub fn batches_dispatched(&self) -> u64 {
        self.scorer.batches_dispatched()
    }

    /// Samples scored by the shared batcher.
    pub fn samples_scored(&self) -> u64 {
        self.scorer.samples_scored()
    }

    /// Requests shed so far because the batching queue was at capacity.
    pub fn shed_total(&self) -> u64 {
        self.scorer.shed_total()
    }

    /// The liveness snapshot a [`HEALTH_PROBE`] would answer right now.
    pub fn health_report(&self) -> HealthReport {
        health_report(&self.scorer, &self.frozen)
    }

    /// Connections currently tracked as live. Handlers remove their
    /// entry (closing the server's cloned fd) as they exit, so this
    /// returns to zero once disconnected clients' handlers have wound
    /// down — the connection-reaping regression test asserts exactly
    /// that after a connect/score/disconnect soak.
    pub fn open_connections(&self) -> usize {
        self.conns
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Stops accepting, severs live connections so handler threads exit,
    /// and joins the acceptor. Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the acceptor's blocking accept() with a throwaway
        // connection; it observes the flag and returns.
        let _ = TcpStream::connect(self.local_addr);
        let conns = self.conns.lock().unwrap_or_else(PoisonError::into_inner);
        for conn in conns.values() {
            let _ = conn.shutdown(Shutdown::Both);
        }
        drop(conns);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
    }
}

impl Drop for QuorumServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn health_report(scorer: &BatchScorer, frozen: &FrozenDetector) -> HealthReport {
    HealthReport {
        protocol_version: PROTOCOL_VERSION,
        queue_depth: scorer.queue_depth() as u64,
        shed_total: scorer.shed_total(),
        batches_dispatched: scorer.batches_dispatched(),
        samples_scored: scorer.samples_scored(),
        group_panics: frozen.group_panics(),
    }
}

fn accept_loop(
    listener: &TcpListener,
    scorer: &Arc<BatchScorer>,
    frozen: &Arc<FrozenDetector>,
    conns: &ConnSlab,
    stop: &Arc<AtomicBool>,
) {
    // Handler JoinHandles live here, keyed by connection id; exiting
    // handlers queue their id on `finished` and the acceptor reaps the
    // handle (join + remove) on its next wakeup, so neither the conn
    // slab nor this map grows with the lifetime total of connections —
    // only with the number currently live.
    let mut handlers: HashMap<u64, JoinHandle<()>> = HashMap::new();
    let finished: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
    let mut next_id: u64 = 0;
    while let Ok((stream, _)) = listener.accept() {
        for id in finished
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .drain(..)
        {
            if let Some(join) = handlers.remove(&id) {
                let _ = join.join();
            }
        }
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let id = next_id;
        next_id = next_id.wrapping_add(1);
        // Score replies are single small frames on a request/response
        // protocol: disable Nagle so each one leaves immediately instead
        // of waiting out a delayed-ACK round trip. Best-effort — a
        // socket that dies here just fails in the handler.
        let _ = stream.set_nodelay(true);
        if let Ok(clone) = stream.try_clone() {
            conns
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .insert(id, clone);
        }
        let handle = scorer.handle();
        let scorer_h = Arc::clone(scorer);
        let frozen_h = Arc::clone(frozen);
        let conns_h = Arc::clone(conns);
        let finished_h = Arc::clone(&finished);
        match std::thread::Builder::new()
            .name("quorum-conn".into())
            .spawn(move || {
                handle_connection(stream, &handle, &scorer_h, &frozen_h);
                // Reap this connection's slab entry (dropping the cloned
                // fd) and mark the JoinHandle collectable.
                conns_h
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .remove(&id);
                finished_h
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .push(id);
            }) {
            Ok(join) => {
                handlers.insert(id, join);
            }
            Err(_) => {
                conns
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .remove(&id);
            }
        }
    }
    for handler in handlers.into_values() {
        let _ = handler.join();
    }
}

/// One connection's request loop: read frames until EOF or a transport
/// error, answering each with a score or a typed error message.
/// Well-framed protocol errors (wrong width, unscorable rows) are
/// answered and keep the connection usable; a wrong-width payload is
/// drained through a fixed-size buffer before the answer, never read
/// into a buffer sized by the declared count. Transport errors end the
/// loop. A [`HEALTH_PROBE`] sentinel is answered with a status-3 health
/// frame. An implausible declared feature count (over
/// [`MAX_REQUEST_FEATURES`]) is answered with an error frame and then
/// **closes** the connection — the declared length is the stream's only
/// framing, so an untrustworthy one leaves no way to find the next
/// frame boundary, and draining it would read gigabytes on the
/// attacker's say-so.
fn handle_connection(
    mut stream: TcpStream,
    handle: &BatchHandle,
    scorer: &BatchScorer,
    frozen: &FrozenDetector,
) {
    // Per-connection pooled buffers: the request payload lands in one
    // bulk read (one syscall for all `n` values instead of one per
    // `f64`), and every length-prefixed reply frame is assembled in a
    // reused buffer — steady-state request handling allocates only the
    // row the batching queue takes ownership of.
    let mut payload: Vec<u8> = Vec::new();
    let mut frame: Vec<u8> = Vec::new();
    loop {
        let mut len_buf = [0u8; 4];
        if stream.read_exact(&mut len_buf).is_err() {
            return; // EOF (client done) or severed by shutdown.
        }
        let n = u32::from_le_bytes(len_buf);
        if n == HEALTH_PROBE {
            if write_health(&mut stream, &health_report(scorer, frozen), &mut frame).is_err() {
                return;
            }
            continue;
        }
        if n > MAX_REQUEST_FEATURES {
            let _ = write_error(
                &mut stream,
                &format!("implausible feature count {n}"),
                &mut frame,
            );
            return;
        }
        let width = handle.num_features();
        if n as usize != width {
            let declared = u64::from(n) * 8;
            match std::io::copy(&mut (&mut stream).take(declared), &mut std::io::sink()) {
                Ok(drained) if drained == declared => {}
                _ => return,
            }
            let err = ServeError::Request(format!("expected {width} features, got {n}"));
            if write_error(&mut stream, &err.to_string(), &mut frame).is_err() {
                return;
            }
            continue;
        }
        payload.clear();
        payload.resize(n as usize * 8, 0);
        if stream.read_exact(&mut payload).is_err() {
            return;
        }
        let mut row = Vec::with_capacity(n as usize);
        row.extend(
            payload
                .chunks_exact(8)
                .map(|c| f64::from_le_bytes(c.try_into().expect("chunks are 8 bytes"))),
        );
        // The handle validates width at enqueue, so a malformed client
        // never occupies a slot in a coalesced panel.
        let ok = match handle.score(row) {
            Ok(score) => write_score(&mut stream, score).is_ok(),
            // Shed requests get the typed status so clients can back
            // off and retry instead of parsing error text.
            Err(ServeError::Overloaded(msg)) => {
                write_overloaded(&mut stream, &msg, &mut frame).is_ok()
            }
            Err(e) => write_error(&mut stream, &e.to_string(), &mut frame).is_ok(),
        };
        if !ok {
            return;
        }
    }
}

/// Writes one response frame. The `"server::write_frame"` failpoint can
/// tear the frame here: only the first `keep_bytes` reach the wire and
/// the socket is shut down, exactly what a mid-write crash or network
/// partition produces.
fn write_frame(stream: &mut TcpStream, frame: &[u8]) -> std::io::Result<()> {
    #[cfg(any(test, feature = "failpoints"))]
    if let Some(crate::fault::FaultAction::TornWrite { keep_bytes }) =
        crate::fault::check("server::write_frame")
    {
        let keep = keep_bytes.min(frame.len());
        let _ = stream.write_all(&frame[..keep]);
        let _ = stream.flush();
        let _ = stream.shutdown(Shutdown::Both);
        return Err(std::io::Error::new(
            std::io::ErrorKind::BrokenPipe,
            "failpoint tore the response frame",
        ));
    }
    // Flush errors propagate: with Nagle disabled a buffered-writer
    // flush is where a dead peer surfaces, and swallowing it would let
    // the handler keep scoring into a closed socket.
    stream.write_all(frame)?;
    stream.flush()
}

fn write_score(stream: &mut TcpStream, score: f64) -> std::io::Result<()> {
    let mut frame = [0u8; 9];
    frame[1..].copy_from_slice(&score.to_le_bytes());
    write_frame(stream, &frame)
}

/// Assembles a `status | len | bytes` frame in the caller's pooled
/// buffer so the message paths (error, shed, health) stay off the
/// per-reply allocator.
fn write_message_frame(
    stream: &mut TcpStream,
    status: u8,
    message: &str,
    frame: &mut Vec<u8>,
) -> std::io::Result<()> {
    let bytes = message.as_bytes();
    frame.clear();
    frame.reserve(5 + bytes.len());
    frame.push(status);
    frame.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    frame.extend_from_slice(bytes);
    write_frame(stream, frame)
}

fn write_error(stream: &mut TcpStream, message: &str, frame: &mut Vec<u8>) -> std::io::Result<()> {
    write_message_frame(stream, 1, message, frame)
}

fn write_overloaded(
    stream: &mut TcpStream,
    message: &str,
    frame: &mut Vec<u8>,
) -> std::io::Result<()> {
    write_message_frame(stream, 2, message, frame)
}

fn write_health(
    stream: &mut TcpStream,
    report: &HealthReport,
    frame: &mut Vec<u8>,
) -> std::io::Result<()> {
    let payload = report.encode();
    frame.clear();
    frame.reserve(5 + payload.len());
    frame.push(3u8);
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&payload);
    write_frame(stream, frame)
}

/// Retry schedule for [`ScoreClient`]: exponential backoff with
/// deterministic, seeded jitter (no OS randomness — the same client
/// replays the same schedule, which the chaos suite relies on).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Extra attempts after the first failure.
    pub max_retries: u32,
    /// Backoff before the first retry; doubles per attempt.
    pub backoff_base: Duration,
    /// Ceiling on any single backoff.
    pub backoff_cap: Duration,
    /// Jitter fraction in `[0, 1]`: each backoff is scaled by a
    /// deterministic factor in `[1 - jitter, 1]`, decorrelating clients
    /// that share a seed schedule shape but not a seed.
    pub jitter: f64,
    /// Seed for the jitter sequence.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_secs(1),
            jitter: 0.5,
            seed: 0x9E37_79B9_7F4A_7C15,
        }
    }
}

impl RetryPolicy {
    /// The delay before retry number `attempt` (0-based).
    fn backoff(&self, attempt: u32) -> Duration {
        let exp = attempt.min(20);
        let raw = self
            .backoff_base
            .saturating_mul(1u32 << exp)
            .min(self.backoff_cap);
        let jitter = self.jitter.clamp(0.0, 1.0);
        // splitmix64 of (seed, attempt) → uniform in [0, 1).
        let u = (splitmix64(self.seed ^ u64::from(attempt)) >> 11) as f64 / (1u64 << 53) as f64;
        raw.mul_f64(1.0 - jitter * u)
    }
}

/// SplitMix64 — deterministic jitter source (no OS randomness needed).
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A minimal blocking client for the scoring protocol.
///
/// By default reads and writes block indefinitely; set deadlines with
/// [`ScoreClient::connect_with_timeouts`] or [`ScoreClient::set_timeouts`]
/// so a hung or wedged server surfaces as [`ServeError::Io`]
/// (`WouldBlock`/`TimedOut`) instead of blocking `score` forever.
///
/// [`ScoreClient::score_with_retry`] retries transient failures —
/// transport errors (reconnecting first) and typed
/// [`ServeError::Overloaded`] sheds — with seeded exponential backoff.
/// Retrying a score request is always safe: the protocol carries no
/// client state and scoring mutates nothing, so a resend can at worst
/// recompute. Under exact or noisy-expectation execution a resent row
/// scores bit-identically — the score depends only on the row and the
/// frozen statistics. Under `Sampled` execution the shot-noise draw is
/// keyed by the server-assigned sample id, so a resend is a fresh,
/// identically distributed draw rather than a byte-for-byte replay.
#[derive(Debug)]
pub struct ScoreClient {
    stream: TcpStream,
    /// Resolved addresses, kept for reconnects during retry.
    addrs: Vec<SocketAddr>,
    read_timeout: Option<Duration>,
    write_timeout: Option<Duration>,
    retry: RetryPolicy,
    /// Reused request-frame buffer: steady-state scoring encodes into
    /// this instead of allocating per call.
    frame: Vec<u8>,
}

impl ScoreClient {
    /// Connects to a running [`QuorumServer`] with no i/o deadlines.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] if the connection fails.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ServeError> {
        let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
        let stream = TcpStream::connect(&addrs[..])?;
        // Requests are single small frames; without this each one can
        // stall behind Nagle waiting for the server's delayed ACK.
        stream.set_nodelay(true)?;
        Ok(ScoreClient {
            stream,
            addrs,
            read_timeout: None,
            write_timeout: None,
            retry: RetryPolicy::default(),
            frame: Vec::new(),
        })
    }

    /// Connects and applies the given read/write deadlines in one step.
    /// `None` leaves that direction blocking.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] if the connection fails or a zero duration is
    /// passed.
    pub fn connect_with_timeouts(
        addr: impl ToSocketAddrs,
        read: Option<Duration>,
        write: Option<Duration>,
    ) -> Result<Self, ServeError> {
        let mut client = Self::connect(addr)?;
        client.set_timeouts(read, write)?;
        Ok(client)
    }

    /// Connects, retrying transport failures under `retry` — a client
    /// started before (or racing) its server converges instead of
    /// failing fast.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] when every attempt fails; the last error wins.
    pub fn connect_with_retry(
        addr: impl ToSocketAddrs,
        retry: RetryPolicy,
    ) -> Result<Self, ServeError> {
        let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
        let mut attempt = 0u32;
        loop {
            match TcpStream::connect(&addrs[..]) {
                Ok(stream) => {
                    stream.set_nodelay(true)?;
                    return Ok(ScoreClient {
                        stream,
                        addrs,
                        read_timeout: None,
                        write_timeout: None,
                        retry,
                        frame: Vec::new(),
                    });
                }
                Err(_) if attempt < retry.max_retries => {
                    std::thread::sleep(retry.backoff(attempt));
                    attempt += 1;
                }
                Err(e) => return Err(ServeError::Io(e)),
            }
        }
    }

    /// Sets the read/write deadlines for every subsequent `score` call.
    /// `None` reverts that direction to blocking indefinitely.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] for a zero duration (the platform rejects it).
    pub fn set_timeouts(
        &mut self,
        read: Option<Duration>,
        write: Option<Duration>,
    ) -> Result<(), ServeError> {
        self.stream.set_read_timeout(read)?;
        self.stream.set_write_timeout(write)?;
        self.read_timeout = read;
        self.write_timeout = write;
        Ok(())
    }

    /// Replaces the retry schedule used by
    /// [`ScoreClient::score_with_retry`].
    pub fn set_retry(&mut self, retry: RetryPolicy) {
        self.retry = retry;
    }

    /// Scores one sample, blocking for the response (up to the
    /// configured deadlines, when set). No retries — see
    /// [`ScoreClient::score_with_retry`].
    ///
    /// # Errors
    ///
    /// [`ServeError::Request`] when the server answers with an error
    /// frame; [`ServeError::Overloaded`] when the server shed the
    /// request (status 2 — not scored, safe to retry);
    /// [`ServeError::Io`] on transport failures and expired deadlines.
    pub fn score(&mut self, row: &[f64]) -> Result<f64, ServeError> {
        self.frame.clear();
        self.frame.reserve(4 + row.len() * 8);
        self.frame
            .extend_from_slice(&(row.len() as u32).to_le_bytes());
        for &v in row {
            self.frame.extend_from_slice(&v.to_le_bytes());
        }
        self.stream.write_all(&self.frame)?;
        let mut status = [0u8; 1];
        self.stream.read_exact(&mut status)?;
        match status[0] {
            0 => {
                let mut value = [0u8; 8];
                self.stream.read_exact(&mut value)?;
                Ok(f64::from_le_bytes(value))
            }
            1 => Err(ServeError::Request(self.read_message()?)),
            2 => Err(ServeError::Overloaded(self.read_message()?)),
            other => Err(ServeError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("unknown response status {other}"),
            ))),
        }
    }

    /// [`ScoreClient::score`] with retries: transport failures
    /// reconnect and resend after a backoff, [`ServeError::Overloaded`]
    /// sheds back off on the same connection, and every other error
    /// (bad request, scoring failure) returns immediately — retrying a
    /// deterministic failure would only repeat it.
    ///
    /// # Errors
    ///
    /// The last transient error once the retry budget is spent, or the
    /// first non-transient error.
    pub fn score_with_retry(&mut self, row: &[f64]) -> Result<f64, ServeError> {
        let mut attempt = 0u32;
        loop {
            let err = match self.score(row) {
                Ok(score) => return Ok(score),
                Err(e @ (ServeError::Io(_) | ServeError::Overloaded(_))) => e,
                Err(other) => return Err(other),
            };
            if attempt >= self.retry.max_retries {
                return Err(err);
            }
            std::thread::sleep(self.retry.backoff(attempt));
            attempt += 1;
            if matches!(err, ServeError::Io(_)) {
                // The stream may be torn mid-frame; resynchronise with a
                // fresh connection. A failed reconnect just consumes the
                // attempt — the next loop iteration fails fast on i/o.
                if let Ok(stream) = TcpStream::connect(&self.addrs[..]) {
                    if stream.set_nodelay(true).is_ok()
                        && stream.set_read_timeout(self.read_timeout).is_ok()
                        && stream.set_write_timeout(self.write_timeout).is_ok()
                    {
                        self.stream = stream;
                    }
                }
            }
        }
    }

    /// Probes the server's health (protocol v3): batcher queue pressure,
    /// shed totals and the scorer's caught group panics.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] on transport failures or when the server's
    /// health report speaks another protocol version (a v1 server
    /// answers the probe with an error frame and closes the connection,
    /// surfaced as [`ServeError::Request`]).
    pub fn health(&mut self) -> Result<HealthReport, ServeError> {
        self.stream.write_all(&HEALTH_PROBE.to_le_bytes())?;
        let mut status = [0u8; 1];
        self.stream.read_exact(&mut status)?;
        match status[0] {
            3 => {
                let payload = self.read_payload()?;
                HealthReport::decode(&payload)
            }
            1 => Err(ServeError::Request(self.read_message()?)),
            other => Err(ServeError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("unexpected health response status {other}"),
            ))),
        }
    }

    /// Reads a `u32`-length-prefixed payload, bounded at 64 KiB.
    fn read_payload(&mut self) -> Result<Vec<u8>, ServeError> {
        let mut len_buf = [0u8; 4];
        self.stream.read_exact(&mut len_buf)?;
        let len = u32::from_le_bytes(len_buf);
        if len > 1 << 16 {
            return Err(ServeError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "oversized response frame",
            )));
        }
        let mut payload = vec![0u8; len as usize];
        self.stream.read_exact(&mut payload)?;
        Ok(payload)
    }

    fn read_message(&mut self) -> Result<String, ServeError> {
        let payload = self.read_payload()?;
        Ok(String::from_utf8_lossy(&payload).into_owned())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_backoff_is_deterministic_capped_and_jittered() {
        let policy = RetryPolicy {
            max_retries: 5,
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(100),
            jitter: 0.5,
            seed: 42,
        };
        let a: Vec<Duration> = (0..6).map(|i| policy.backoff(i)).collect();
        let b: Vec<Duration> = (0..6).map(|i| policy.backoff(i)).collect();
        assert_eq!(a, b, "same seed must replay the same schedule");
        for (i, d) in a.iter().enumerate() {
            let raw = Duration::from_millis(10)
                .saturating_mul(1 << i as u32)
                .min(Duration::from_millis(100));
            assert!(*d <= raw, "jitter only shrinks the delay");
            assert!(
                d.as_secs_f64() >= raw.as_secs_f64() * 0.5 - 1e-9,
                "jitter is bounded by the configured fraction"
            );
        }
        let other = RetryPolicy { seed: 43, ..policy };
        let c: Vec<Duration> = (0..6).map(|i| other.backoff(i)).collect();
        assert_ne!(a, c, "a different seed jitters differently");
        // Zero jitter is the plain exponential schedule.
        let plain = RetryPolicy {
            jitter: 0.0,
            ..policy
        };
        assert_eq!(plain.backoff(0), Duration::from_millis(10));
        assert_eq!(plain.backoff(2), Duration::from_millis(40));
        assert_eq!(plain.backoff(5), Duration::from_millis(100));
    }

    #[test]
    fn health_report_round_trips() {
        let report = HealthReport {
            protocol_version: PROTOCOL_VERSION,
            queue_depth: 3,
            shed_total: 11,
            batches_dispatched: 7,
            samples_scored: 19,
            group_panics: 2,
        };
        let bytes = report.encode();
        assert_eq!(bytes.len(), 44, "v3 health payload is six fixed fields");
        let decoded = HealthReport::decode(&bytes).unwrap();
        assert_eq!(decoded, report);
        assert!(HealthReport::decode(&bytes[..7]).is_err());
    }

    /// Decodes `cases` mutants of an encoded report per seed under the
    /// artifact test's schedule ([`crate::mutation::mutate`]): bit flips,
    /// truncations and 8-byte overwrites. Each must decode to a report or
    /// a typed error, never panic. Returns how many decoded.
    fn decode_mutated_health_reports(seeds: &[u64], cases: usize) -> usize {
        let payload = HealthReport {
            protocol_version: PROTOCOL_VERSION,
            queue_depth: 3,
            shed_total: 11,
            batches_dispatched: 7,
            samples_scored: 19,
            group_panics: 2,
        }
        .encode();
        let mut decoded = 0;
        for &seed in seeds {
            let mut rng = seed;
            for case in 0..cases {
                let bytes = crate::mutation::mutate(&payload, &mut rng);
                match std::panic::catch_unwind(|| HealthReport::decode(&bytes)) {
                    Ok(Ok(_)) => decoded += 1,
                    Ok(Err(_)) => {}
                    Err(_) => panic!("seed {seed} case {case}: decoding {bytes:?} panicked"),
                }
            }
        }
        decoded
    }

    #[test]
    fn mutated_health_reports_decode_or_fail_typed() {
        let decoded = decode_mutated_health_reports(&[0x5EED], 1_000);
        // Flips and overwrites past the version field still decode, while
        // truncations and version hits fail: both outcomes are exercised.
        assert!(decoded > 0 && decoded < 1_000, "{decoded} of 1000 decoded");
    }

    #[test]
    #[ignore = "exhaustive; run explicitly or in CI's --ignored pass"]
    fn mutated_health_reports_decode_or_fail_typed_exhaustive() {
        decode_mutated_health_reports(&[1, 2, 3], 100_000);
    }

    #[test]
    fn health_report_of_another_version_is_a_typed_error() {
        for version in [1, 2, PROTOCOL_VERSION + 1] {
            let report = HealthReport {
                protocol_version: version,
                queue_depth: 0,
                shed_total: 0,
                batches_dispatched: 0,
                samples_scored: 0,
                group_panics: 0,
            };
            let err = HealthReport::decode(&report.encode()).unwrap_err();
            assert!(matches!(err, ServeError::Io(_)), "got {err:?}");
            assert!(
                err.to_string().contains(&format!("protocol v{version}")),
                "{err}"
            );
        }
    }
}
