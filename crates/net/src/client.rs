//! Blocking `QCFP` client.
//!
//! [`QcfeClient`] speaks the wire protocol over one TCP or Unix-domain
//! connection. It is deliberately simple — blocking sockets, one write
//! buffer and one read buffer — because the concurrency lives on the
//! server: a client **pipelines** by calling [`QcfeClient::send`] N times
//! before reaping N responses with [`QcfeClient::recv`], correlating them
//! by request id. `send` only appends the sealed frame to the write
//! buffer; the requests leave together, in one write, at the next `recv`
//! that has to wait for the server or at an explicit
//! [`QcfeClient::flush`]. A client dropped with requests still buffered
//! discards them unsent. `recv` decodes each response in place in its read
//! buffer and keeps a partial frame for the next call. The one-shot
//! [`QcfeClient::estimate`] wraps a single send/recv pair and converts
//! the typed wire fault into an error.
//!
//! [`QcfeClient::estimate_with_retry`] layers an opt-in [`RetryPolicy`] on
//! top: bounded exponential backoff when the server sheds the request with
//! [`WireFault::QueueFull`] (the one fault that *invites* a retry — the
//! server is telling the client it is momentarily saturated), plus at most
//! one transparent reconnect when the connection itself breaks mid
//! round-trip. Every other fault is permanent for the request and
//! surfaces immediately.

use crate::wire::{self, Frame, WireError, WireFault, WireResponse};
use qcfe_serve::request::{EstimateRequest, EstimateResponse};
use qcfe_serve::{ModelKey, ReplicaSet};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// Any failure on the client side of a connection.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure (includes the server closing mid-frame).
    Io(io::Error),
    /// The server's bytes did not parse as `QCFP`.
    Wire(WireError),
    /// The server answered with a typed fault.
    Fault(WireFault),
    /// The server sent a non-response frame (requests, replication ship
    /// frames and manifest catch-up frames are only ever received by
    /// servers and the replicator, never by an estimate client).
    UnexpectedFrame,
    /// A response arrived for a different correlation id than the one
    /// [`QcfeClient::estimate`] was waiting on.
    IdMismatch {
        /// The id of the request just sent.
        expected: u64,
        /// The id the response carried.
        got: u64,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::Wire(e) => write!(f, "wire error: {e}"),
            ClientError::Fault(fault) => write!(f, "server fault: {fault}"),
            ClientError::UnexpectedFrame => write!(f, "server sent a request frame"),
            ClientError::IdMismatch { expected, got } => {
                write!(f, "expected response id {expected}, got {got}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e)
    }
}

/// How and when [`QcfeClient::estimate_with_retry`] retries.
///
/// Only two failures are retried: a [`WireFault::QueueFull`] shed (the
/// server is saturated *now* but invites the client back) waits an
/// exponentially growing backoff, and a broken connection (an I/O error
/// mid round-trip) is given at most **one** transparent reconnect to the
/// original target per call. Everything else — deadline faults, missing
/// models, protocol errors — is permanent for the request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// How many times a shed request is re-sent after the first attempt.
    pub max_retries: u32,
    /// Backoff before the first retry; doubles per retry.
    pub base_backoff: Duration,
    /// Upper bound the doubling backoff saturates at.
    pub max_backoff: Duration,
    /// Whether a broken connection may reconnect (once per call) instead
    /// of failing.
    pub reconnect: bool,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(500),
            reconnect: true,
        }
    }
}

impl RetryPolicy {
    /// The backoff before retry number `retry` (0-based): `base << retry`,
    /// saturating at `max_backoff`.
    ///
    /// Computed in 128-bit nanosecond arithmetic so no shift or multiply
    /// can overflow (or panic) however high the retry count climbs — the
    /// old `Duration::checked_mul(1 << retry)` path clamped the factor to
    /// `u32::MAX` past 32 retries, which under-backs-off whenever
    /// `base_backoff` is sub-microsecond and `max_backoff` is large.
    pub fn backoff(&self, retry: u32) -> Duration {
        let factor = 1u128.checked_shl(retry).unwrap_or(u128::MAX);
        let nanos = self.base_backoff.as_nanos().saturating_mul(factor);
        if nanos >= self.max_backoff.as_nanos() {
            return self.max_backoff;
        }
        u64::try_from(nanos)
            .map(Duration::from_nanos)
            .unwrap_or(self.max_backoff)
    }
}

/// Where a client connected to, kept so a broken connection can be
/// transparently re-established by [`QcfeClient::estimate_with_retry`].
enum ConnectTarget {
    Tcp(Vec<SocketAddr>),
    Uds(PathBuf),
}

enum Transport {
    Tcp(TcpStream),
    Uds(UnixStream),
}

impl Transport {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Transport::Tcp(s) => s.read(buf),
            Transport::Uds(s) => s.read(buf),
        }
    }

    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        match self {
            Transport::Tcp(s) => s.write_all(buf),
            Transport::Uds(s) => s.write_all(buf),
        }
    }
}

/// The least free space the read buffer keeps after its undecoded tail
/// when [`QcfeClient::recv`] reads from the socket.
const READ_CHUNK: usize = 16 * 1024;

/// A blocking connection to a `qcfe-net` server.
pub struct QcfeClient {
    transport: Transport,
    target: ConnectTarget,
    /// Sealed request frames not yet written to the socket.
    write_buf: Vec<u8>,
    /// Bytes read from the socket; `read_buf[read_pos..read_end]` are not
    /// yet decoded.
    read_buf: Vec<u8>,
    read_pos: usize,
    read_end: usize,
    next_id: u64,
}

impl QcfeClient {
    /// Connect over TCP. The resolved addresses are remembered so
    /// [`QcfeClient::estimate_with_retry`] can transparently reconnect.
    pub fn connect_tcp(addr: impl ToSocketAddrs) -> Result<Self, ClientError> {
        let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
        let stream = TcpStream::connect(&addrs[..])?;
        let _ = stream.set_nodelay(true);
        Ok(Self::over(
            Transport::Tcp(stream),
            ConnectTarget::Tcp(addrs),
        ))
    }

    /// Connect over a Unix-domain socket.
    pub fn connect_uds(path: impl AsRef<Path>) -> Result<Self, ClientError> {
        let path = path.as_ref().to_path_buf();
        let stream = UnixStream::connect(&path)?;
        Ok(Self::over(Transport::Uds(stream), ConnectTarget::Uds(path)))
    }

    fn over(transport: Transport, target: ConnectTarget) -> Self {
        QcfeClient {
            transport,
            target,
            write_buf: Vec::new(),
            read_buf: Vec::new(),
            read_pos: 0,
            read_end: 0,
            next_id: 1,
        }
    }

    /// Re-establish the transport to the original connect target. Any
    /// half-read frame and any request not yet written are discarded (they
    /// belonged to the dead connection); the correlation-id counter keeps
    /// advancing so ids stay unique across the reconnect.
    fn reconnect(&mut self) -> Result<(), ClientError> {
        self.transport = match &self.target {
            ConnectTarget::Tcp(addrs) => {
                let stream = TcpStream::connect(&addrs[..])?;
                let _ = stream.set_nodelay(true);
                Transport::Tcp(stream)
            }
            ConnectTarget::Uds(path) => Transport::Uds(UnixStream::connect(path)?),
        };
        self.write_buf.clear();
        (self.read_pos, self.read_end) = (0, 0);
        Ok(())
    }

    /// Bound how long a [`QcfeClient::recv`] blocks for server bytes.
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) -> Result<(), ClientError> {
        match &self.transport {
            Transport::Tcp(s) => s.set_read_timeout(timeout)?,
            Transport::Uds(s) => s.set_read_timeout(timeout)?,
        }
        Ok(())
    }

    /// Encode one request and append its frame to the write buffer;
    /// returns the correlation id the response will echo. Call repeatedly
    /// to pipeline: nothing is written until the next [`QcfeClient::recv`]
    /// that has to wait for the server or the next [`QcfeClient::flush`],
    /// either of which writes every buffered request in one `write_all`; a
    /// client dropped before then discards them unsent. The frame is
    /// encoded straight from the borrowed request
    /// ([`wire::encode_estimate_request`]), no clone of the environment or
    /// plan.
    pub fn send(&mut self, request: &EstimateRequest) -> Result<u64, ClientError> {
        let id = self.next_id;
        self.next_id += 1;
        self.write_buf
            .extend_from_slice(&wire::encode_estimate_request(id, request)?);
        Ok(id)
    }

    /// Write every buffered request to the socket in one `write_all`. A
    /// caller that sends without receiving calls this; [`QcfeClient::recv`]
    /// does it itself before it blocks. The buffer is emptied even when the
    /// write fails: a frame cut off mid-write cannot be resumed.
    pub fn flush(&mut self) -> Result<(), ClientError> {
        if self.write_buf.is_empty() {
            return Ok(());
        }
        let written = self.transport.write_all(&self.write_buf);
        self.write_buf.clear();
        Ok(written?)
    }

    /// Return the next response frame (whatever its id — the server
    /// answers pipelined requests in completion order). A frame already
    /// read is decoded in place; otherwise the buffered requests are
    /// written first ([`QcfeClient::flush`]) and the call blocks on the
    /// socket. Bytes past the returned frame stay buffered for the next
    /// call.
    pub fn recv(&mut self) -> Result<WireResponse, ClientError> {
        loop {
            let pending = &self.read_buf[self.read_pos..self.read_end];
            if let Some(len) = wire::frame_length(pending)? {
                let frame = wire::decode_frame(&pending[..len]);
                self.read_pos += len;
                return match frame? {
                    Frame::Response(response) => Ok(response),
                    _ => Err(ClientError::UnexpectedFrame),
                };
            }
            self.flush()?;
            self.fill_read_buf()?;
        }
    }

    /// Move the undecoded tail to the front of the read buffer and read
    /// once from the socket after it.
    fn fill_read_buf(&mut self) -> Result<(), ClientError> {
        self.read_buf.copy_within(self.read_pos..self.read_end, 0);
        self.read_end -= self.read_pos;
        self.read_pos = 0;
        if self.read_buf.len() < self.read_end + READ_CHUNK {
            self.read_buf.resize(self.read_end + READ_CHUNK, 0);
        }
        let n = self.transport.read(&mut self.read_buf[self.read_end..])?;
        if n == 0 {
            return Err(ClientError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )));
        }
        self.read_end += n;
        Ok(())
    }

    /// One blocking round trip: send, await the matching response (out-of-
    /// order frames from interleaved pipelining are an error here — use
    /// [`QcfeClient::send`]/[`QcfeClient::recv`] for pipelined traffic),
    /// convert a fault into [`ClientError::Fault`].
    pub fn estimate(&mut self, request: &EstimateRequest) -> Result<EstimateResponse, ClientError> {
        let id = self.send(request)?;
        // Written now even if a stale response is already buffered, so an
        // `IdMismatch` never leaves this request unsent.
        self.flush()?;
        let response = self.recv()?;
        if response.request_id != id {
            return Err(ClientError::IdMismatch {
                expected: id,
                got: response.request_id,
            });
        }
        match response.outcome {
            Ok(estimate) => Ok(estimate.into_response()),
            Err(fault) => Err(ClientError::Fault(fault)),
        }
    }

    /// [`QcfeClient::estimate`] with a [`RetryPolicy`]: a
    /// [`WireFault::QueueFull`] shed backs off exponentially and re-sends
    /// up to `max_retries` times; a broken connection is transparently
    /// re-established at most once per call (when `policy.reconnect`) and
    /// the request re-sent. Every other failure — including any other
    /// typed fault — returns immediately, and the final shed fault is
    /// returned unchanged once retries are spent.
    pub fn estimate_with_retry(
        &mut self,
        request: &EstimateRequest,
        policy: RetryPolicy,
    ) -> Result<EstimateResponse, ClientError> {
        let mut sheds = 0u32;
        let mut reconnected = false;
        loop {
            match self.estimate(request) {
                Err(ClientError::Fault(WireFault::QueueFull { .. }))
                    if sheds < policy.max_retries =>
                {
                    std::thread::sleep(policy.backoff(sheds));
                    sheds += 1;
                }
                Err(ClientError::Io(_)) if policy.reconnect && !reconnected => {
                    reconnected = true;
                    self.reconnect()?;
                }
                outcome => return outcome,
            }
        }
    }
}

/// Lifetime counters of a [`ShardClient`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardClientStats {
    /// Requests answered successfully.
    pub requests_ok: u64,
    /// `NotOwner` redirects followed (the local placement disagreed with
    /// the server's — usually a liveness view still converging).
    pub redirects: u64,
    /// Peers marked dead after a connect or I/O failure; each one reroutes
    /// the key onto the surviving peers.
    pub failovers: u64,
}

/// Owner attempts (redirects and failovers included) before
/// [`ShardClient::estimate`] surfaces its last error.
const ROUTING_ATTEMPTS: u32 = 16;

/// Shard-aware routing over a replica set of `qcfe-served` processes.
///
/// Each request's serving key `(benchmark, estimator, fingerprint)` is
/// rendezvous-placed on the client's own view of the peer set — the same
/// [`placement the servers use`](qcfe_serve::replica::owner_among), so in
/// the steady state the first hop is the owner. Two disagreements are
/// handled in a bounded loop (never a hang):
///
/// * the server answers [`WireFault::NotOwner`] — the client's liveness
///   view lags the servers'; the redirect hint names the owner and the
///   next attempt goes there directly;
/// * the connection fails — the peer is marked dead in the client's view,
///   rerouting the key onto the survivors (who absorb the dead peer's
///   shards from shipped state). A short pause between sweeps rides out
///   the window where the surviving servers' own heartbeats still think
///   the dead peer owns the key.
///
/// Any other fault is permanent for the request and surfaces as
/// [`ClientError::Fault`]. Per-connection read timeouts bound every
/// blocking wait, so a kill-mid-load run completes or fails typed.
pub struct ShardClient {
    replicas: Arc<ReplicaSet>,
    conns: Vec<Option<QcfeClient>>,
    attempt_backoff: Duration,
    read_timeout: Option<Duration>,
    stats: ShardClientStats,
}

impl ShardClient {
    /// A router over `replicas` (usually a [`ReplicaSet::client_view`] of
    /// the peers' TCP addresses). The default per-connection
    /// [`RetryPolicy`] handles shed backoff; routing retries are bounded
    /// by 16 attempts, 100ms apart, with 5s read timeouts.
    pub fn new(replicas: Arc<ReplicaSet>) -> Self {
        let conns = (0..replicas.len()).map(|_| None).collect();
        ShardClient {
            replicas,
            conns,
            attempt_backoff: Duration::from_millis(100),
            read_timeout: Some(Duration::from_secs(5)),
            stats: ShardClientStats::default(),
        }
    }

    /// Pause between routing attempts (rides out the servers' heartbeat
    /// convergence window after a peer death).
    pub fn attempt_backoff(mut self, backoff: Duration) -> Self {
        self.attempt_backoff = backoff;
        self
    }

    /// Per-connection read timeout (`None` blocks indefinitely — not
    /// recommended when peers can die mid-load).
    pub fn read_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.read_timeout = timeout;
        self
    }

    /// The client's (shared) view of the replica set.
    pub fn replicas(&self) -> &Arc<ReplicaSet> {
        &self.replicas
    }

    /// Routing counters so far.
    pub fn stats(&self) -> ShardClientStats {
        self.stats
    }

    /// Estimate one plan through whichever peer owns its serving key,
    /// following redirects and failing over past dead peers. Returns the
    /// final error once 16 routing attempts are spent.
    pub fn estimate(&mut self, request: &EstimateRequest) -> Result<EstimateResponse, ClientError> {
        let key = ModelKey::new(
            request.benchmark,
            request.options.estimator,
            request.environment.fingerprint(),
        );
        // A redirect names the next hop explicitly; otherwise each attempt
        // re-places the key on the current liveness view.
        let mut redirect: Option<usize> = None;
        let mut last_error: Option<ClientError> = None;
        for attempt in 0..ROUTING_ATTEMPTS {
            if attempt > 0 {
                std::thread::sleep(self.attempt_backoff);
            }
            let target = redirect
                .take()
                .unwrap_or_else(|| self.replicas.owner_index(&key));
            let conn = match self.connection(target) {
                Ok(conn) => conn,
                Err(error) => {
                    self.fail_peer(target);
                    last_error = Some(error);
                    continue;
                }
            };
            match conn.estimate_with_retry(request, RetryPolicy::default()) {
                Ok(response) => {
                    self.replicas.mark_alive(target);
                    self.stats.requests_ok += 1;
                    return Ok(response);
                }
                Err(ClientError::Fault(WireFault::NotOwner { owner })) => {
                    // The server is healthy, just not the owner under its
                    // own (fresher or staler) liveness view. Follow the
                    // hint when it names a known peer; otherwise re-place.
                    self.replicas.mark_alive(target);
                    self.stats.redirects += 1;
                    redirect = self.replicas.index_of(&owner);
                    last_error = Some(ClientError::Fault(WireFault::NotOwner { owner }));
                }
                Err(error @ (ClientError::Io(_) | ClientError::Wire(_))) => {
                    self.fail_peer(target);
                    last_error = Some(error);
                }
                Err(error) => return Err(error),
            }
        }
        Err(last_error.unwrap_or(ClientError::UnexpectedFrame))
    }

    /// The cached connection to a peer, (re)connecting as needed.
    fn connection(&mut self, peer: usize) -> Result<&mut QcfeClient, ClientError> {
        if self.conns[peer].is_none() {
            let mut client = QcfeClient::connect_tcp(self.replicas.peers()[peer].as_str())?;
            client.set_read_timeout(self.read_timeout)?;
            self.conns[peer] = Some(client);
        }
        Ok(self.conns[peer].as_mut().expect("connection just cached"))
    }

    fn fail_peer(&mut self, peer: usize) {
        self.conns[peer] = None;
        self.replicas.mark_dead(peer);
        self.stats.failovers += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_then_saturates_at_max() {
        let policy = RetryPolicy {
            max_retries: u32::MAX,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(500),
            reconnect: false,
        };
        assert_eq!(policy.backoff(0), Duration::from_millis(10));
        assert_eq!(policy.backoff(1), Duration::from_millis(20));
        assert_eq!(policy.backoff(2), Duration::from_millis(40));
        assert_eq!(policy.backoff(5), Duration::from_millis(320));
        // 10ms << 6 = 640ms clamps.
        assert_eq!(policy.backoff(6), Duration::from_millis(500));
        assert_eq!(policy.backoff(63), Duration::from_millis(500));
    }

    #[test]
    fn backoff_never_panics_or_regresses_at_high_retry_counts() {
        // Shift counts past the 32-, 64- and 128-bit widths, with bases
        // from 0 through seconds: always monotone, always ≤ max.
        for base in [
            Duration::ZERO,
            Duration::from_nanos(1),
            Duration::from_micros(3),
            Duration::from_millis(10),
            Duration::from_secs(2),
        ] {
            let policy = RetryPolicy {
                max_retries: u32::MAX,
                base_backoff: base,
                max_backoff: Duration::from_secs(30),
                reconnect: false,
            };
            let mut last = Duration::ZERO;
            for retry in [0, 1, 31, 32, 33, 63, 64, 65, 127, 128, 129, 1_000, u32::MAX] {
                let b = policy.backoff(retry);
                assert!(b <= policy.max_backoff, "retry {retry} base {base:?}");
                assert!(
                    b >= last,
                    "backoff regressed at retry {retry} base {base:?}"
                );
                last = b;
            }
            if base > Duration::ZERO {
                assert_eq!(
                    policy.backoff(u32::MAX),
                    policy.max_backoff,
                    "a nonzero base must reach the cap, base {base:?}"
                );
            } else {
                assert_eq!(policy.backoff(u32::MAX), Duration::ZERO);
            }
        }

        // Regression: a sub-microsecond base with a large cap used to
        // clamp the factor at 2^32 and stall far below max_backoff.
        let tiny = RetryPolicy {
            max_retries: u32::MAX,
            base_backoff: Duration::from_nanos(1),
            max_backoff: Duration::from_secs(60),
            reconnect: false,
        };
        assert_eq!(tiny.backoff(40), tiny.max_backoff);
    }
}
