//! Single-threaded reactor serving `QCFP` over TCP and Unix-domain
//! sockets.
//!
//! One thread owns every connection. Sockets are nonblocking and
//! level-polled through [`crate::sys::Poller`]; an in-flight estimate
//! costs one map entry — not a parked thread — and thousands can be
//! outstanding at once.
//!
//! ## One hand-off per turn
//!
//! Every hop between the socket and the shards works per batch:
//!
//! * **In.** A readable event reads the socket dry, decodes every complete
//!   frame straight from the read buffer, and hands all the request frames
//!   to the gateway in one [`QcfeGateway::submit_batch`] call — once the
//!   buffer is used up, and before any non-request frame is handled, so
//!   frame order is kept. The gateway groups them by shard, and each shard
//!   admits its share under one queue lock with one worker wake-up per
//!   micro-batch.
//! * **Completions.** Each request carries a completion hook that pushes
//!   its sequence number onto a queue and kicks the reactor's
//!   [`crate::sys::Waker`]. A shard worker fires its micro-batch's hooks
//!   only after every reply is sent, and the waker coalesces, so a batch
//!   wakes the reactor with one write. The reactor reaps each ticket with
//!   the non-blocking [`PendingResponse::try_wait`].
//! * **Out.** Replies are only appended to their connection's write buffer;
//!   once per turn, after completions and sweeps, the reactor flushes every
//!   connection with new bytes, so each connection's replies leave in one
//!   socket write per turn. (A protocol error flushes and closes at
//!   once.)
//!
//! ## Backpressure
//!
//! The reactor never blocks on admission: the gateway's batch call sheds
//! load. When a shard queue is full, the client's own `shed_load` flag
//! picks the policy — `true` gets a typed
//! [`WireFault::QueueFull`](crate::wire::WireFault) response immediately;
//! `false` parks the request, whole, at the back of its connection's FIFO
//! of parked requests and *pauses reading from that connection* (the
//! paper's closed-loop client simply stops being read from, and TCP flow
//! control propagates the stall to it). After each turn's completions
//! free queue capacity, the FIFO is resubmitted in order as one batch;
//! reading resumes once it is empty.
//!
//! ## Malformed input
//!
//! A frame whose *envelope* is broken — bad magic, unknown version,
//! oversized length, checksum mismatch — leaves the stream unparseable,
//! so the reactor ships a best-effort error response (request id 0) and
//! closes the connection. A frame whose envelope verified but whose
//! *payload* is invalid (unknown tag, out-of-range deadline, …) is
//! answered with a typed `BadRequest` carrying the authentic request id,
//! and the connection lives on.

use crate::sys::{Event, Interest, Poller, Waker, WakerHandle};
use crate::wire::{
    self, Frame, WireError, WireEstimate, WireFault, WireManifestReply, WireResponse, WireShipAck,
    MAX_STRING_LEN,
};
use qcfe_db::EnvFingerprint;
use qcfe_serve::{
    CompletionNotify, EstimateRequest, ModelKey, PendingResponse, QcfeError, QcfeGateway, Rejected,
    ReplicaSet, ServiceError,
};
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Token of the reactor's waker registration.
const WAKER_TOKEN: usize = usize::MAX;
/// First token handed to connections; listeners use `0..CONN_BASE`.
const CONN_BASE: usize = 64;
/// Read chunk size per `read` call.
const READ_CHUNK: usize = 16 * 1024;
/// Poll timeout when nothing sooner (deadline/idle sweep) is due.
const TICK: Duration = Duration::from_millis(100);
/// How long a graceful shutdown waits for in-flight requests to complete
/// and responses to flush before forcing the exit.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(10);

/// Counters the reactor returns from [`ServerHandle::join`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections accepted over the server's lifetime.
    pub connections_accepted: u64,
    /// Connections refused because the connection cap was reached.
    pub connections_refused: u64,
    /// Successful estimates shipped.
    pub responses_ok: u64,
    /// Typed fault responses shipped (including `BadRequest`).
    pub responses_fault: u64,
    /// Connections dropped for an unparseable stream (bad envelope).
    pub protocol_errors: u64,
    /// Peer-shipped snapshots/models validated and absorbed into the
    /// gateway (each answered with an accepting ship-ack).
    pub ships_applied: u64,
    /// Peer-shipped payloads that failed codec validation or the local
    /// store write (answered with a rejecting ship-ack; nothing applied).
    pub ships_rejected: u64,
    /// Requests refused with [`WireFault::NotOwner`] because rendezvous
    /// placement assigns their serving key to another peer.
    pub not_owner_redirects: u64,
    /// Store manifests served to interrogating peers (one per revival
    /// catch-up handshake this process answered).
    pub manifests_served: u64,
}

/// Configures and starts a [`ServerHandle`]. Build one via
/// [`NetServerBuilder::new`], add at least one listener, then
/// [`NetServerBuilder::start`].
pub struct NetServerBuilder {
    gateway: Arc<QcfeGateway>,
    tcp: Vec<String>,
    uds: Vec<PathBuf>,
    max_connections: usize,
    idle_timeout: Duration,
    replicas: Option<Arc<ReplicaSet>>,
}

impl NetServerBuilder {
    /// A builder serving the given gateway.
    pub fn new(gateway: Arc<QcfeGateway>) -> Self {
        NetServerBuilder {
            gateway,
            tcp: Vec::new(),
            uds: Vec::new(),
            max_connections: 1024,
            idle_timeout: Duration::from_secs(300),
            replicas: None,
        }
    }

    /// Add a TCP listener (e.g. `"127.0.0.1:0"` for an ephemeral port —
    /// read the bound address back from [`ServerHandle::tcp_addrs`]).
    pub fn tcp(mut self, addr: impl Into<String>) -> Self {
        self.tcp.push(addr.into());
        self
    }

    /// Add a Unix-domain listener at `path`. A stale socket file from a
    /// previous run is removed first.
    pub fn uds(mut self, path: impl Into<PathBuf>) -> Self {
        self.uds.push(path.into());
        self
    }

    /// Cap concurrent connections; excess accepts are closed immediately
    /// (default 1024).
    pub fn max_connections(mut self, max: usize) -> Self {
        self.max_connections = max.max(1);
        self
    }

    /// Close connections with no traffic and no in-flight requests after
    /// this long (default 5 minutes).
    pub fn idle_timeout(mut self, timeout: Duration) -> Self {
        self.idle_timeout = timeout;
        self
    }

    /// Serve as one member of a replica set: requests whose serving key
    /// rendezvous-places on another *alive* peer are refused with the
    /// typed [`WireFault::NotOwner`] carrying the owner's address (the
    /// client's redirect hint), and peer-shipped snapshot/model frames
    /// are validated, absorbed into the gateway and acked. Without this,
    /// the server owns every key and ship frames are protocol errors.
    pub fn replica(mut self, replicas: Arc<ReplicaSet>) -> Self {
        self.replicas = Some(replicas);
        self
    }

    /// Bind every listener, then spawn the reactor thread. Binding happens
    /// on the caller's thread so ephemeral ports are resolved — and bind
    /// failures surface — before this returns.
    pub fn start(self) -> io::Result<ServerHandle> {
        // Listener tokens occupy `0..CONN_BASE`; one more would collide
        // with connection slot 0 and misdispatch its readiness events.
        if self.tcp.len() + self.uds.len() > CONN_BASE {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("at most {CONN_BASE} listeners are supported"),
            ));
        }
        let mut listeners = Vec::new();
        let mut tcp_addrs = Vec::new();
        for addr in &self.tcp {
            let listener = TcpListener::bind(addr.as_str())?;
            listener.set_nonblocking(true)?;
            tcp_addrs.push(listener.local_addr()?);
            listeners.push(Listener::Tcp(listener));
        }
        for path in &self.uds {
            if path.exists() {
                std::fs::remove_file(path)?;
            }
            let listener = UnixListener::bind(path)?;
            listener.set_nonblocking(true)?;
            listeners.push(Listener::Uds(listener));
        }
        if listeners.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "server needs at least one listener",
            ));
        }

        let mut poller = Poller::new()?;
        let waker = Waker::new()?;
        poller.register(waker.fd(), WAKER_TOKEN, Interest::READ)?;
        for (i, listener) in listeners.iter().enumerate() {
            poller.register(listener.fd(), i, Interest::READ)?;
        }
        let wake_handle = waker.handle();
        let shutdown = Arc::new(AtomicBool::new(false));

        let reactor = Reactor {
            gateway: self.gateway,
            poller,
            completions: Arc::new(Completions {
                seqs: Mutex::new(Vec::new()),
                waker: waker.handle(),
            }),
            waker,
            listeners,
            conns: Vec::new(),
            pending: HashMap::new(),
            to_flush: Vec::new(),
            next_seq: 0,
            shutdown: shutdown.clone(),
            max_connections: self.max_connections,
            idle_timeout: self.idle_timeout,
            replicas: self.replicas,
            stats: ServerStats::default(),
        };
        let thread = std::thread::Builder::new()
            .name("qcfe-net-reactor".into())
            .spawn(move || reactor.run())?;
        Ok(ServerHandle {
            shutdown,
            waker: wake_handle,
            thread: Some(thread),
            tcp_addrs,
            uds_paths: self.uds,
        })
    }
}

/// A running reactor. Dropping the handle shuts the server down
/// gracefully and joins the reactor thread.
pub struct ServerHandle {
    shutdown: Arc<AtomicBool>,
    waker: WakerHandle,
    thread: Option<std::thread::JoinHandle<io::Result<ServerStats>>>,
    tcp_addrs: Vec<SocketAddr>,
    uds_paths: Vec<PathBuf>,
}

impl ServerHandle {
    /// Bound TCP addresses, in the order the builder's `tcp` calls added
    /// them (ephemeral ports resolved).
    pub fn tcp_addrs(&self) -> &[SocketAddr] {
        &self.tcp_addrs
    }

    /// Unix-domain socket paths being listened on.
    pub fn uds_paths(&self) -> &[PathBuf] {
        &self.uds_paths
    }

    /// Begin a graceful shutdown: stop accepting, let in-flight requests
    /// complete (bounded by the drain timeout), flush and close. Safe to
    /// call more than once.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.waker.wake();
    }

    /// Shut down (if not already requested) and wait for the reactor to
    /// exit, returning its lifetime counters.
    pub fn join(mut self) -> io::Result<ServerStats> {
        self.shutdown();
        let result = match self.thread.take() {
            Some(thread) => thread
                .join()
                .unwrap_or_else(|_| Err(io::Error::other("reactor thread panicked"))),
            None => Ok(ServerStats::default()),
        };
        self.cleanup_uds();
        result
    }

    fn cleanup_uds(&self) {
        for path in &self.uds_paths {
            let _ = std::fs::remove_file(path);
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
        self.cleanup_uds();
    }
}

enum Listener {
    Tcp(TcpListener),
    Uds(UnixListener),
}

impl Listener {
    fn fd(&self) -> RawFd {
        match self {
            Listener::Tcp(l) => l.as_raw_fd(),
            Listener::Uds(l) => l.as_raw_fd(),
        }
    }

    fn accept(&self) -> io::Result<Stream> {
        match self {
            Listener::Tcp(l) => {
                let (stream, _) = l.accept()?;
                stream.set_nonblocking(true)?;
                let _ = stream.set_nodelay(true);
                Ok(Stream::Tcp(stream))
            }
            Listener::Uds(l) => {
                let (stream, _) = l.accept()?;
                stream.set_nonblocking(true)?;
                Ok(Stream::Uds(stream))
            }
        }
    }
}

enum Stream {
    Tcp(TcpStream),
    Uds(UnixStream),
}

impl Stream {
    fn fd(&self) -> RawFd {
        match self {
            Stream::Tcp(s) => s.as_raw_fd(),
            Stream::Uds(s) => s.as_raw_fd(),
        }
    }

    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            Stream::Uds(s) => s.read(buf),
        }
    }

    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            Stream::Uds(s) => s.write(buf),
        }
    }
}

struct Conn {
    stream: Stream,
    /// Generation of this slot; stamps in-flight requests so a completion
    /// for a closed connection cannot reach the slot's next tenant.
    generation: u64,
    read_buf: Vec<u8>,
    write_buf: Vec<u8>,
    write_pos: usize,
    /// Queued for this turn's flush (see [`Reactor::flush_turn`]); the
    /// connection does not need write interest until that flush blocks.
    flush_queued: bool,
    last_activity: Instant,
    in_flight: usize,
    /// Requests waiting for shard queue capacity, in arrival order, with
    /// their correlation ids. While any is parked, the connection is not
    /// read from (frames behind them must not overtake them).
    parked: VecDeque<(u64, EstimateRequest)>,
    /// Peer half-closed (or shutdown draining): stop reading.
    read_closed: bool,
    /// Close as soon as the write buffer drains.
    close_after_flush: bool,
    interest: Interest,
}

impl Conn {
    fn wants_read(&self, shutting_down: bool) -> bool {
        !self.read_closed && self.parked.is_empty() && !self.close_after_flush && !shutting_down
    }

    fn has_backlog(&self) -> bool {
        self.write_pos < self.write_buf.len()
    }
}

struct Pending {
    slot: usize,
    generation: u64,
    request_id: u64,
    response: PendingResponse,
    submitted_at: Instant,
    deadline: Option<Duration>,
    expires: Option<Instant>,
}

/// Finished submissions waiting to be reaped: the completion hooks (on the
/// shard workers) push their sequence numbers here, then wake the reactor.
struct Completions {
    seqs: Mutex<Vec<u64>>,
    waker: WakerHandle,
}

impl Completions {
    /// Queue one finished sequence number, then wake the reactor — in that
    /// order, which is what the waker's coalescing relies on.
    fn push(&self, seq: u64) {
        self.seqs.lock().expect("completion queue").push(seq);
        self.waker.wake();
    }

    fn take(&self) -> Vec<u64> {
        std::mem::take(&mut *self.seqs.lock().expect("completion queue"))
    }
}

struct Reactor {
    gateway: Arc<QcfeGateway>,
    poller: Poller,
    waker: Waker,
    listeners: Vec<Listener>,
    conns: Vec<Option<Conn>>,
    pending: HashMap<u64, Pending>,
    completions: Arc<Completions>,
    /// Connections with replies appended this turn, flushed at its end.
    to_flush: Vec<usize>,
    next_seq: u64,
    shutdown: Arc<AtomicBool>,
    max_connections: usize,
    idle_timeout: Duration,
    replicas: Option<Arc<ReplicaSet>>,
    stats: ServerStats,
}

impl Reactor {
    fn run(mut self) -> io::Result<ServerStats> {
        let mut events: Vec<Event> = Vec::new();
        let mut accepting = true;
        let mut drain_until: Option<Instant> = None;

        loop {
            let shutting_down = self.shutdown.load(Ordering::SeqCst);
            if shutting_down {
                if accepting {
                    // Stop accepting: deregister and drop the listeners so
                    // new connects fail fast instead of queueing.
                    for listener in self.listeners.drain(..) {
                        let _ = self.poller.deregister(listener.fd());
                    }
                    accepting = false;
                    drain_until = Some(Instant::now() + DRAIN_TIMEOUT);
                    for slot in 0..self.conns.len() {
                        if self.conns[slot].is_some() {
                            self.update_interest(slot, true);
                        }
                    }
                }
                let drained = self.pending.is_empty()
                    && self
                        .conns
                        .iter()
                        .flatten()
                        .all(|c| !c.has_backlog() && c.parked.is_empty());
                let expired = drain_until.is_some_and(|t| Instant::now() >= t);
                if drained || expired {
                    break;
                }
            }

            let timeout = self.poll_timeout(shutting_down);
            self.poller.wait(&mut events, Some(timeout))?;

            for event in events.drain(..) {
                if event.token == WAKER_TOKEN {
                    // The completions it announces are reaped below.
                    self.waker.drain();
                } else if event.token < CONN_BASE {
                    if accepting {
                        self.accept_all(event.token);
                    }
                } else {
                    let slot = event.token - CONN_BASE;
                    if event.writable || event.error {
                        self.flush(slot, shutting_down);
                    }
                    if event.readable {
                        self.readable(slot, shutting_down);
                    }
                }
            }

            self.drain_completions(shutting_down);
            self.sweep_deadlines();
            if !shutting_down {
                self.sweep_idle();
            }
            self.flush_turn(shutting_down);
        }
        Ok(self.stats)
    }

    /// Sleep until the next thing that needs the reactor: the nearest
    /// in-flight deadline, else the housekeeping tick.
    fn poll_timeout(&self, shutting_down: bool) -> Duration {
        let mut timeout = TICK;
        let now = Instant::now();
        for pending in self.pending.values() {
            if let Some(expires) = pending.expires {
                timeout = timeout.min(expires.saturating_duration_since(now));
            }
        }
        if shutting_down {
            timeout = timeout.min(Duration::from_millis(10));
        }
        timeout
    }

    fn accept_all(&mut self, listener: usize) {
        loop {
            match self.listeners[listener].accept() {
                Ok(stream) => {
                    let active = self.conns.iter().flatten().count();
                    if active >= self.max_connections {
                        self.stats.connections_refused += 1;
                        continue; // drop the socket: connection refused
                    }
                    self.stats.connections_accepted += 1;
                    let slot = self
                        .conns
                        .iter()
                        .position(Option::is_none)
                        .unwrap_or_else(|| {
                            self.conns.push(None);
                            self.conns.len() - 1
                        });
                    let generation = self.next_seq; // any unique stamp
                    self.next_seq += 1;
                    let fd = stream.fd();
                    let conn = Conn {
                        stream,
                        generation,
                        read_buf: Vec::new(),
                        write_buf: Vec::new(),
                        write_pos: 0,
                        flush_queued: false,
                        last_activity: Instant::now(),
                        in_flight: 0,
                        parked: VecDeque::new(),
                        read_closed: false,
                        close_after_flush: false,
                        interest: Interest::READ,
                    };
                    if self
                        .poller
                        .register(fd, CONN_BASE + slot, Interest::READ)
                        .is_err()
                    {
                        continue; // conn dropped; slot stays free
                    }
                    self.conns[slot] = Some(conn);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    fn conn(&self, slot: usize) -> Option<&Conn> {
        self.conns.get(slot).and_then(Option::as_ref)
    }

    fn conn_mut(&mut self, slot: usize) -> Option<&mut Conn> {
        self.conns.get_mut(slot).and_then(Option::as_mut)
    }

    fn readable(&mut self, slot: usize, shutting_down: bool) {
        let Some(conn) = self.conn_mut(slot) else {
            return;
        };
        if !conn.wants_read(shutting_down) {
            return;
        }
        conn.last_activity = Instant::now();
        let mut chunk = [0u8; READ_CHUNK];
        loop {
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    conn.read_closed = true;
                    break;
                }
                Ok(n) => conn.read_buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close(slot);
                    return;
                }
            }
        }
        self.parse_frames(slot, shutting_down);
        let Some(conn) = self.conn(slot) else {
            return;
        };
        if conn.read_closed && conn.in_flight == 0 && !conn.has_backlog() {
            self.close(slot);
        } else {
            self.update_interest(slot, shutting_down);
        }
    }

    /// Consume every complete frame in the connection's read buffer,
    /// decoding each in place. Request frames are collected and submitted
    /// in one batch when the buffer is used up — or before a non-request
    /// frame is handled, so frame order is kept. Stops early when requests
    /// are parked on backpressure (the rest stays buffered until the parked
    /// FIFO drains) or the stream desyncs.
    fn parse_frames(&mut self, slot: usize, shutting_down: bool) {
        let Some(conn) = self.conn_mut(slot) else {
            return;
        };
        if !conn.parked.is_empty() || conn.close_after_flush {
            return;
        }
        let generation = conn.generation;
        // Take the buffer so `self` is free for the handlers below.
        let mut buf = std::mem::take(&mut conn.read_buf);
        let mut offset = 0;
        let mut requests: Vec<(u64, EstimateRequest)> = Vec::new();
        loop {
            let len = match wire::frame_length(&buf[offset..]) {
                Ok(None) => break,
                Ok(Some(len)) => len,
                Err(error) => {
                    // The stream cannot be re-synchronised: answer with a
                    // best-effort error frame and close.
                    self.submit_batch(slot, std::mem::take(&mut requests), shutting_down);
                    self.stats.protocol_errors += 1;
                    self.protocol_error(slot, 0, &error);
                    offset = buf.len();
                    break;
                }
            };
            let frame = &buf[offset..offset + len];
            match wire::decode_frame(frame) {
                Ok(Frame::Request(request)) => {
                    offset += len;
                    requests.push((request.request_id, request.into_estimate_request()));
                }
                decoded => {
                    self.submit_batch(slot, std::mem::take(&mut requests), shutting_down);
                    let blocked = self
                        .conn(slot)
                        .is_none_or(|c| !c.parked.is_empty() || c.close_after_flush);
                    if blocked {
                        break;
                    }
                    offset += len;
                    self.handle_frame(slot, frame, decoded, shutting_down);
                    if self.conn(slot).is_none_or(|c| c.close_after_flush) {
                        break;
                    }
                }
            }
        }
        self.submit_batch(slot, requests, shutting_down);
        if let Some(conn) = self.conn_mut(slot) {
            if conn.generation == generation {
                buf.drain(..offset);
                conn.read_buf = buf;
            }
        }
    }

    /// Act on one decoded frame; `frame` is its raw bytes, read only to
    /// recover the request id of a payload that failed to decode.
    fn handle_frame(
        &mut self,
        slot: usize,
        frame: &[u8],
        decoded: Result<Frame, WireError>,
        shutting_down: bool,
    ) {
        match decoded {
            Ok(Frame::Request(request)) => {
                let request = (request.request_id, request.into_estimate_request());
                self.submit_batch(slot, vec![request], shutting_down);
            }
            Ok(Frame::Response(response)) => {
                // Clients must not send response frames; the stream is
                // syntactically fine but semantically broken — reject and
                // close.
                self.stats.protocol_errors += 1;
                self.protocol_error(
                    slot,
                    response.request_id,
                    &WireError::UnknownFrameKind(wire::FRAME_RESPONSE),
                );
            }
            Ok(Frame::ShipSnapshot(ship)) => {
                if self.reject_ship_when_solo(slot, ship.request_id, wire::FRAME_SHIP_SNAPSHOT) {
                    return;
                }
                let outcome = self.gateway.apply_shipped_snapshot(
                    ship.benchmark,
                    EnvFingerprint(ship.fingerprint),
                    &ship.snapshot,
                    &ship.knobs,
                );
                self.ship_ack(slot, ship.request_id, outcome);
            }
            Ok(Frame::ShipModel(ship)) => {
                if self.reject_ship_when_solo(slot, ship.request_id, wire::FRAME_SHIP_MODEL) {
                    return;
                }
                let key = ModelKey::new(
                    ship.benchmark,
                    ship.estimator,
                    EnvFingerprint(ship.fingerprint),
                );
                let outcome = self.gateway.apply_shipped_model(key, &ship.weights);
                self.ship_ack(slot, ship.request_id, outcome);
            }
            Ok(Frame::ShipAck(ack)) => {
                // Only *senders* of ship frames ever receive acks; an
                // inbound one means the peer has its roles confused.
                self.stats.protocol_errors += 1;
                self.protocol_error(
                    slot,
                    ack.request_id,
                    &WireError::UnknownFrameKind(wire::FRAME_SHIP_ACK),
                );
            }
            Ok(Frame::ManifestRequest(request)) => {
                // A reviving-peer interrogation: answer with this store's
                // full manifest so the surviving peer can diff and
                // re-ship. Solo servers treat it as role confusion, like
                // a ship frame.
                if self.reject_ship_when_solo(
                    slot,
                    request.request_id,
                    wire::FRAME_MANIFEST_REQUEST,
                ) {
                    return;
                }
                match self.gateway.store().manifest() {
                    Ok(entries) => {
                        let reply = WireManifestReply {
                            request_id: request.request_id,
                            entries: entries.into_iter().map(Into::into).collect(),
                        };
                        let Ok(bytes) = wire::encode_manifest_reply(&reply) else {
                            // A store beyond the wire caps cannot answer
                            // the handshake; close and let the peer retry.
                            self.close(slot);
                            return;
                        };
                        self.stats.manifests_served += 1;
                        self.enqueue_bytes(slot, &bytes);
                    }
                    Err(error) => {
                        self.send_fault(
                            slot,
                            request.request_id,
                            WireFault::Store {
                                message: clip(&error.to_string()),
                            },
                        );
                    }
                }
            }
            Ok(Frame::ManifestReply(reply)) => {
                // Only interrogating *requesters* ever receive manifest
                // replies; an inbound one is role confusion.
                self.stats.protocol_errors += 1;
                self.protocol_error(
                    slot,
                    reply.request_id,
                    &WireError::UnknownFrameKind(wire::FRAME_MANIFEST_REPLY),
                );
            }
            Err(error) => match wire::peek_request_id(frame) {
                // Envelope verified, payload invalid: typed rejection with
                // the authentic id, connection survives.
                Some(request_id) => {
                    self.send_fault(
                        slot,
                        request_id,
                        WireFault::BadRequest {
                            message: clip(&error.to_string()),
                        },
                    );
                }
                // Checksum failure inside a well-delimited frame.
                None => {
                    self.stats.protocol_errors += 1;
                    self.protocol_error(slot, 0, &error);
                }
            },
        }
    }

    /// Hand a connection's requests to the gateway in one batch call, in
    /// order. Each gets a completion hook; an admitted one becomes a
    /// pending entry, a non-shedding one refused for queue capacity is
    /// parked (whole, as the gateway handed it back) at the back of the
    /// connection's FIFO, and every other refusal is answered typed. The
    /// replica-placement check and the shutdown answer stay per request.
    fn submit_batch(
        &mut self,
        slot: usize,
        requests: Vec<(u64, EstimateRequest)>,
        shutting_down: bool,
    ) {
        if requests.is_empty() {
            return;
        }
        let Some(generation) = self.conn(slot).map(|c| c.generation) else {
            return;
        };
        let mut tickets: Vec<(u64, u64, Option<Duration>)> = Vec::with_capacity(requests.len());
        let mut batch: Vec<(EstimateRequest, Option<CompletionNotify>)> =
            Vec::with_capacity(requests.len());
        for (request_id, request) in requests {
            if shutting_down {
                self.send_fault(slot, request_id, WireFault::ServiceClosed);
                continue;
            }
            // Replicated serving: a key placed on another alive peer is
            // refused with a redirect hint instead of served here — every
            // replica answers the same way, so clients converge on one
            // owner per key and shipped state stays single-writer.
            if let Some(replicas) = &self.replicas {
                let key = ModelKey::new(
                    request.benchmark,
                    request.options.estimator,
                    request.environment.fingerprint(),
                );
                if !replicas.owns(&key) {
                    self.stats.not_owner_redirects += 1;
                    let owner = replicas.owner_addr(&key).to_string();
                    self.send_fault(slot, request_id, WireFault::NotOwner { owner });
                    continue;
                }
            }
            let seq = self.next_seq;
            self.next_seq += 1;
            let completions = Arc::clone(&self.completions);
            let notify: CompletionNotify = Arc::new(move || completions.push(seq));
            tickets.push((request_id, seq, request.deadline));
            batch.push((request, Some(notify)));
        }
        if batch.is_empty() {
            return;
        }
        let outcomes = self.gateway.submit_batch(batch);
        let submitted_at = Instant::now();
        for ((request_id, seq, deadline), outcome) in tickets.into_iter().zip(outcomes) {
            match outcome {
                Ok(response) => {
                    self.pending.insert(
                        seq,
                        Pending {
                            slot,
                            generation,
                            request_id,
                            response,
                            submitted_at,
                            deadline,
                            expires: deadline.map(|d| submitted_at + d),
                        },
                    );
                    if let Some(conn) = self.conn_mut(slot) {
                        conn.in_flight += 1;
                    }
                }
                Err(rejected) => match *rejected {
                    Rejected {
                        error: QcfeError::Service(ServiceError::QueueFull { .. }),
                        request,
                    } if !request.options.shed_load => {
                        // Park it and stop reading this connection until a
                        // completion frees capacity.
                        if let Some(conn) = self.conn_mut(slot) {
                            conn.parked.push_back((request_id, request));
                        }
                    }
                    Rejected { error, .. } => {
                        self.send_fault(slot, request_id, WireFault::from(&error));
                    }
                },
            }
        }
        self.update_interest(slot, shutting_down);
    }

    /// Reap every completed submission the workers have signalled, then
    /// retry parked requests against the freed queue capacity.
    fn drain_completions(&mut self, shutting_down: bool) {
        loop {
            let seqs = self.completions.take();
            if seqs.is_empty() {
                break;
            }
            for seq in seqs {
                let Some(pending) = self.pending.remove(&seq) else {
                    continue; // already answered by the deadline sweep
                };
                self.finish(pending);
            }
        }
        self.retry_parked(shutting_down);
    }

    /// Answer every in-flight request whose deadline has passed without a
    /// completion; the eventual completion finds nothing and is dropped.
    fn sweep_deadlines(&mut self) {
        let now = Instant::now();
        let expired: Vec<u64> = self
            .pending
            .iter()
            .filter(|(_, p)| p.expires.is_some_and(|t| now >= t))
            .map(|(seq, _)| *seq)
            .collect();
        for seq in expired {
            if let Some(pending) = self.pending.remove(&seq) {
                self.finish(pending);
            }
        }
    }

    /// Turn one reaped submission into a response frame on its connection
    /// (if that connection is still the same one that submitted it).
    fn finish(&mut self, pending: Pending) {
        let Pending {
            slot,
            generation,
            request_id,
            response,
            submitted_at,
            deadline,
            ..
        } = pending;
        let live = match self.conn_mut(slot) {
            Some(conn) if conn.generation == generation => {
                conn.in_flight = conn.in_flight.saturating_sub(1);
                true
            }
            _ => false,
        };
        let outcome = match response.try_wait() {
            Ok(Some(estimate)) => Ok(WireEstimate::from_response(&estimate)),
            // Reply not yet consumable: only the deadline sweep lands here,
            // reaping a request whose budget lapsed before the worker was
            // done (completion hooks fire strictly after the reply becomes
            // consumable). Answer with the actual deadline fault.
            Ok(None) => Err(WireFault::DeadlineExceeded {
                elapsed_us: submitted_at.elapsed().as_micros().min(u64::MAX as u128) as u64,
                deadline_us: deadline.map_or(0, |d| d.as_micros() as u64),
            }),
            Err(error) => Err(WireFault::from(&error)),
        };
        // The estimate was produced either way — drop it silently if the
        // submitting connection is gone.
        if !live {
            return;
        }
        match outcome {
            Ok(estimate) => {
                self.stats.responses_ok += 1;
                self.enqueue(
                    slot,
                    WireResponse {
                        request_id,
                        outcome: Ok(estimate),
                    },
                );
            }
            Err(fault) => self.send_fault(slot, request_id, fault),
        }
    }

    /// Resubmit each connection's parked FIFO, in order, as one batch now
    /// that completions may have freed shard queue capacity. Whatever is
    /// refused again is re-parked in the same order; once the FIFO is
    /// empty, buffered frames are parsed and reading resumes.
    fn retry_parked(&mut self, shutting_down: bool) {
        for slot in 0..self.conns.len() {
            let Some(conn) = self.conn_mut(slot) else {
                continue;
            };
            if conn.parked.is_empty() {
                continue;
            }
            let parked = Vec::from(std::mem::take(&mut conn.parked));
            self.submit_batch(slot, parked, shutting_down);
            if self.conn(slot).is_some_and(|c| c.parked.is_empty()) {
                self.parse_frames(slot, shutting_down);
                self.update_interest(slot, shutting_down);
            }
        }
    }

    fn sweep_idle(&mut self) {
        let now = Instant::now();
        let idle: Vec<usize> = self
            .conns
            .iter()
            .enumerate()
            .filter_map(|(slot, conn)| {
                let conn = conn.as_ref()?;
                let quiet = conn.in_flight == 0 && !conn.has_backlog();
                // A parked connection is not read from (its parked requests
                // must not be overtaken), so a peer that disconnects while
                // parked is invisible to the reactor. Bound the park: the
                // idle timeout doubles as the longest a request may wait
                // for shard queue capacity before the connection — and its
                // parked requests — is reclaimed.
                let sweepable = quiet || !conn.parked.is_empty();
                (sweepable && now.duration_since(conn.last_activity) > self.idle_timeout)
                    .then_some(slot)
            })
            .collect();
        for slot in idle {
            self.close(slot);
        }
    }

    /// Ship and manifest frames are only meaningful between replica-set
    /// members; a solo server treats them as a role confusion and closes,
    /// exactly like an inbound response frame, naming the frame's `kind`.
    /// Returns whether the frame was rejected.
    fn reject_ship_when_solo(&mut self, slot: usize, request_id: u64, kind: u8) -> bool {
        if self.replicas.is_some() {
            return false;
        }
        self.stats.protocol_errors += 1;
        self.protocol_error(slot, request_id, &WireError::UnknownFrameKind(kind));
        true
    }

    /// Answer a ship frame: accepted on `Ok`, else a rejection carrying
    /// the rendered reason. The connection survives either way — a peer
    /// with one corrupt artifact can still ship the rest.
    fn ship_ack(&mut self, slot: usize, request_id: u64, outcome: Result<(), QcfeError>) {
        let ack = match outcome {
            Ok(()) => {
                self.stats.ships_applied += 1;
                WireShipAck {
                    request_id,
                    accepted: true,
                    message: String::new(),
                }
            }
            Err(error) => {
                self.stats.ships_rejected += 1;
                WireShipAck {
                    request_id,
                    accepted: false,
                    message: clip(&error.to_string()),
                }
            }
        };
        let Ok(bytes) = wire::encode_ship_ack(&ack) else {
            self.close(slot);
            return;
        };
        self.enqueue_bytes(slot, &bytes);
    }

    fn send_fault(&mut self, slot: usize, request_id: u64, fault: WireFault) {
        self.stats.responses_fault += 1;
        self.enqueue(
            slot,
            WireResponse {
                request_id,
                outcome: Err(fault),
            },
        );
    }

    /// Best-effort error frame for an unparseable stream, then close once
    /// it flushes — flushed now, not at the end of the turn.
    fn protocol_error(&mut self, slot: usize, request_id: u64, error: &WireError) {
        self.send_fault(
            slot,
            request_id,
            WireFault::BadRequest {
                message: clip(&error.to_string()),
            },
        );
        if let Some(conn) = self.conn_mut(slot) {
            conn.close_after_flush = true;
        }
        self.flush(slot, false);
    }

    fn enqueue(&mut self, slot: usize, response: WireResponse) {
        let Ok(bytes) = wire::encode_response(&response) else {
            // Unencodable response (cannot happen with clipped messages):
            // nothing sane to send.
            self.close(slot);
            return;
        };
        self.enqueue_bytes(slot, &bytes);
    }

    /// Append a frame to the connection's write buffer; it leaves with
    /// everything else appended this turn in [`Reactor::flush_turn`].
    fn enqueue_bytes(&mut self, slot: usize, bytes: &[u8]) {
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        conn.write_buf.extend_from_slice(bytes);
        if !conn.flush_queued {
            conn.flush_queued = true;
            self.to_flush.push(slot);
        }
    }

    /// The once-per-turn flush: write out every connection that had
    /// replies appended this turn.
    fn flush_turn(&mut self, shutting_down: bool) {
        for slot in std::mem::take(&mut self.to_flush) {
            let Some(conn) = self.conn_mut(slot) else {
                continue; // closed since its bytes were appended
            };
            conn.flush_queued = false;
            self.flush(slot, shutting_down);
        }
    }

    fn flush(&mut self, slot: usize, shutting_down: bool) {
        let must_close = {
            let Some(conn) = self.conn_mut(slot) else {
                return;
            };
            let mut close = false;
            while conn.write_pos < conn.write_buf.len() {
                match conn.stream.write(&conn.write_buf[conn.write_pos..]) {
                    Ok(0) => {
                        close = true;
                        break;
                    }
                    Ok(n) => {
                        conn.write_pos += n;
                        conn.last_activity = Instant::now();
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        close = true;
                        break;
                    }
                }
            }
            if !close && conn.write_pos == conn.write_buf.len() {
                conn.write_buf.clear();
                conn.write_pos = 0;
                if conn.close_after_flush || (conn.read_closed && conn.in_flight == 0) {
                    close = true;
                }
            }
            close
        };
        if must_close {
            self.close(slot);
        } else {
            self.update_interest(slot, shutting_down);
        }
    }

    fn update_interest(&mut self, slot: usize, shutting_down: bool) {
        let Some(conn) = self.conn_mut(slot) else {
            return;
        };
        let desired = Interest {
            readable: conn.wants_read(shutting_down),
            // A connection queued for this turn's flush writes then; it
            // needs write interest only once a flush leaves a backlog.
            writable: conn.has_backlog() && !conn.flush_queued,
        };
        if desired != conn.interest {
            conn.interest = desired;
            let fd = conn.stream.fd();
            let _ = self.poller.rearm(fd, CONN_BASE + slot, desired);
        }
    }

    fn close(&mut self, slot: usize) {
        if let Some(conn) = self.conns.get_mut(slot).and_then(Option::take) {
            let _ = self.poller.deregister(conn.stream.fd());
            // In-flight submissions keep their Pending entries; `finish`
            // sees the generation mismatch and drops the responses.
        }
    }
}

/// Bound a fault message so it always fits the wire's string cap.
fn clip(message: &str) -> String {
    if message.len() <= MAX_STRING_LEN {
        return message.to_string();
    }
    let mut end = 1024;
    while !message.is_char_boundary(end) {
        end -= 1;
    }
    message[..end].to_string()
}
