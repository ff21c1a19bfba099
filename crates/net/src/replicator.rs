//! Fire-and-forget state shipping between replica-set peers.
//!
//! The gateway's replication hooks hand every published or refined
//! artifact to a [`qcfe_serve::ReplicationSink`]; this module provides the
//! network-backed sink. A [`Replicator`] owns one background worker thread
//! and a bounded queue:
//!
//! * [`Replicator::sink`] returns the queue's producer handle. `ship` is a
//!   `try_send` — when the queue is full the event is **dropped and
//!   counted** ([`ReplicatorStats::ships_dropped`]), never blocking the
//!   publishing thread. Dropping is safe because shipped state is a cache
//!   of the owner's disk: a peer that missed an event absorbs the next
//!   refit of the same key, and the owner's store remains authoritative.
//! * the worker drains events and pushes each one to **every other peer**
//!   as a `QCFP` ship frame ([`crate::wire::FRAME_SHIP_SNAPSHOT`] /
//!   [`crate::wire::FRAME_SHIP_MODEL`]), waiting for the peer's
//!   [`crate::wire::WireShipAck`] under a read timeout. Connections are
//!   cached and rebuilt on error.
//! * between events the worker heartbeats: every
//!   [`ReplicatorConfig::heartbeat`] it (re)connects to peers it has no
//!   healthy connection to. Probe outcomes drive the shared
//!   [`qcfe_serve::ReplicaSet`] liveness mask — a dead peer's keys
//!   rendezvous-place onto survivors, which is the whole failover story.
//!
//! Shipping alone has no history replay, so revival is anti-entropic
//! when the worker was started with a store ([`Replicator::with_store`]):
//! a heartbeat that finds a previously dead peer responsive again does
//! **not** flip it straight back into the alive mask. It parks the peer
//! in the [`ReplicaSet`]'s *reviving* state, interrogates it with a
//! `QCFP` [`crate::wire::WireManifestRequest`], diffs the peer's
//! [`crate::wire::WireManifestReply`] against the local store manifest
//! ([`qcfe_serve::SnapshotStore::manifest`]), re-ships every divergent or
//! missing key through the ordinary ship path, and only then promotes
//! the peer ([`qcfe_serve::ReplicaSet::promote_revived`]) — so owner
//! selection never routes traffic to a peer still serving state from
//! before its outage. Every survivor runs the same handshake from its
//! own store (replication converges all survivor stores, so each
//! survivor can repair the full diff), which means no survivor promotes
//! the peer before it has itself verified the peer's state. A worker
//! started without a store ([`Replicator::start`]) keeps the old
//! promote-on-probe behaviour and the staleness window that comes with
//! it.

use crate::wire::{
    self, Frame, WireManifestEntry, WireManifestReply, WireManifestRequest, WireShipModel,
    WireShipSnapshot,
};
use qcfe_serve::store::ManifestEntry;
use qcfe_serve::{ReplicaSet, ReplicationHealth, ReplicationSink, ShipEvent, SnapshotStore};
use std::collections::{HashMap, HashSet};
use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::Arc;
use std::time::Duration;

/// Tuning for a [`Replicator`] worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicatorConfig {
    /// How often the worker probes peers it has no healthy connection to
    /// (default 1s). This bounds how stale the liveness mask can be.
    pub heartbeat: Duration,
    /// Per-probe TCP connect timeout (default 250ms).
    pub connect_timeout: Duration,
}

/// How long to wait for a peer's ship-ack (or manifest reply) before
/// declaring the peer dead for this round.
const ACK_TIMEOUT: Duration = Duration::from_secs(2);

/// Bounded queue depth between publishing threads and the worker; events
/// beyond it are dropped and counted.
const QUEUE_CAPACITY: usize = 1024;

impl Default for ReplicatorConfig {
    fn default() -> Self {
        ReplicatorConfig {
            heartbeat: Duration::from_secs(1),
            connect_timeout: Duration::from_millis(250),
        }
    }
}

/// Monotonic shipping counters (relaxed atomics; read any time via
/// [`Replicator::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplicatorStats {
    /// Ship frames written to a peer socket.
    pub ships_sent: u64,
    /// Ship frames the peer validated and applied.
    pub ships_acked: u64,
    /// Ship frames the peer rejected (codec validation or store failure
    /// on the far side — the payload was delivered but not applied).
    pub ships_rejected: u64,
    /// Events dropped because the queue was full or a peer was
    /// unreachable for the whole round.
    pub ships_dropped: u64,
    /// Heartbeat probes that failed to connect (each marks the peer dead
    /// in the shared liveness mask).
    pub probe_failures: u64,
    /// Manifest replies received from revived peers (one per catch-up
    /// handshake round-trip).
    pub manifests_exchanged: u64,
    /// Divergent or missing keys re-shipped during revival catch-up.
    pub keys_reshipped: u64,
    /// Revivals completed: manifest diffed, divergent keys re-shipped and
    /// accepted, peer promoted back into the alive mask.
    pub revivals: u64,
}

#[derive(Debug, Default)]
struct Counters {
    ships_sent: AtomicU64,
    ships_acked: AtomicU64,
    ships_rejected: AtomicU64,
    ships_dropped: AtomicU64,
    probe_failures: AtomicU64,
    manifests_exchanged: AtomicU64,
    keys_reshipped: AtomicU64,
    revivals: AtomicU64,
}

enum Command {
    Ship(ShipEvent),
    Shutdown,
}

/// The queue producer handed to the gateway. Cloned freely; every clone
/// feeds the same worker.
struct Sink {
    tx: SyncSender<Command>,
    counters: Arc<Counters>,
}

impl ReplicationSink for Sink {
    fn ship(&self, event: ShipEvent) {
        match self.tx.try_send(Command::Ship(event)) {
            Ok(()) => {}
            Err(TrySendError::Full(_)) | Err(TrySendError::Disconnected(_)) => {
                // Fire-and-forget by contract: the publisher must never
                // block or fail because replication is behind (or down).
                self.counters.ships_dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    fn health(&self) -> ReplicationHealth {
        ReplicationHealth {
            ships_dropped: self.counters.ships_dropped.load(Ordering::Relaxed),
            manifests_exchanged: self.counters.manifests_exchanged.load(Ordering::Relaxed),
            keys_reshipped: self.counters.keys_reshipped.load(Ordering::Relaxed),
            revivals: self.counters.revivals.load(Ordering::Relaxed),
        }
    }
}

/// The background shipping worker. Dropping it shuts the worker down and
/// joins the thread.
pub struct Replicator {
    tx: SyncSender<Command>,
    counters: Arc<Counters>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Replicator {
    /// Start a worker shipping on behalf of `replicas` (this process must
    /// be a member — built via [`ReplicaSet::new`], not
    /// [`ReplicaSet::client_view`]). The worker owns the outbound
    /// connections; share the same `Arc<ReplicaSet>` with the server so
    /// probe outcomes steer request ownership too.
    ///
    /// Without a store the worker cannot run the revival catch-up
    /// handshake: a peer seen dead→alive is promoted straight back and
    /// may serve stale state for keys re-published during its outage.
    /// Production servers should use [`Replicator::with_store`].
    pub fn start(replicas: Arc<ReplicaSet>, config: ReplicatorConfig) -> Self {
        Self::spawn(replicas, config, None)
    }

    /// Like [`Replicator::start`], but with access to this process's
    /// snapshot store so dead→alive transitions run the anti-entropy
    /// catch-up handshake (manifest exchange + divergent-key re-ship)
    /// before the peer re-enters the alive mask. `store` must be rooted
    /// at the same directory as the gateway's, so the manifest describes
    /// exactly the state the gateway serves and ships.
    pub fn with_store(
        replicas: Arc<ReplicaSet>,
        config: ReplicatorConfig,
        store: SnapshotStore,
    ) -> Self {
        Self::spawn(replicas, config, Some(store))
    }

    fn spawn(
        replicas: Arc<ReplicaSet>,
        config: ReplicatorConfig,
        store: Option<SnapshotStore>,
    ) -> Self {
        let (tx, rx) = sync_channel(QUEUE_CAPACITY);
        let counters = Arc::new(Counters::default());
        let worker = Worker {
            replicas,
            config,
            counters: Arc::clone(&counters),
            conns: HashMap::new(),
            next_request_id: 1,
            store,
        };
        let thread = std::thread::Builder::new()
            .name("qcfe-replicator".into())
            .spawn(move || worker.run(rx))
            .expect("spawn replicator thread");
        Replicator {
            tx,
            counters,
            thread: Some(thread),
        }
    }

    /// The gateway-facing sink: hand it to
    /// [`qcfe_serve::GatewayBuilder::replication`].
    pub fn sink(&self) -> Arc<dyn ReplicationSink> {
        Arc::new(Sink {
            tx: self.tx.clone(),
            counters: Arc::clone(&self.counters),
        })
    }

    /// A point-in-time view of the shipping counters.
    pub fn stats(&self) -> ReplicatorStats {
        ReplicatorStats {
            ships_sent: self.counters.ships_sent.load(Ordering::Relaxed),
            ships_acked: self.counters.ships_acked.load(Ordering::Relaxed),
            ships_rejected: self.counters.ships_rejected.load(Ordering::Relaxed),
            ships_dropped: self.counters.ships_dropped.load(Ordering::Relaxed),
            probe_failures: self.counters.probe_failures.load(Ordering::Relaxed),
            manifests_exchanged: self.counters.manifests_exchanged.load(Ordering::Relaxed),
            keys_reshipped: self.counters.keys_reshipped.load(Ordering::Relaxed),
            revivals: self.counters.revivals.load(Ordering::Relaxed),
        }
    }

    /// Stop the worker and join it. Queued events are shipped best-effort
    /// before the shutdown command is reached in FIFO order.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        let _ = self.tx.try_send(Command::Shutdown);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for Replicator {
    fn drop(&mut self) {
        self.stop();
    }
}

struct Worker {
    replicas: Arc<ReplicaSet>,
    config: ReplicatorConfig,
    counters: Arc<Counters>,
    /// Cached outbound connections, keyed by peer index. Dropped on any
    /// error and rebuilt by the next ship or heartbeat.
    conns: HashMap<usize, TcpStream>,
    next_request_id: u64,
    /// This process's snapshot store, when revival anti-entropy is
    /// enabled. `None` keeps the legacy promote-on-probe behaviour.
    store: Option<SnapshotStore>,
}

impl Worker {
    fn run(mut self, rx: Receiver<Command>) {
        loop {
            match rx.recv_timeout(self.config.heartbeat) {
                Ok(Command::Ship(event)) => self.ship_to_peers(&event),
                Ok(Command::Shutdown) | Err(RecvTimeoutError::Disconnected) => return,
                Err(RecvTimeoutError::Timeout) => self.heartbeat(),
            }
        }
    }

    /// Push one event to every peer but ourselves. A peer that cannot be
    /// reached (or whose ack never arrives) is marked dead and the event
    /// is dropped *for that peer only* — the owner's disk remains
    /// authoritative and a later refit repairs the gap.
    fn ship_to_peers(&mut self, event: &ShipEvent) {
        let request_id = self.next_request_id;
        self.next_request_id += 1;
        let Ok(bytes) = encode_event(event, request_id) else {
            // Oversized artifact (exceeds MAX_SHIP_BYTES): undeliverable
            // by protocol, count it once and move on.
            self.counters.ships_dropped.fetch_add(1, Ordering::Relaxed);
            return;
        };
        let peers: Vec<usize> = (0..self.replicas.len())
            .filter(|&i| Some(i) != self.replicas.self_index())
            .collect();
        for peer in peers {
            match self.ship_one(peer, &bytes, request_id) {
                Ok(accepted) => {
                    // With anti-entropy enabled, a successful ship must
                    // not resurrect a dead peer — only the heartbeat's
                    // catch-up handshake promotes, so the peer's other
                    // (possibly stale) keys never serve early. Without a
                    // store there is no handshake, so a working ship
                    // remains evidence enough. (mark_alive is a no-op for
                    // a peer that is already alive or mid-revival.)
                    if self.store.is_none() {
                        self.replicas.mark_alive(peer);
                    }
                    if accepted {
                        self.counters.ships_acked.fetch_add(1, Ordering::Relaxed);
                    } else {
                        self.counters.ships_rejected.fetch_add(1, Ordering::Relaxed);
                    }
                }
                Err(_) => {
                    self.conns.remove(&peer);
                    self.replicas.mark_dead(peer);
                    self.counters.ships_dropped.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }

    /// Write one pre-encoded ship frame to a peer and wait for its ack.
    /// Returns whether the peer accepted the artifact.
    fn ship_one(&mut self, peer: usize, bytes: &[u8], request_id: u64) -> std::io::Result<bool> {
        if !self.conns.contains_key(&peer) {
            let stream = self.connect(peer)?;
            self.conns.insert(peer, stream);
        }
        let stream = self.conns.get_mut(&peer).expect("connection just cached");
        stream.set_read_timeout(Some(ACK_TIMEOUT))?;
        stream.write_all(bytes)?;
        self.counters.ships_sent.fetch_add(1, Ordering::Relaxed);
        let stream = self.conns.get_mut(&peer).expect("connection just cached");
        read_ack(stream, request_id)
    }

    fn connect(&self, peer: usize) -> std::io::Result<TcpStream> {
        let addr_str = &self.replicas.peers()[peer];
        let addr = addr_str
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| std::io::Error::other(format!("unresolvable peer {addr_str}")))?;
        let stream = TcpStream::connect_timeout(&addr, self.config.connect_timeout)?;
        stream.set_nodelay(true).ok();
        Ok(stream)
    }

    /// Probe every peer with a fresh connect, steering the shared
    /// liveness mask. Cached ship connections are *not* trusted as
    /// evidence of life — a peer that died after the last ship would
    /// otherwise look alive forever (its cached socket only fails on the
    /// next write) and its keys would never migrate to the survivors.
    ///
    /// A responsive peer that is currently *not* alive is the revival
    /// path: with a store configured it runs the catch-up handshake
    /// before promotion; without one it is promoted immediately (and may
    /// serve stale state — the documented degradation of store-less
    /// replicators).
    fn heartbeat(&mut self) {
        let peers: Vec<usize> = (0..self.replicas.len())
            .filter(|&i| Some(i) != self.replicas.self_index())
            .collect();
        for peer in peers {
            match self.connect(peer) {
                Ok(stream) => {
                    // Keep the probe connection only when none is cached;
                    // a healthy cached one stays preferred (it may have a
                    // ship round-trip's worth of warmed state behind it).
                    self.conns.entry(peer).or_insert(stream);
                    if self.replicas.is_alive(peer) {
                        continue;
                    }
                    if self.store.is_none() {
                        self.replicas.mark_alive(peer);
                        continue;
                    }
                    // begin_revival claims the transition exactly once;
                    // losing the claim (peer already promoted or another
                    // actor mid-handshake) means nothing to do here.
                    if !self.replicas.begin_revival(peer) {
                        continue;
                    }
                    match self.catch_up(peer) {
                        Ok(()) => {
                            if self.replicas.promote_revived(peer) {
                                self.counters.revivals.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        Err(_) => {
                            // Handshake broke (peer died again, rejected
                            // a re-ship, or spoke garbage): cancel the
                            // revival so the next heartbeat retries from
                            // scratch.
                            self.conns.remove(&peer);
                            self.replicas.mark_dead(peer);
                            self.counters.probe_failures.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                Err(_) => {
                    self.conns.remove(&peer);
                    self.replicas.mark_dead(peer);
                    self.counters.probe_failures.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }

    /// The revival catch-up handshake: request the reviving peer's store
    /// manifest, diff it against the local store, and re-ship every
    /// divergent or missing key through the ordinary ship path. Returns
    /// only once the whole diff has been shipped *and accepted* — a
    /// rejected re-ship is an error, because promoting a peer whose
    /// store is still divergent would serve stale estimates.
    fn catch_up(&mut self, peer: usize) -> std::io::Result<()> {
        let store = self
            .store
            .clone()
            .expect("catch_up only runs with a store configured");
        let local = store.manifest().map_err(std::io::Error::other)?;
        let request_id = self.next_request_id;
        self.next_request_id += 1;
        let request = wire::encode_manifest_request(&WireManifestRequest { request_id })
            .map_err(std::io::Error::other)?;
        if !self.conns.contains_key(&peer) {
            let stream = self.connect(peer)?;
            self.conns.insert(peer, stream);
        }
        let stream = self.conns.get_mut(&peer).expect("connection just cached");
        stream.set_read_timeout(Some(ACK_TIMEOUT))?;
        stream.write_all(&request)?;
        let reply = read_manifest_reply(stream, request_id)?;
        self.counters
            .manifests_exchanged
            .fetch_add(1, Ordering::Relaxed);
        let theirs: HashSet<WireManifestEntry> = reply.entries.into_iter().collect();
        for entry in &local {
            if theirs.contains(&WireManifestEntry::from(*entry)) {
                continue;
            }
            // Divergent or missing on the peer: re-ship the persisted
            // codec bytes. An entry whose file vanished between manifest
            // and read (concurrent re-publish) is skipped — the ordinary
            // ship path already carried its replacement.
            let ship_id = self.next_request_id;
            self.next_request_id += 1;
            let bytes = match *entry {
                ManifestEntry::Snapshot {
                    benchmark,
                    fingerprint,
                    ..
                } => {
                    let Some(snapshot) = store
                        .snapshot_bytes(benchmark, fingerprint)
                        .map_err(std::io::Error::other)?
                    else {
                        continue;
                    };
                    let knobs = store
                        .load_vector(benchmark, fingerprint)
                        .unwrap_or_default()
                        .unwrap_or_default();
                    wire::encode_ship_snapshot(&WireShipSnapshot {
                        request_id: ship_id,
                        benchmark,
                        fingerprint: fingerprint.0,
                        knobs,
                        snapshot,
                    })
                    .map_err(std::io::Error::other)?
                }
                ManifestEntry::Model {
                    benchmark,
                    estimator,
                    fingerprint,
                    ..
                } => {
                    let Some(weights) = store
                        .model_bytes(benchmark, estimator, fingerprint)
                        .map_err(std::io::Error::other)?
                    else {
                        continue;
                    };
                    wire::encode_ship_model(&WireShipModel {
                        request_id: ship_id,
                        benchmark,
                        estimator,
                        fingerprint: fingerprint.0,
                        weights,
                    })
                    .map_err(std::io::Error::other)?
                }
            };
            if self.ship_one(peer, &bytes, ship_id)? {
                self.counters.keys_reshipped.fetch_add(1, Ordering::Relaxed);
            } else {
                self.counters.ships_rejected.fetch_add(1, Ordering::Relaxed);
                return Err(std::io::Error::other(
                    "peer rejected a catch-up re-ship; store still divergent",
                ));
            }
        }
        Ok(())
    }
}

/// Encode a [`ShipEvent`] as its `QCFP` ship frame.
fn encode_event(event: &ShipEvent, request_id: u64) -> Result<Vec<u8>, wire::WireError> {
    match event {
        ShipEvent::Snapshot {
            benchmark,
            fingerprint,
            snapshot,
            knobs,
        } => wire::encode_ship_snapshot(&WireShipSnapshot {
            request_id,
            benchmark: *benchmark,
            fingerprint: fingerprint.0,
            knobs: knobs.clone(),
            snapshot: snapshot.clone(),
        }),
        ShipEvent::Model { key, weights } => wire::encode_ship_model(&WireShipModel {
            request_id,
            benchmark: key.benchmark,
            estimator: key.estimator,
            fingerprint: key.fingerprint.0,
            weights: weights.clone(),
        }),
    }
}

/// Read frames until the ack for `request_id` arrives (acks for earlier,
/// timed-out rounds are skipped). Any wire-level breakage is an error —
/// the caller drops the connection.
fn read_ack(stream: &mut TcpStream, request_id: u64) -> std::io::Result<bool> {
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        if let Some(len) = wire::frame_length(&buf).map_err(std::io::Error::other)? {
            let frame: Vec<u8> = buf.drain(..len).collect();
            match wire::decode_frame(&frame).map_err(std::io::Error::other)? {
                Frame::ShipAck(ack) if ack.request_id == request_id => return Ok(ack.accepted),
                Frame::ShipAck(_) => continue, // stale ack from a timed-out round
                _ => return Err(std::io::Error::other("unexpected frame while awaiting ack")),
            }
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "peer closed before ack",
            ));
        }
        buf.extend_from_slice(&chunk[..n]);
    }
}

/// Read frames until the manifest reply for `request_id` arrives. Stale
/// ship acks and stale manifest replies (from earlier, timed-out rounds)
/// are skipped; anything else is an error and the caller drops the
/// connection.
fn read_manifest_reply(
    stream: &mut TcpStream,
    request_id: u64,
) -> std::io::Result<WireManifestReply> {
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        if let Some(len) = wire::frame_length(&buf).map_err(std::io::Error::other)? {
            let frame: Vec<u8> = buf.drain(..len).collect();
            match wire::decode_frame(&frame).map_err(std::io::Error::other)? {
                Frame::ManifestReply(reply) if reply.request_id == request_id => return Ok(reply),
                Frame::ManifestReply(_) | Frame::ShipAck(_) => continue, // stale round
                _ => {
                    return Err(std::io::Error::other(
                        "unexpected frame while awaiting manifest reply",
                    ))
                }
            }
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "peer closed before manifest reply",
            ));
        }
        buf.extend_from_slice(&chunk[..n]);
    }
}
