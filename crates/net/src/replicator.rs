//! Fire-and-forget state shipping between replica-set peers.
//!
//! The gateway's replication hooks hand every published or refined
//! artifact to a [`qcfe_serve::ReplicationSink`]; this module provides the
//! network-backed sink. A [`Replicator`] owns one background worker thread,
//! a bounded queue and a handle on this process's snapshot store:
//!
//! * [`Replicator::sink`] returns the queue's producer handle. `ship` is a
//!   `try_send` — when the queue is full the event is **dropped and
//!   counted** ([`ReplicationHealth::ships_dropped`]), never blocking the
//!   publishing thread. Dropping is safe because shipped state is a cache
//!   of the owner's disk: a peer that missed an event absorbs the next
//!   refit of the same key, and the owner's store remains authoritative.
//! * the worker drains events and pushes each one to **every other peer**
//!   as a `QCFP` ship frame ([`crate::wire::FRAME_SHIP_SNAPSHOT`] /
//!   [`crate::wire::FRAME_SHIP_MODEL`]), waiting for the peer's
//!   [`crate::wire::WireShipAck`] under a read timeout. Each peer
//!   connection is a [`QcfeClient`], cached and rebuilt on error.
//! * whenever the queue stays empty for [`ReplicatorConfig::heartbeat`],
//!   the worker probes every peer with a fresh connect. Probe outcomes
//!   drive the shared [`qcfe_serve::ReplicaSet`] liveness mask — a dead
//!   peer's keys rendezvous-place onto survivors, which is the whole
//!   failover story.
//!
//! Shipping alone has no history replay, so revival is anti-entropic: a
//! heartbeat that finds a previously dead peer responsive again does
//! **not** flip it straight back into the alive mask, and neither does a
//! successful ship. The heartbeat parks the peer in the [`ReplicaSet`]'s
//! *reviving* state, interrogates it with a `QCFP`
//! [`crate::wire::WireManifestRequest`], diffs the peer's
//! [`crate::wire::WireManifestReply`] against the local store manifest
//! ([`qcfe_serve::SnapshotStore::manifest`]), re-ships every divergent or
//! missing key through the ordinary ship path, and only then promotes
//! the peer ([`qcfe_serve::ReplicaSet::promote_revived`]) — so owner
//! selection never routes traffic to a peer still serving state from
//! before its outage. Every survivor runs the same handshake from its
//! own store (replication converges all survivor stores, so each
//! survivor can repair the full diff), which means no survivor promotes
//! the peer before it has itself verified the peer's state.

use crate::client::{ClientError, QcfeClient};
use crate::wire::{
    self, Frame, WireManifestEntry, WireManifestRequest, WireShipModel, WireShipSnapshot,
};
use qcfe_serve::store::{ManifestEntry, StoreError};
use qcfe_serve::{
    ModelKey, ReplicaSet, ReplicationHealth, ReplicationSink, ShipEvent, SnapshotStore,
};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::io;
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Tuning for a [`Replicator`] worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicatorConfig {
    /// How long the queue must stay empty before the worker probes every
    /// peer (default 1s).
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

/// The shared counters, locked. The lock is never held across I/O, and a
/// poisoned one still holds valid counts.
fn lock(counters: &Mutex<ReplicationHealth>) -> MutexGuard<'_, ReplicationHealth> {
    counters.lock().unwrap_or_else(PoisonError::into_inner)
}

enum Command {
    Ship(ShipEvent),
    Shutdown,
}

/// The queue producer handed to the gateway. Cloned freely; every clone
/// feeds the same worker.
struct Sink {
    tx: SyncSender<Command>,
    counters: Arc<Mutex<ReplicationHealth>>,
}

impl ReplicationSink for Sink {
    fn ship(&self, event: ShipEvent) {
        match self.tx.try_send(Command::Ship(event)) {
            Ok(()) => {}
            Err(TrySendError::Full(_)) | Err(TrySendError::Disconnected(_)) => {
                // Fire-and-forget by contract: the publisher must never
                // block or fail because replication is behind (or down).
                lock(&self.counters).ships_dropped += 1;
            }
        }
    }

    fn health(&self) -> ReplicationHealth {
        *lock(&self.counters)
    }
}

/// The background shipping worker. Dropping it shuts the worker down and
/// joins the thread.
pub struct Replicator {
    tx: SyncSender<Command>,
    counters: Arc<Mutex<ReplicationHealth>>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Replicator {
    /// Start a worker shipping on behalf of `replicas` (this process must
    /// be a member — built via [`ReplicaSet::new`], not
    /// [`ReplicaSet::client_view`]). The worker owns the outbound
    /// connections; share the same `Arc<ReplicaSet>` with the server so
    /// probe outcomes steer request ownership too. `store` must be rooted
    /// at the same directory as the gateway's, so the manifest a revived
    /// peer is diffed against describes exactly the state the gateway
    /// serves and ships.
    pub fn start(
        replicas: Arc<ReplicaSet>,
        config: ReplicatorConfig,
        store: SnapshotStore,
    ) -> Self {
        let (tx, rx) = sync_channel(QUEUE_CAPACITY);
        let worker = Worker::new(replicas, config, store);
        let counters = Arc::clone(&worker.counters);
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

    /// A point-in-time view of the shipping counters, the same one the
    /// gateway reports as `GatewayStats::replication`.
    pub fn stats(&self) -> ReplicationHealth {
        *lock(&self.counters)
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
    counters: Arc<Mutex<ReplicationHealth>>,
    /// Cached outbound connections, keyed by peer index. Dropped on any
    /// error and rebuilt by the next ship or heartbeat.
    conns: HashMap<usize, QcfeClient>,
    next_request_id: u64,
    /// This process's snapshot store, which a revived peer's manifest is
    /// diffed against.
    store: SnapshotStore,
}

impl Worker {
    fn new(replicas: Arc<ReplicaSet>, config: ReplicatorConfig, store: SnapshotStore) -> Self {
        Worker {
            replicas,
            config,
            counters: Arc::default(),
            conns: HashMap::new(),
            next_request_id: 1,
            store,
        }
    }

    fn run(mut self, rx: Receiver<Command>) {
        loop {
            match rx.recv_timeout(self.config.heartbeat) {
                Ok(Command::Ship(event)) => self.ship_to_peers(event),
                Ok(Command::Shutdown) | Err(RecvTimeoutError::Disconnected) => return,
                Err(RecvTimeoutError::Timeout) => self.heartbeat(),
            }
        }
    }

    /// Every peer but ourselves.
    fn peers(&self) -> Vec<usize> {
        (0..self.replicas.len())
            .filter(|&i| Some(i) != self.replicas.self_index())
            .collect()
    }

    /// The next id of the sequence ship and manifest frames share.
    fn take_request_id(&mut self) -> u64 {
        let id = self.next_request_id;
        self.next_request_id += 1;
        id
    }

    /// Push one event to every peer but ourselves. A peer that cannot be
    /// reached (or whose ack never arrives) is marked dead and the event
    /// is dropped *for that peer only* — the owner's disk remains
    /// authoritative and a later refit repairs the gap. A working ship
    /// never marks a dead peer alive: only the heartbeat's catch-up
    /// promotes, so the peer's other (possibly stale) keys never serve
    /// early.
    fn ship_to_peers(&mut self, event: ShipEvent) {
        let request_id = self.take_request_id();
        let Ok(frame) = encode_event(event, request_id) else {
            // Oversized artifact (exceeds MAX_SHIP_BYTES): undeliverable
            // by protocol, count it once and move on.
            lock(&self.counters).ships_dropped += 1;
            return;
        };
        for peer in self.peers() {
            match self.ship_one(peer, &frame, request_id) {
                Ok(true) => lock(&self.counters).ships_acked += 1,
                Ok(false) => lock(&self.counters).ships_rejected += 1,
                Err(_) => {
                    self.conns.remove(&peer);
                    self.replicas.mark_dead(peer);
                    lock(&self.counters).ships_dropped += 1;
                }
            }
        }
    }

    /// Write one sealed ship frame to a peer and wait for its ack.
    /// Returns whether the peer accepted the artifact.
    fn ship_one(
        &mut self,
        peer: usize,
        frame: &[u8],
        request_id: u64,
    ) -> Result<bool, ClientError> {
        self.send(peer, frame)?;
        lock(&self.counters).ships_sent += 1;
        match self.await_reply(peer, request_id)? {
            Frame::ShipAck(ack) => Ok(ack.accepted),
            _ => Err(ClientError::UnexpectedFrame),
        }
    }

    /// Write one sealed frame to `peer` over its cached connection,
    /// connecting first when none is cached.
    fn send(&mut self, peer: usize, frame: &[u8]) -> Result<(), ClientError> {
        let conn = match self.conns.entry(peer) {
            Entry::Occupied(cached) => cached.into_mut(),
            Entry::Vacant(slot) => slot.insert(connect(
                &self.replicas.peers()[peer],
                self.config.connect_timeout,
            )?),
        };
        conn.queue_frame(frame);
        conn.flush()
    }

    /// Read frames from `peer`'s connection until the reply to round
    /// `request_id` arrives. Ship acks and manifest replies of earlier,
    /// timed-out rounds are skipped; any other frame is an error, and the
    /// caller drops the connection.
    fn await_reply(&mut self, peer: usize, request_id: u64) -> Result<Frame, ClientError> {
        let conn = self
            .conns
            .get_mut(&peer)
            .ok_or_else(|| io::Error::from(io::ErrorKind::NotConnected))?;
        loop {
            let frame = conn.recv_frame()?;
            let id = match &frame {
                Frame::ShipAck(ack) => ack.request_id,
                Frame::ManifestReply(reply) => reply.request_id,
                _ => return Err(ClientError::UnexpectedFrame),
            };
            if id == request_id {
                return Ok(frame);
            }
        }
    }

    /// Probe every peer with a fresh connect, steering the shared
    /// liveness mask. Cached ship connections are *not* trusted as
    /// evidence of life — a peer that died after the last ship would
    /// otherwise look alive forever (its cached socket only fails on the
    /// next write) and its keys would never migrate to the survivors.
    ///
    /// A responsive peer that is currently *not* alive is the revival
    /// path: the catch-up handshake runs before its promotion.
    fn heartbeat(&mut self) {
        for peer in self.peers() {
            let probe = connect(&self.replicas.peers()[peer], self.config.connect_timeout);
            let outcome = probe.and_then(|conn| {
                // Keep the probe connection only when none is cached; a
                // healthy cached one stays preferred.
                self.conns.entry(peer).or_insert(conn);
                self.revive(peer)
            });
            if outcome.is_err() {
                // No answer, or a broken handshake: marking the peer dead
                // cancels its revival, and the next heartbeat retries.
                self.conns.remove(&peer);
                self.replicas.mark_dead(peer);
                lock(&self.counters).probe_failures += 1;
            }
        }
    }

    /// Catch up and promote a responsive peer that is not alive.
    /// `begin_revival` claims the transition exactly once; losing the
    /// claim (peer already alive, or another actor mid-handshake) means
    /// nothing to do here.
    fn revive(&mut self, peer: usize) -> Result<(), ClientError> {
        if self.replicas.begin_revival(peer) {
            self.catch_up(peer)?;
            if self.replicas.promote_revived(peer) {
                lock(&self.counters).revivals += 1;
            }
        }
        Ok(())
    }

    /// The revival catch-up handshake: request the reviving peer's store
    /// manifest, diff it against the local store, and re-ship every
    /// divergent or missing key through the ordinary ship path. Returns
    /// only once the whole diff has been shipped *and accepted* — a
    /// rejected re-ship is an error, because promoting a peer whose
    /// store is still divergent would serve stale estimates.
    fn catch_up(&mut self, peer: usize) -> Result<(), ClientError> {
        let local = self.store.manifest().map_err(io::Error::other)?;
        let request_id = self.take_request_id();
        let request = wire::encode_manifest_request(&WireManifestRequest { request_id })?;
        self.send(peer, &request)?;
        let Frame::ManifestReply(reply) = self.await_reply(peer, request_id)? else {
            return Err(ClientError::UnexpectedFrame);
        };
        lock(&self.counters).manifests_exchanged += 1;
        let theirs: HashSet<WireManifestEntry> = reply.entries.into_iter().collect();
        for entry in local {
            if theirs.contains(&WireManifestEntry::from(entry)) {
                continue;
            }
            // Divergent or missing on the peer: re-ship the persisted
            // codec bytes. An entry whose file vanished between manifest
            // and read (concurrent re-publish) is skipped — the ordinary
            // ship path already carried its replacement.
            let Some(event) = stored_event(&self.store, entry).map_err(io::Error::other)? else {
                continue;
            };
            let ship_id = self.take_request_id();
            if !self.ship_one(peer, &encode_event(event, ship_id)?, ship_id)? {
                lock(&self.counters).ships_rejected += 1;
                return Err(io::Error::other(
                    "peer rejected a catch-up re-ship; store still divergent",
                )
                .into());
            }
            lock(&self.counters).keys_reshipped += 1;
        }
        Ok(())
    }
}

/// A fresh connection to `addr`. Every reply wait on it is bounded by
/// [`ACK_TIMEOUT`].
fn connect(addr: &str, timeout: Duration) -> Result<QcfeClient, ClientError> {
    let mut conn = QcfeClient::connect_tcp_timeout(addr, timeout)?;
    conn.set_read_timeout(Some(ACK_TIMEOUT))?;
    Ok(conn)
}

/// The [`ShipEvent`] that carries a manifest entry's persisted bytes, or
/// `None` when the file vanished after the manifest was read.
fn stored_event(
    store: &SnapshotStore,
    entry: ManifestEntry,
) -> Result<Option<ShipEvent>, StoreError> {
    Ok(match entry {
        ManifestEntry::Snapshot {
            benchmark,
            fingerprint,
            ..
        } => store
            .snapshot_bytes(benchmark, fingerprint)?
            .map(|snapshot| ShipEvent::Snapshot {
                benchmark,
                fingerprint,
                snapshot,
                knobs: store
                    .load_vector(benchmark, fingerprint)
                    .unwrap_or_default()
                    .unwrap_or_default(),
            }),
        ManifestEntry::Model {
            benchmark,
            estimator,
            fingerprint,
            ..
        } => store
            .model_bytes(benchmark, estimator, fingerprint)?
            .map(|weights| ShipEvent::Model {
                key: ModelKey::new(benchmark, estimator, fingerprint),
                weights,
            }),
    })
}

/// Encode a [`ShipEvent`] as its `QCFP` ship frame.
fn encode_event(event: ShipEvent, request_id: u64) -> Result<Vec<u8>, wire::WireError> {
    match event {
        ShipEvent::Snapshot {
            benchmark,
            fingerprint,
            snapshot,
            knobs,
        } => wire::encode_ship_snapshot(&WireShipSnapshot {
            request_id,
            benchmark,
            fingerprint: fingerprint.0,
            knobs,
            snapshot,
        }),
        ShipEvent::Model { key, weights } => wire::encode_ship_model(&WireShipModel {
            request_id,
            benchmark: key.benchmark,
            estimator: key.estimator,
            fingerprint: key.fingerprint.0,
            weights,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{WireFault, WireManifestReply, WireResponse, WireShipAck};
    use qcfe_core::pipeline::EstimatorKind;
    use qcfe_db::env::EnvFingerprint;
    use qcfe_workloads::BenchmarkKind;
    use std::io::{Read, Write};
    use std::net::TcpListener;
    use std::thread::JoinHandle;

    const KEY: ModelKey = ModelKey {
        benchmark: BenchmarkKind::Sysbench,
        estimator: EstimatorKind::QcfeMscn,
        fingerprint: EnvFingerprint(0xC0FFEE),
    };

    /// A worker over an empty store whose only other peer (index 1) is a
    /// local listener. `script` plays that peer in its own thread; the
    /// worker is driven from the test thread, so no heartbeat runs unless
    /// the test calls one.
    fn scripted(
        tag: &str,
        script: impl FnOnce(TcpListener) + Send + 'static,
    ) -> (Worker, JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let peer = listener.local_addr().unwrap().to_string();
        let replicas = ReplicaSet::new(vec!["127.0.0.1:1".into(), peer], 0).unwrap();
        let root =
            std::env::temp_dir().join(format!("qcfe-replicator-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let store = SnapshotStore::open(root).unwrap();
        let worker = Worker::new(Arc::new(replicas), ReplicatorConfig::default(), store);
        (worker, std::thread::spawn(move || script(listener)))
    }

    /// Drop the worker (closing its connections), join the peer and
    /// remove the store. A throwaway connect first wakes a peer still in
    /// `accept`, so a worker that never dialled fails the test instead of
    /// hanging it.
    fn finish(worker: Worker, peer: JoinHandle<()>) {
        let _ = QcfeClient::connect_tcp(worker.replicas.peers()[1].as_str());
        let root = worker.store.root().to_path_buf();
        drop(worker);
        peer.join().unwrap();
        std::fs::remove_dir_all(root).unwrap();
    }

    /// Read exactly one frame; the worker never sends a second one before
    /// it has its reply.
    fn read_frame(stream: &mut impl Read) -> Frame {
        let mut buf = Vec::new();
        let mut chunk = [0u8; 4096];
        loop {
            if let Some(len) = wire::frame_length(&buf).unwrap() {
                assert_eq!(len, buf.len(), "one frame per round");
                return wire::decode_frame(&buf).unwrap();
            }
            let n = stream.read(&mut chunk).unwrap();
            assert!(n > 0, "the worker hung up mid-frame");
            buf.extend_from_slice(&chunk[..n]);
        }
    }

    /// Block until the worker closes the connection. A reset counts: the
    /// worker may hang up with a reply still unread.
    fn expect_hang_up(stream: &mut impl Read) {
        match stream.read(&mut [0u8; 64]) {
            Ok(0) => {}
            Err(error) if error.kind() == io::ErrorKind::ConnectionReset => {}
            other => panic!("expected the worker to hang up, got {other:?}"),
        }
    }

    fn ack(request_id: u64, accepted: bool) -> Vec<u8> {
        let message = String::new();
        let ack = WireShipAck {
            request_id,
            accepted,
            message,
        };
        wire::encode_ship_ack(&ack).unwrap()
    }

    fn ship_id(frame: Frame) -> u64 {
        match frame {
            Frame::ShipModel(ship) => ship.request_id,
            other => panic!("expected a ship-model frame, got {other:?}"),
        }
    }

    fn event() -> ShipEvent {
        ShipEvent::Model {
            key: KEY,
            weights: vec![0x5A; 32],
        }
    }

    #[test]
    fn a_stale_ack_is_skipped_and_the_matching_one_counts() {
        let (mut worker, peer) = scripted("stale-ack", |listener| {
            let (mut stream, _) = listener.accept().unwrap();
            let first = ship_id(read_frame(&mut stream));
            stream.write_all(&ack(first, true)).unwrap();
            // The second round is answered with the first round's ack
            // again and then its own rejection, in one write: taking the
            // stale ack would count an acceptance.
            let second = ship_id(read_frame(&mut stream));
            assert_ne!(first, second);
            let mut replies = ack(first, true);
            replies.extend_from_slice(&ack(second, false));
            stream.write_all(&replies).unwrap();
            expect_hang_up(&mut stream);
        });
        worker.ship_to_peers(event());
        worker.ship_to_peers(event());
        let stats = *lock(&worker.counters);
        assert_eq!(stats.ships_sent, 2);
        assert_eq!(stats.ships_acked, 1);
        assert_eq!(stats.ships_rejected, 1);
        assert_eq!(stats.ships_dropped, 0);
        assert!(worker.replicas.is_alive(1));
        assert!(
            worker.conns.contains_key(&1),
            "one connection for both rounds"
        );
        finish(worker, peer);
    }

    #[test]
    fn a_foreign_frame_during_the_wait_drops_the_connection_and_the_peer() {
        let (mut worker, peer) = scripted("foreign", |listener| {
            let (mut stream, _) = listener.accept().unwrap();
            let request_id = ship_id(read_frame(&mut stream));
            let message = "not an ack".to_string();
            let outcome = Err(WireFault::BadRequest { message });
            let response = WireResponse {
                request_id,
                outcome,
            };
            // The matching ack follows in the same write: a wait that
            // skipped the foreign frame would count it.
            let mut replies = wire::encode_response(&response).unwrap();
            replies.extend_from_slice(&ack(request_id, true));
            stream.write_all(&replies).unwrap();
            expect_hang_up(&mut stream);
        });
        worker.ship_to_peers(event());
        let stats = *lock(&worker.counters);
        assert_eq!(stats.ships_sent, 1);
        assert_eq!(stats.ships_acked + stats.ships_rejected, 0);
        assert_eq!(stats.ships_dropped, 1);
        assert!(!worker.replicas.is_alive(1), "the peer is marked dead");
        assert!(worker.conns.is_empty(), "the connection is dropped");
        finish(worker, peer);
    }

    #[test]
    fn a_revival_skips_a_stale_ack_before_the_manifest_reply() {
        let (mut worker, peer) = scripted("revival", |listener| {
            // The heartbeat's probe connection carries the handshake.
            let (mut stream, _) = listener.accept().unwrap();
            let request_id = match read_frame(&mut stream) {
                Frame::ManifestRequest(request) => request.request_id,
                other => panic!("expected a manifest request, got {other:?}"),
            };
            stream.write_all(&ack(request_id + 1000, true)).unwrap();
            let reply = WireManifestReply {
                request_id,
                entries: Vec::new(),
            };
            stream
                .write_all(&wire::encode_manifest_reply(&reply).unwrap())
                .unwrap();
            // The peer holds nothing, so the one stored key is re-shipped
            // verbatim.
            let reship = match read_frame(&mut stream) {
                Frame::ShipModel(ship) => ship,
                other => panic!("expected a re-ship, got {other:?}"),
            };
            assert_eq!(reship.fingerprint, KEY.fingerprint.0);
            assert_eq!(reship.weights, b"stored weights");
            stream.write_all(&ack(reship.request_id, true)).unwrap();
            expect_hang_up(&mut stream);
        });
        let path = worker
            .store
            .model_path_for(KEY.benchmark, KEY.estimator, KEY.fingerprint);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(path, b"stored weights").unwrap();
        worker.replicas.mark_dead(1);
        worker.heartbeat();
        let stats = *lock(&worker.counters);
        assert_eq!(stats.manifests_exchanged, 1);
        assert_eq!(stats.keys_reshipped, 1);
        assert_eq!(stats.revivals, 1);
        assert_eq!(stats.probe_failures, 0);
        assert!(worker.replicas.is_alive(1) && !worker.replicas.is_reviving(1));
        finish(worker, peer);
    }
}
