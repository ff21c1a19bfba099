//! Replicated serving: static peer sets, rendezvous shard placement and
//! state-shipping events.
//!
//! A deployment runs N `qcfe-served` processes that form a *static* peer
//! set (every process is configured with the same ordered address list
//! plus its own index). Each serving key — `(benchmark, estimator,
//! fingerprint)`, i.e. [`ModelKey`] — is owned by exactly one *alive*
//! peer, chosen by highest-random-weight (rendezvous) hashing: every
//! `(peer, key)` pair hashes to a 64-bit weight and the alive peer with
//! the highest weight owns the key. Rendezvous placement needs no ring
//! state to persist or gossip, and it has the minimal-disruption
//! property the failover story rests on: removing a peer moves *only*
//! that peer's keys (every other key keeps its argmax), so survivors
//! absorb exactly the dead peer's shards and nothing else reshuffles.
//!
//! State flows between peers as [`ShipEvent`]s: whenever a gateway
//! persists a refined snapshot or a published model (persist-before-swap
//! is the ordering anchor — a shipped artifact is always already durable
//! at its origin), it hands the *exact persisted bytes* — the CRC-checked
//! `QCFS` v2 / `QCFW` v2 codec payloads — to a [`ReplicationSink`]. The
//! network layer's replicator streams them to every peer as QCFP
//! `ShipSnapshot`/`ShipModel` frames; receivers decode and re-validate
//! through the same codecs, so replication is bit-exact by construction
//! and corruption is rejected typed at both the wire (CRC) and codec
//! (magic/version/checksum) layers.
//!
//! Liveness is a local, advisory view: [`ReplicaSet::mark_dead`] /
//! [`ReplicaSet::mark_alive`] flip bits in an atomic mask that
//! [`ReplicaSet::owner_index`] consults. Servers update it from the
//! replicator's heartbeat probes; clients update it from their own
//! connection failures. The two views converge within a heartbeat
//! period — in the gap a client may be redirected with a
//! `NotOwner { owner }` fault and simply retries with backoff.
//!
//! Revival is *not* a single bit-flip: shipping is fire-and-forget with
//! no history replay, so a peer that died and came back may hold stale
//! state for every key re-published during its outage. A server that
//! observes the dead→alive transition therefore parks the peer in an
//! intermediate *reviving* state ([`ReplicaSet::begin_revival`]): the
//! peer stays out of the alive mask — `owner_index` never routes to it —
//! while the observer exchanges store manifests and re-ships divergent
//! keys, and only [`ReplicaSet::promote_revived`] completes the
//! transition. While the reviving bit is set, [`ReplicaSet::mark_alive`]
//! is a deliberate no-op, so an incidental successful ship cannot
//! promote a peer whose catch-up is still draining.

use crate::registry::ModelKey;
use std::sync::atomic::{AtomicU64, Ordering};

/// The peer-set size cap (the alive mask is one `u64`).
pub const MAX_PEERS: usize = 64;

/// A malformed peer-set configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplicaError {
    /// The peer list was empty.
    NoPeers,
    /// More than [`MAX_PEERS`] peers were listed.
    TooManyPeers(usize),
    /// `self_index` does not index the peer list.
    SelfOutOfRange {
        /// The out-of-range index.
        index: usize,
        /// The peer-list length.
        peers: usize,
    },
    /// The same address was listed twice (placement would double-count it).
    DuplicatePeer(String),
}

impl std::fmt::Display for ReplicaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplicaError::NoPeers => write!(f, "replica set needs at least one peer"),
            ReplicaError::TooManyPeers(n) => {
                write!(f, "replica set of {n} peers exceeds the cap of {MAX_PEERS}")
            }
            ReplicaError::SelfOutOfRange { index, peers } => {
                write!(f, "self index {index} out of range for {peers} peers")
            }
            ReplicaError::DuplicatePeer(addr) => {
                write!(f, "peer address {addr:?} listed more than once")
            }
        }
    }
}

impl std::error::Error for ReplicaError {}

/// `splitmix64` finalizer — a full-avalanche bijection over `u64`.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The rendezvous weight of `(peer, key)`.
///
/// FNV-1a over the peer address and the key's stable identity (benchmark
/// and estimator *names*, not enum discriminants, plus the fingerprint
/// bits), finished with a splitmix64 avalanche. Deliberately not
/// `std::hash::Hasher`-based: `DefaultHasher` is seed-randomized per
/// process, and placement must agree across every process of the peer
/// set.
pub fn placement_weight(peer: &str, key: &ModelKey) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = FNV_OFFSET;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
        // Separator so ("ab","c") and ("a","bc") hash differently.
        h = (h ^ 0xff).wrapping_mul(FNV_PRIME);
    };
    eat(peer.as_bytes());
    eat(key.benchmark.name().as_bytes());
    eat(key.estimator.name().as_bytes());
    eat(&key.fingerprint.0.to_le_bytes());
    splitmix64(h)
}

/// The owner of `key` among `peers`, ignoring liveness — the pure
/// placement function property tests exercise directly.
pub fn owner_among(peers: &[String], key: &ModelKey) -> Option<usize> {
    peers
        .iter()
        .enumerate()
        .max_by_key(|(index, peer)| (placement_weight(peer, key), usize::MAX - index))
        .map(|(index, _)| index)
}

/// A static, ordered peer set with an advisory liveness mask.
///
/// Shared as an `Arc` between the gateway (ownership checks in the
/// server), the replicator (heartbeat updates) and shard-aware clients
/// (connection-failure updates). All liveness operations are lock-free
/// atomics; the peer list itself never changes after construction.
#[derive(Debug)]
pub struct ReplicaSet {
    peers: Vec<String>,
    self_index: Option<usize>,
    alive: AtomicU64,
    /// Peers caught between dead and alive: seen responsive again by a
    /// heartbeat, but still catching up on state re-published during their
    /// outage. Disjoint from `alive` by construction; only
    /// [`ReplicaSet::promote_revived`] moves a bit from here to `alive`.
    reviving: AtomicU64,
}

impl ReplicaSet {
    /// A server-side set: `peers[self_index]` is this process.
    pub fn new(peers: Vec<String>, self_index: usize) -> Result<Self, ReplicaError> {
        if self_index >= peers.len() {
            return Err(ReplicaError::SelfOutOfRange {
                index: self_index,
                peers: peers.len(),
            });
        }
        Self::build(peers, Some(self_index))
    }

    /// A client-side view: same peer list, no self identity.
    pub fn client_view(peers: Vec<String>) -> Result<Self, ReplicaError> {
        Self::build(peers, None)
    }

    fn build(peers: Vec<String>, self_index: Option<usize>) -> Result<Self, ReplicaError> {
        if peers.is_empty() {
            return Err(ReplicaError::NoPeers);
        }
        if peers.len() > MAX_PEERS {
            return Err(ReplicaError::TooManyPeers(peers.len()));
        }
        for (i, peer) in peers.iter().enumerate() {
            if peers[..i].contains(peer) {
                return Err(ReplicaError::DuplicatePeer(peer.clone()));
            }
        }
        let all_alive = if peers.len() == MAX_PEERS {
            u64::MAX
        } else {
            (1u64 << peers.len()) - 1
        };
        Ok(ReplicaSet {
            peers,
            self_index,
            alive: AtomicU64::new(all_alive),
            reviving: AtomicU64::new(0),
        })
    }

    /// The ordered peer addresses.
    pub fn peers(&self) -> &[String] {
        &self.peers
    }

    /// Number of peers (alive or not).
    pub fn len(&self) -> usize {
        self.peers.len()
    }

    /// Whether the set is empty (never true for a constructed set).
    pub fn is_empty(&self) -> bool {
        self.peers.is_empty()
    }

    /// This process's index (servers only).
    pub fn self_index(&self) -> Option<usize> {
        self.self_index
    }

    /// The index of `addr` in the peer list.
    pub fn index_of(&self, addr: &str) -> Option<usize> {
        self.peers.iter().position(|p| p == addr)
    }

    /// Whether peer `index` is currently believed alive.
    pub fn is_alive(&self, index: usize) -> bool {
        index < self.peers.len() && self.alive.load(Ordering::Acquire) & (1u64 << index) != 0
    }

    /// Mark peer `index` dead; returns whether it was alive or reviving.
    /// A mid-catch-up death cancels the revival: both bits clear, and the
    /// next responsive heartbeat starts a fresh handshake.
    pub fn mark_dead(&self, index: usize) -> bool {
        if index >= self.peers.len() {
            return false;
        }
        let bit = 1u64 << index;
        let was_reviving = self.reviving.fetch_and(!bit, Ordering::AcqRel) & bit != 0;
        let was_alive = self.alive.fetch_and(!bit, Ordering::AcqRel) & bit != 0;
        was_alive || was_reviving
    }

    /// Mark peer `index` alive again; returns whether the bit changed.
    ///
    /// Deliberately a no-op while the peer is mid-revival: successful
    /// ships to a catching-up peer must not promote it early — only
    /// [`ReplicaSet::promote_revived`] completes that transition.
    pub fn mark_alive(&self, index: usize) -> bool {
        if index >= self.peers.len() {
            return false;
        }
        let bit = 1u64 << index;
        if self.reviving.load(Ordering::Acquire) & bit != 0 {
            return false;
        }
        self.alive.fetch_or(bit, Ordering::AcqRel) & bit == 0
    }

    /// Whether peer `index` is mid-revival (responsive again but still
    /// catching up, excluded from owner selection).
    pub fn is_reviving(&self, index: usize) -> bool {
        index < self.peers.len() && self.reviving.load(Ordering::Acquire) & (1u64 << index) != 0
    }

    /// Begin the revival of a dead peer that answered a heartbeat again:
    /// set its reviving bit so the catch-up handshake can run while
    /// `owner_index` still routes around it. Returns `false` (and leaves
    /// the masks untouched) when the peer is already alive or already
    /// reviving — there is nothing to catch up, or someone else is on it.
    pub fn begin_revival(&self, index: usize) -> bool {
        if index >= self.peers.len() {
            return false;
        }
        let bit = 1u64 << index;
        if self.alive.load(Ordering::Acquire) & bit != 0 {
            return false;
        }
        if self.reviving.fetch_or(bit, Ordering::AcqRel) & bit != 0 {
            return false;
        }
        // Re-check after claiming the bit: a concurrent mark_alive that
        // slipped in between the load and the fetch_or wins, and the
        // claimed bit is rolled back.
        if self.alive.load(Ordering::Acquire) & bit != 0 {
            self.reviving.fetch_and(!bit, Ordering::AcqRel);
            return false;
        }
        true
    }

    /// Complete a revival: the catch-up diff drained, so move the peer
    /// from reviving to alive. Returns whether the peer was in fact
    /// reviving (a concurrent `mark_dead` cancels the promotion).
    pub fn promote_revived(&self, index: usize) -> bool {
        if index >= self.peers.len() {
            return false;
        }
        let bit = 1u64 << index;
        if self.reviving.fetch_and(!bit, Ordering::AcqRel) & bit == 0 {
            return false;
        }
        self.alive.fetch_or(bit, Ordering::AcqRel);
        true
    }

    /// The index of the peer that owns `key` under the current liveness
    /// view: the alive peer with the highest rendezvous weight. With every
    /// peer marked dead the mask is ignored (placement over the full set),
    /// so the function is total and callers always get a concrete target
    /// to try.
    pub fn owner_index(&self, key: &ModelKey) -> usize {
        let mask = self.alive.load(Ordering::Acquire);
        let pick = |use_mask: bool| {
            self.peers
                .iter()
                .enumerate()
                .filter(|(index, _)| !use_mask || mask & (1u64 << index) != 0)
                .max_by_key(|(index, peer)| (placement_weight(peer, key), usize::MAX - index))
                .map(|(index, _)| index)
        };
        pick(true)
            .or_else(|| pick(false))
            .expect("replica set is never empty")
    }

    /// The address of the peer that owns `key` under the current view.
    pub fn owner_addr(&self, key: &ModelKey) -> &str {
        &self.peers[self.owner_index(key)]
    }

    /// Whether this process owns `key` under the current view. A set with
    /// no self identity (a client view) owns nothing.
    pub fn owns(&self, key: &ModelKey) -> bool {
        self.self_index == Some(self.owner_index(key))
    }
}

/// One state-shipping event, carrying the exact persisted codec bytes.
///
/// `snapshot`/`weights` are the verbatim `QCFS` v2 / `QCFW` v2 payloads
/// the origin just wrote to its own store — receivers re-validate them
/// through the same codecs, so a shipped artifact is bit-identical to
/// the durable one or rejected typed.
#[derive(Debug, Clone, PartialEq)]
pub enum ShipEvent {
    /// A persisted (published or refined) feature snapshot plus the
    /// environment's knob vector (the `QVEC` sidecar content, needed so
    /// receivers can serve nearest-fingerprint transfer for the shipped
    /// environment too).
    Snapshot {
        /// The benchmark the snapshot belongs to.
        benchmark: qcfe_workloads::BenchmarkKind,
        /// The environment fingerprint it is keyed under.
        fingerprint: qcfe_db::env::EnvFingerprint,
        /// The verbatim `QCFS` v2 bytes.
        snapshot: Vec<u8>,
        /// The environment's knob vector (empty when unknown).
        knobs: Vec<f64>,
    },
    /// Persisted model weights.
    Model {
        /// The serving key the weights are published under.
        key: ModelKey,
        /// The verbatim `QCFW` v2 bytes.
        weights: Vec<u8>,
    },
}

/// Where the gateway hands freshly persisted state for replication.
///
/// Shipping is strictly fire-and-forget from the gateway's perspective:
/// the artifact is already durable locally when `ship` is called, and a
/// slow or dead peer must never fail (or block) the serving path, so
/// implementations enqueue and return. The network layer's `Replicator`
/// is the production implementation; tests install channel-backed sinks.
pub trait ReplicationSink: Send + Sync {
    /// Enqueue `event` for delivery to every peer.
    fn ship(&self, event: ShipEvent);

    /// Point-in-time replication health: ship outcomes, drops, probe
    /// failures and revival catch-up counters. The default (all zeros)
    /// suits test sinks that never drop; the production replicator reports
    /// its real counters so the gateway can surface silent replication
    /// loss.
    fn health(&self) -> crate::metrics::ReplicationHealth {
        crate::metrics::ReplicationHealth::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcfe_core::pipeline::EstimatorKind;
    use qcfe_db::env::EnvFingerprint;
    use qcfe_workloads::BenchmarkKind;

    fn peers(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("127.0.0.1:{}", 9000 + i)).collect()
    }

    fn key(fp: u64) -> ModelKey {
        ModelKey::new(
            BenchmarkKind::Sysbench,
            EstimatorKind::QcfeMscn,
            EnvFingerprint(fp),
        )
    }

    #[test]
    fn construction_rejects_malformed_sets() {
        assert_eq!(
            ReplicaSet::client_view(Vec::new()).unwrap_err(),
            ReplicaError::NoPeers
        );
        assert_eq!(
            ReplicaSet::new(peers(3), 3).unwrap_err(),
            ReplicaError::SelfOutOfRange { index: 3, peers: 3 }
        );
        assert!(matches!(
            ReplicaSet::client_view(peers(MAX_PEERS + 1)).unwrap_err(),
            ReplicaError::TooManyPeers(_)
        ));
        let mut dup = peers(3);
        dup.push(dup[0].clone());
        assert!(matches!(
            ReplicaSet::client_view(dup).unwrap_err(),
            ReplicaError::DuplicatePeer(_)
        ));
    }

    #[test]
    fn placement_is_deterministic_and_spreads_keys() {
        let set = ReplicaSet::new(peers(4), 0).unwrap();
        let mut owned = [0usize; 4];
        for fp in 0..400u64 {
            let owner = set.owner_index(&key(fp));
            assert_eq!(owner, set.owner_index(&key(fp)), "placement is stable");
            owned[owner] += 1;
        }
        for (index, count) in owned.iter().enumerate() {
            assert!(
                *count > 40,
                "peer {index} owns {count}/400 keys — placement is skewed: {owned:?}"
            );
        }
    }

    #[test]
    fn death_moves_only_the_dead_peers_keys() {
        let set = ReplicaSet::new(peers(5), 0).unwrap();
        let owners_before: Vec<usize> = (0..300).map(|fp| set.owner_index(&key(fp))).collect();
        assert!(set.mark_dead(2));
        assert!(!set.mark_dead(2), "second mark is a no-op");
        assert!((0..5).all(|i| set.is_alive(i) == (i != 2)));
        for (fp, before) in owners_before.iter().enumerate() {
            let after = set.owner_index(&key(fp as u64));
            if *before == 2 {
                assert_ne!(after, 2, "dead peer must not own keys");
            } else {
                assert_eq!(after, *before, "surviving placements must not move");
            }
        }
        assert!(set.mark_alive(2));
        for (fp, before) in owners_before.iter().enumerate() {
            assert_eq!(
                set.owner_index(&key(fp as u64)),
                *before,
                "revival restores"
            );
        }
    }

    #[test]
    fn all_dead_falls_back_to_full_set_placement() {
        let set = ReplicaSet::client_view(peers(3)).unwrap();
        let before = set.owner_index(&key(9));
        for i in 0..3 {
            set.mark_dead(i);
        }
        assert!((0..3).all(|i| !set.is_alive(i)));
        assert_eq!(set.owner_index(&key(9)), before, "total despite empty mask");
        assert!(!set.owns(&key(9)), "client views own nothing");
    }

    /// Satellite coverage: the reviving intermediate state. A reviving
    /// peer is excluded from owner selection exactly like a dead one,
    /// `mark_alive` cannot promote it early, and only `promote_revived`
    /// (or a cancelling `mark_dead`) moves it out of the state.
    #[test]
    fn reviving_peers_are_never_selected_until_promotion() {
        let set = ReplicaSet::new(peers(4), 0).unwrap();
        // Find a key owned by peer 2 so the exclusion is observable.
        let fp = (0..400u64)
            .find(|fp| set.owner_index(&key(*fp)) == 2)
            .expect("peer 2 owns something");

        // begin_revival on an alive peer is a no-op.
        assert!(!set.begin_revival(2), "alive peers need no catch-up");
        assert!(set.is_alive(2) && !set.is_reviving(2));

        // Dead → reviving: still routed around.
        assert!(set.mark_dead(2));
        assert!(set.begin_revival(2));
        assert!(!set.begin_revival(2), "revival is claimed once");
        assert!(set.is_reviving(2) && !set.is_alive(2));
        assert!((0..4).all(|i| set.is_reviving(i) == (i == 2)));
        assert_ne!(
            set.owner_index(&key(fp)),
            2,
            "a reviving peer must not be selected as owner"
        );

        // An incidental mark_alive (e.g. a successful ship) must not
        // promote a peer whose catch-up is still draining.
        assert!(!set.mark_alive(2));
        assert!(!set.is_alive(2) && set.is_reviving(2));
        assert_ne!(set.owner_index(&key(fp)), 2);

        // Promotion completes the transition and restores placement.
        assert!(set.promote_revived(2));
        assert!(!set.promote_revived(2), "promotion is one-shot");
        assert!(set.is_alive(2) && !set.is_reviving(2));
        assert_eq!(set.owner_index(&key(fp)), 2, "promotion restores the owner");
    }

    #[test]
    fn death_mid_revival_cancels_the_catch_up() {
        let set = ReplicaSet::new(peers(3), 0).unwrap();
        assert!(set.mark_dead(1));
        assert!(set.begin_revival(1));
        // The peer dies again mid-catch-up: both bits clear and the
        // pending promotion is void.
        assert!(set.mark_dead(1), "a reviving peer counts as marked");
        assert!(!set.is_reviving(1) && !set.is_alive(1));
        assert!(!set.promote_revived(1), "cancelled revivals cannot promote");
        assert!(!set.is_alive(1));
        // A fresh handshake can still run to completion afterwards.
        assert!(set.begin_revival(1));
        assert!(set.promote_revived(1));
        assert!(set.is_alive(1));
    }

    #[test]
    fn self_identity_and_address_lookup() {
        let set = ReplicaSet::new(peers(3), 1).unwrap();
        assert_eq!(set.self_index(), Some(1));
        assert_eq!(set.peers()[1], "127.0.0.1:9001");
        assert_eq!(set.index_of("127.0.0.1:9002"), Some(2));
        assert_eq!(set.index_of("10.0.0.1:1"), None);
        let k = key(17);
        assert_eq!(set.owns(&k), set.owner_index(&k) == 1);
        assert_eq!(set.owner_addr(&k), &set.peers()[set.owner_index(&k)]);
    }
}
