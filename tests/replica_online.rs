//! Acceptance tests of replicated serving: rendezvous placement under a
//! seeded 1000-case removal/stability property sweep (including the
//! revival *reviving* state, which placement must treat as dead until
//! promotion), the `QCFP` ship and manifest frames under the same
//! round-trip/corruption bar as the request codec, shipped `QCFS`/`QCFW`
//! state applying bit-identically on a second gateway, live `NotOwner`
//! redirects over TCP, and two headline drills: kill one of three local
//! replicas mid-load and watch the survivors absorb its shards from
//! shipped state with bit-identical estimates; then revive a killed
//! replica mid-load *after* its keys were re-published during the outage
//! and watch the anti-entropy catch-up handshake keep every estimate
//! fresh and bit-identical — not one stale read.

use qcfe::core::encoding::FeatureEncoder;
use qcfe::core::estimators::MscnEstimator;
use qcfe::core::model_codec::PersistedModel;
use qcfe::core::pipeline::{prepare_context, ContextConfig, EstimatorKind, ExperimentContext};
use qcfe::db::env::EnvFingerprint;
use qcfe::net::client::{ClientError, QcfeClient, ShardClient};
use qcfe::net::replicator::{Replicator, ReplicatorConfig};
use qcfe::net::server::{NetServerBuilder, ServerHandle};
use qcfe::net::wire::{
    self, Frame, WireError, WireFault, WireManifestEntry, WireManifestReply, WireManifestRequest,
    WireShipAck, WireShipModel, WireShipSnapshot, MAX_MANIFEST_ENTRIES, MAX_SHIP_BYTES,
};
use qcfe::serve::prelude::*;
use qcfe::serve::replica::{owner_among, placement_weight};
use qcfe::workloads::{run_timed_loop, BenchmarkKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const KIND: BenchmarkKind = BenchmarkKind::Sysbench;

/// Same acceptance bar as the `QCFP` request/response sweep in
/// `net_online.rs`: any placement or frame, deterministic/bit-exact; any
/// corruption, typed rejection.
const CASES: usize = 1000;

fn any_u64(rng: &mut StdRng) -> u64 {
    rng.gen_range(0..=u64::MAX)
}

fn random_key(rng: &mut StdRng) -> ModelKey {
    ModelKey::new(
        BenchmarkKind::ALL[rng.gen_range(0..BenchmarkKind::ALL.len())],
        EstimatorKind::ALL[rng.gen_range(0..EstimatorKind::ALL.len())],
        EnvFingerprint(any_u64(rng)),
    )
}

// ---------------------------------------------------------------------------
// Property sweep 1: rendezvous placement stability under peer removal.
// ---------------------------------------------------------------------------

/// Rendezvous placement is deterministic, agrees with the explicit
/// highest-weight/lowest-index rule, and is *minimally disruptive*:
/// removing a non-owner never moves a key, removing the owner moves it to
/// the survivor that already ranked second. The `ReplicaSet` liveness
/// mask must agree with `owner_among` over the alive subset, fall back
/// to the full set when everyone is marked dead, and exclude a peer
/// parked in the revival catch-up (*reviving*) state until it is
/// explicitly promoted.
#[test]
fn rendezvous_placement_is_stable_under_peer_removal() {
    let mut rng = StdRng::seed_from_u64(0x51AB1E);
    for case in 0..CASES {
        let n = rng.gen_range(2usize..=8);
        let peers: Vec<String> = (0..n)
            .map(|i| {
                format!(
                    "10.{}.{}.{i}:{}",
                    case % 200,
                    rng.gen_range(0u8..=255),
                    7000 + i
                )
            })
            .collect();
        let key = random_key(&mut rng);

        let owner = owner_among(&peers, &key).expect("non-empty peer set");
        assert_eq!(
            owner_among(&peers, &key),
            Some(owner),
            "case {case}: placement must be deterministic"
        );
        // Cross-check against the explicit rule the module documents:
        // highest weight wins, ties break to the smaller index.
        let best = (0..n)
            .max_by(|&a, &b| {
                placement_weight(&peers[a], &key)
                    .cmp(&placement_weight(&peers[b], &key))
                    .then(b.cmp(&a))
            })
            .unwrap();
        assert_eq!(owner, best, "case {case}: owner is the max-weight peer");

        // Removing a random non-owner never moves the key.
        let removed = {
            let r = rng.gen_range(0..n - 1);
            if r >= owner {
                r + 1
            } else {
                r
            }
        };
        let survivors: Vec<String> = peers
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != removed)
            .map(|(_, p)| p.clone())
            .collect();
        let moved = owner_among(&survivors, &key).unwrap();
        assert_eq!(
            survivors[moved], peers[owner],
            "case {case}: removing non-owner {removed} must not move the key"
        );

        // Removing the owner hands the key to the second-ranked peer.
        let without_owner: Vec<String> = peers
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != owner)
            .map(|(_, p)| p.clone())
            .collect();
        let heir = owner_among(&without_owner, &key).unwrap();
        let second = (0..n)
            .filter(|&i| i != owner)
            .max_by(|&a, &b| {
                placement_weight(&peers[a], &key)
                    .cmp(&placement_weight(&peers[b], &key))
                    .then(b.cmp(&a))
            })
            .unwrap();
        assert_eq!(
            without_owner[heir], peers[second],
            "case {case}: the owner's keys fall to the second-ranked survivor"
        );

        // The shared liveness view agrees with owner_among over the alive
        // subset, and ownership is a property of the self index.
        let view = ReplicaSet::client_view(peers.clone()).unwrap();
        view.mark_dead(removed);
        assert_eq!(
            view.peers()[view.owner_index(&key)],
            peers[owner],
            "case {case}: masked view agrees with list-level placement"
        );
        view.mark_alive(removed);
        view.mark_dead(owner);
        assert_eq!(
            view.peers()[view.owner_index(&key)],
            peers[second],
            "case {case}: masked view fails over to the second-ranked peer"
        );
        for i in 0..n {
            view.mark_dead(i);
        }
        assert_eq!(
            view.owner_index(&key),
            owner,
            "case {case}: an all-dead mask falls back to the full set"
        );

        // The *reviving* state of the anti-entropy handshake: a peer
        // mid-catch-up still serves the bytes from before its outage, so
        // placement must treat it exactly like a dead peer — and nothing
        // short of an explicit promotion may let it back in.
        for i in 0..n {
            view.mark_alive(i);
        }
        assert!(
            !view.begin_revival(owner),
            "case {case}: an alive peer has nothing to revive from"
        );
        view.mark_dead(owner);
        assert!(
            view.begin_revival(owner),
            "case {case}: a dead peer enters revival"
        );
        assert!(view.is_reviving(owner));
        assert_eq!(
            view.peers()[view.owner_index(&key)],
            peers[second],
            "case {case}: a reviving peer is never selected as owner"
        );
        assert!(
            !view.mark_alive(owner),
            "case {case}: a stray liveness probe cannot promote a reviving peer"
        );
        assert_eq!(
            view.peers()[view.owner_index(&key)],
            peers[second],
            "case {case}: still excluded after the stray mark_alive"
        );
        assert!(
            view.promote_revived(owner),
            "case {case}: promotion completes the revival"
        );
        assert!(!view.promote_revived(owner), "case {case}: exactly once");
        assert_eq!(
            view.peers()[view.owner_index(&key)],
            peers[owner],
            "case {case}: a promoted peer owns its keys again"
        );

        let as_owner = ReplicaSet::new(peers.clone(), owner).unwrap();
        let as_other = ReplicaSet::new(peers.clone(), (owner + 1) % n).unwrap();
        assert!(as_owner.owns(&key), "case {case}: the owner owns its key");
        assert!(
            !as_other.owns(&key),
            "case {case}: a non-owner must refuse the key"
        );
    }
}

// ---------------------------------------------------------------------------
// Property sweep 2: ship-frame round-trip + corruption rejection.
// ---------------------------------------------------------------------------

fn random_blob(rng: &mut StdRng, max: usize) -> Vec<u8> {
    let len = rng.gen_range(0..max);
    (0..len).map(|_| rng.gen_range(0u8..=255)).collect()
}

fn random_knobs(rng: &mut StdRng) -> Vec<f64> {
    (0..rng.gen_range(0usize..12))
        .map(|_| match rng.gen_range(0u8..5) {
            0 => f64::INFINITY,
            1 => -0.0,
            2 => f64::MIN_POSITIVE / 2.0,
            _ => rng.gen_range(-1e6f64..1e6),
        })
        .collect()
}

fn random_message(rng: &mut StdRng) -> String {
    let len = rng.gen_range(0usize..24);
    (0..len)
        .map(|_| char::from(b'a' + rng.gen_range(0u8..26)))
        .collect()
}

/// Every ship frame decodes back to an equal value and re-encodes to the
/// identical byte string; truncation, a flipped magic, an unknown version
/// and a random single-bit flip are each rejected with a typed error,
/// never a panic. Oversized payloads are refused at encode time.
#[test]
fn ship_frames_round_trip_bit_exactly_and_reject_corruption() {
    let mut rng = StdRng::seed_from_u64(0x51C0FE);
    for case in 0..CASES {
        let bytes = match case % 3 {
            0 => {
                let ship = WireShipSnapshot {
                    request_id: any_u64(&mut rng),
                    benchmark: BenchmarkKind::ALL[rng.gen_range(0..BenchmarkKind::ALL.len())],
                    fingerprint: any_u64(&mut rng),
                    knobs: random_knobs(&mut rng),
                    snapshot: random_blob(&mut rng, 1024),
                };
                let bytes = wire::encode_ship_snapshot(&ship).expect("encodable");
                match wire::decode_frame(&bytes).expect("decodable") {
                    Frame::ShipSnapshot(decoded) => {
                        assert_eq!(*decoded, ship, "case {case}: structural round-trip");
                        assert_eq!(
                            wire::encode_ship_snapshot(&decoded).expect("re-encodable"),
                            bytes,
                            "case {case}: bit-identical re-encode"
                        );
                    }
                    other => panic!("case {case}: wrong frame kind {other:?}"),
                }
                bytes
            }
            1 => {
                let ship = WireShipModel {
                    request_id: any_u64(&mut rng),
                    benchmark: BenchmarkKind::ALL[rng.gen_range(0..BenchmarkKind::ALL.len())],
                    estimator: EstimatorKind::ALL[rng.gen_range(0..EstimatorKind::ALL.len())],
                    fingerprint: any_u64(&mut rng),
                    weights: random_blob(&mut rng, 1024),
                };
                let bytes = wire::encode_ship_model(&ship).expect("encodable");
                match wire::decode_frame(&bytes).expect("decodable") {
                    Frame::ShipModel(decoded) => {
                        assert_eq!(*decoded, ship, "case {case}: structural round-trip");
                        assert_eq!(
                            wire::encode_ship_model(&decoded).expect("re-encodable"),
                            bytes,
                            "case {case}: bit-identical re-encode"
                        );
                    }
                    other => panic!("case {case}: wrong frame kind {other:?}"),
                }
                bytes
            }
            _ => {
                let ack = WireShipAck {
                    request_id: any_u64(&mut rng),
                    accepted: rng.gen_bool(0.5),
                    message: random_message(&mut rng),
                };
                let bytes = wire::encode_ship_ack(&ack).expect("encodable");
                match wire::decode_frame(&bytes).expect("decodable") {
                    Frame::ShipAck(decoded) => {
                        assert_eq!(decoded, ack, "case {case}: structural round-trip");
                        assert_eq!(
                            wire::encode_ship_ack(&decoded).expect("re-encodable"),
                            bytes,
                            "case {case}: bit-identical re-encode"
                        );
                    }
                    other => panic!("case {case}: wrong frame kind {other:?}"),
                }
                bytes
            }
        };
        assert_eq!(
            wire::frame_length(&bytes).expect("well-formed"),
            Some(bytes.len()),
            "case {case}: frame length self-describes"
        );

        match case % 4 {
            0 => {
                let cut = rng.gen_range(0..bytes.len());
                assert_eq!(
                    wire::frame_length(&bytes[..cut]).expect("prefix stays valid"),
                    None,
                    "case {case}: truncated frame reads as incomplete"
                );
                assert!(
                    wire::decode_frame(&bytes[..cut]).is_err(),
                    "case {case}: truncated frame must not decode"
                );
            }
            1 => {
                let mut corrupt = bytes.clone();
                let i = rng.gen_range(0usize..4);
                corrupt[i] ^= 1u8 << rng.gen_range(0u8..8);
                assert!(
                    matches!(wire::frame_length(&corrupt), Err(WireError::BadMagic(_))),
                    "case {case}: flipped magic must reject"
                );
            }
            2 => {
                let mut corrupt = bytes.clone();
                let version = rng.gen_range(2u32..u32::MAX);
                corrupt[4..8].copy_from_slice(&version.to_le_bytes());
                assert_eq!(
                    wire::frame_length(&corrupt),
                    Err(WireError::UnsupportedVersion(version)),
                    "case {case}: unknown version must reject"
                );
            }
            _ => {
                let mut corrupt = bytes.clone();
                let i = rng.gen_range(0..corrupt.len());
                corrupt[i] ^= 1u8 << rng.gen_range(0u8..8);
                assert!(
                    wire::decode_frame(&corrupt).is_err(),
                    "case {case}: single-bit flip at {i} must not decode"
                );
            }
        }
    }

    // The ship size cap is enforced at encode time: an oversized payload
    // must never reach a peer as a giant frame.
    let oversized = WireShipModel {
        request_id: 1,
        benchmark: KIND,
        estimator: EstimatorKind::QcfeMscn,
        fingerprint: 7,
        weights: vec![0u8; MAX_SHIP_BYTES + 1],
    };
    assert!(matches!(
        wire::encode_ship_model(&oversized),
        Err(WireError::ShipTooLarge { .. })
    ));
}

// ---------------------------------------------------------------------------
// Property sweep 3: manifest-frame round-trip + corruption rejection.
// ---------------------------------------------------------------------------

fn random_manifest_entry(rng: &mut StdRng) -> WireManifestEntry {
    let benchmark = BenchmarkKind::ALL[rng.gen_range(0..BenchmarkKind::ALL.len())];
    if rng.gen_bool(0.5) {
        WireManifestEntry::Snapshot {
            benchmark,
            fingerprint: any_u64(rng),
            crc: rng.gen_range(0..=u32::MAX),
        }
    } else {
        WireManifestEntry::Model {
            benchmark,
            estimator: EstimatorKind::ALL[rng.gen_range(0..EstimatorKind::ALL.len())],
            fingerprint: any_u64(rng),
            crc: rng.gen_range(0..=u32::MAX),
        }
    }
}

/// The revival catch-up frames under the `net_online.rs` bar: every
/// manifest request/reply decodes back to an equal value (entries in
/// exactly the order encoded — the store's deterministic manifest order
/// must survive the wire verbatim, or two peers would diff phantom
/// divergence) and re-encodes to the identical byte string; truncation, a
/// flipped magic, an unknown version and a random single-byte flip are
/// each rejected with a typed error, never a panic. The entry-count cap
/// is enforced at encode time too.
#[test]
fn manifest_frames_round_trip_bit_exactly_and_reject_corruption() {
    let mut rng = StdRng::seed_from_u64(0xCA7C11);
    for case in 0..CASES {
        let bytes = if case % 5 == 0 {
            let request = WireManifestRequest {
                request_id: any_u64(&mut rng),
            };
            let bytes = wire::encode_manifest_request(&request).expect("encodable");
            match wire::decode_frame(&bytes).expect("decodable") {
                Frame::ManifestRequest(decoded) => {
                    assert_eq!(decoded, request, "case {case}: structural round-trip");
                    assert_eq!(
                        wire::encode_manifest_request(&decoded).expect("re-encodable"),
                        bytes,
                        "case {case}: bit-identical re-encode"
                    );
                }
                other => panic!("case {case}: wrong frame kind {other:?}"),
            }
            bytes
        } else {
            let reply = WireManifestReply {
                request_id: any_u64(&mut rng),
                entries: (0..rng.gen_range(0usize..48))
                    .map(|_| random_manifest_entry(&mut rng))
                    .collect(),
            };
            let bytes = wire::encode_manifest_reply(&reply).expect("encodable");
            match wire::decode_frame(&bytes).expect("decodable") {
                Frame::ManifestReply(decoded) => {
                    // Vec equality is order-sensitive: the deterministic
                    // manifest order is preserved entry for entry.
                    assert_eq!(decoded, reply, "case {case}: ordered structural round-trip");
                    assert_eq!(
                        wire::encode_manifest_reply(&decoded).expect("re-encodable"),
                        bytes,
                        "case {case}: bit-identical re-encode"
                    );
                }
                other => panic!("case {case}: wrong frame kind {other:?}"),
            }
            bytes
        };
        assert_eq!(
            wire::frame_length(&bytes).expect("well-formed"),
            Some(bytes.len()),
            "case {case}: frame length self-describes"
        );

        match case % 4 {
            0 => {
                let cut = rng.gen_range(0..bytes.len());
                assert_eq!(
                    wire::frame_length(&bytes[..cut]).expect("prefix stays valid"),
                    None,
                    "case {case}: truncated frame reads as incomplete"
                );
                assert!(
                    wire::decode_frame(&bytes[..cut]).is_err(),
                    "case {case}: truncated frame must not decode"
                );
            }
            1 => {
                let mut corrupt = bytes.clone();
                let i = rng.gen_range(0usize..4);
                corrupt[i] ^= 1u8 << rng.gen_range(0u8..8);
                assert!(
                    matches!(wire::frame_length(&corrupt), Err(WireError::BadMagic(_))),
                    "case {case}: flipped magic must reject"
                );
            }
            2 => {
                let mut corrupt = bytes.clone();
                let version = rng.gen_range(2u32..u32::MAX);
                corrupt[4..8].copy_from_slice(&version.to_le_bytes());
                assert_eq!(
                    wire::frame_length(&corrupt),
                    Err(WireError::UnsupportedVersion(version)),
                    "case {case}: unknown version must reject"
                );
            }
            _ => {
                let mut corrupt = bytes.clone();
                let i = rng.gen_range(0..corrupt.len());
                corrupt[i] ^= 1u8 << rng.gen_range(0u8..8);
                assert!(
                    wire::decode_frame(&corrupt).is_err(),
                    "case {case}: single-bit flip at {i} must not decode"
                );
            }
        }
    }

    // The entry-count cap is enforced before any bytes travel: a store
    // beyond the cap must surface a typed error, not a giant frame.
    let oversized = WireManifestReply {
        request_id: 1,
        entries: vec![
            WireManifestEntry::Snapshot {
                benchmark: KIND,
                fingerprint: 7,
                crc: 0,
            };
            MAX_MANIFEST_ENTRIES + 1
        ],
    };
    assert!(matches!(
        wire::encode_manifest_reply(&oversized),
        Err(WireError::ListTooLong { .. })
    ));
}

// ---------------------------------------------------------------------------
// Live fixtures (same shape as net_online.rs).
// ---------------------------------------------------------------------------

fn ctx_with_envs(environments: usize) -> ExperimentContext {
    prepare_context(
        KIND,
        &ContextConfig {
            environments,
            queries_per_env: 30,
            template_scale: 1,
            seed: 91,
            data_scale: KIND.quick_scale(),
        },
    )
}

/// The concrete estimator (not a type-erased `CostModel`): replication
/// ships persisted `QCFW` weights, so the tests need the publishable form.
fn train_mscn(ctx: &ExperimentContext) -> MscnEstimator {
    let mut rng = StdRng::seed_from_u64(8);
    let encoder = FeatureEncoder::new(&ctx.benchmark.catalog, true);
    let (model, _) = MscnEstimator::train(
        encoder,
        &ctx.workload,
        Some(&ctx.snapshots_fso),
        None,
        12,
        &mut rng,
    );
    model
}

/// A store directory under the temp dir, named per process: a stale one
/// from an earlier run is removed on creation, and the directory itself
/// when the guard drops, at the end of its test or during a panic's
/// unwinding. Declare it before the gateways, replicators and servers
/// that use it, so that they drop (and stop writing) first.
struct TempStore(PathBuf);

impl TempStore {
    fn new(tag: &str) -> Self {
        let path =
            std::env::temp_dir().join(format!("qcfe-replica-it-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        let _ = std::fs::remove_file(&path);
        TempStore(path)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempStore {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn small_service() -> ServiceConfig {
    ServiceConfig {
        workers: 2,
        queue_capacity: 256,
        max_batch: 16,
        encoding_cache_capacity: 1024,
    }
}

/// Reserve `n` distinct local TCP addresses by binding ephemeral
/// listeners, then releasing them for the servers to re-bind.
fn reserve_addrs(n: usize) -> Vec<String> {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind ephemeral"))
        .collect();
    listeners
        .iter()
        .map(|l| l.local_addr().expect("local addr").to_string())
        .collect()
}

/// One replica-set member over the store at `dir`: the shared liveness
/// set, its replicator, a gateway and a TCP server. Both drills build
/// every node through it, a restarted victim included.
fn start_node(
    peers: &[String],
    i: usize,
    dir: &Path,
) -> (Arc<ReplicaSet>, Replicator, Arc<QcfeGateway>, ServerHandle) {
    let set = Arc::new(ReplicaSet::new(peers.to_vec(), i).unwrap());
    let replicator = Replicator::start(
        Arc::clone(&set),
        ReplicatorConfig {
            heartbeat: Duration::from_millis(100),
            connect_timeout: Duration::from_millis(100),
        },
        SnapshotStore::open(dir).unwrap(),
    );
    let gateway = Arc::new(
        QcfeGateway::builder(dir)
            .service_config(small_service())
            .replication(Arc::clone(&set), replicator.sink())
            .build()
            .unwrap(),
    );
    let server = NetServerBuilder::new(Arc::clone(&gateway))
        .tcp(peers[i].clone())
        .replica(Arc::clone(&set))
        .max_connections(64)
        .start()
        .unwrap();
    (set, replicator, gateway, server)
}

/// An in-memory `ReplicationSink` that records every shipped event, for
/// driving `apply_shipped_*` without a network in between.
#[derive(Default)]
struct CollectSink {
    events: Mutex<Vec<ShipEvent>>,
}

impl ReplicationSink for CollectSink {
    fn ship(&self, event: ShipEvent) {
        self.events.lock().unwrap().push(event);
    }
}

// ---------------------------------------------------------------------------
// Shipped state applies bit-identically.
// ---------------------------------------------------------------------------

/// Everything a publishing gateway ships, a second gateway can apply —
/// and the two then serve bit-identical estimates, because the shipped
/// bytes ARE the persisted `QCFS`/`QCFW` codecs. Corrupted payloads are
/// rejected typed before anything is persisted.
#[test]
fn shipped_state_applies_bit_identically_and_rejects_corruption_typed() {
    let ctx = ctx_with_envs(2);
    let model = train_mscn(&ctx);
    let sink = Arc::new(CollectSink::default());
    let replicas =
        Arc::new(ReplicaSet::new(vec!["127.0.0.1:1".into(), "127.0.0.1:2".into()], 0).unwrap());
    let dir_a = TempStore::new("apply-a");
    let source = QcfeGateway::builder(dir_a.path())
        .service_config(small_service())
        .replication(Arc::clone(&replicas), Arc::clone(&sink) as _)
        .build()
        .unwrap();

    for (env, snapshot) in ctx
        .workload
        .environments
        .iter()
        .zip(ctx.snapshots_fso.iter())
    {
        let snapshot = snapshot.as_ref().expect("fitted");
        source.publish_snapshot(KIND, env, snapshot).unwrap();
        source
            .publish_model(
                ModelKey::new(KIND, EstimatorKind::QcfeMscn, env.fingerprint()),
                PersistedModel::Mscn(model.clone()),
            )
            .unwrap();
    }
    let events: Vec<ShipEvent> = std::mem::take(&mut *sink.events.lock().unwrap());
    assert_eq!(
        events.len(),
        2 * ctx.workload.environments.len(),
        "one snapshot and one model shipped per environment"
    );
    assert_eq!(source.stats().ships_emitted, events.len() as u64);

    // A second gateway over an empty store absorbs the shipped events.
    let dir_b = TempStore::new("apply-b");
    let target = QcfeGateway::builder(dir_b.path())
        .service_config(small_service())
        .build()
        .unwrap();
    for event in &events {
        match event {
            ShipEvent::Snapshot {
                benchmark,
                fingerprint,
                snapshot,
                knobs,
            } => target
                .apply_shipped_snapshot(*benchmark, *fingerprint, snapshot, knobs)
                .unwrap(),
            ShipEvent::Model { key, weights } => target.apply_shipped_model(*key, weights).unwrap(),
        }
    }
    assert_eq!(target.stats().ships_applied, events.len() as u64);

    for env in &ctx.workload.environments {
        let env = Arc::new(env.clone());
        for labeled in ctx.workload.queries.iter().take(4) {
            let request =
                EstimateRequest::new(KIND, Arc::clone(&env), labeled.executed.root.clone());
            let a = source.estimate(request.clone()).unwrap();
            let b = target.estimate(request).unwrap();
            assert_eq!(
                a.cost_ms.to_bits(),
                b.cost_ms.to_bits(),
                "absorbed state must serve bit-identical estimates"
            );
        }
    }

    // Corruption: a flipped byte deep in the payload fails codec
    // validation typed, and nothing is persisted under the key.
    let dir_c = TempStore::new("apply-c");
    let fresh = QcfeGateway::builder(dir_c.path())
        .service_config(small_service())
        .build()
        .unwrap();
    let unseen = EnvFingerprint(0xDEAD_BEEF_0BAD_CAFE);
    for event in &events {
        match event {
            ShipEvent::Snapshot {
                snapshot, knobs, ..
            } => {
                // QCFS validation is structural (magic, version, exact
                // framing); exercise each gate.
                let mut bad_magic = snapshot.clone();
                bad_magic[0] ^= 0x40;
                let mut bad_version = snapshot.clone();
                bad_version[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
                let truncated = &snapshot[..snapshot.len() - 3];
                for corrupt in [&bad_magic[..], &bad_version[..], truncated] {
                    assert!(matches!(
                        fresh.apply_shipped_snapshot(KIND, unseen, corrupt, knobs),
                        Err(QcfeError::Store(_))
                    ));
                }
                assert!(
                    !fresh.store().contains(KIND, unseen),
                    "a rejected snapshot must not be persisted"
                );
            }
            ShipEvent::Model { key, weights } => {
                let mut corrupt = weights.clone();
                let mid = corrupt.len() / 2;
                corrupt[mid] ^= 0x40;
                let key = ModelKey::new(key.benchmark, key.estimator, unseen);
                assert!(matches!(
                    fresh.apply_shipped_model(key, &corrupt),
                    Err(QcfeError::Store(_))
                ));
                assert!(
                    !fresh
                        .store()
                        .contains_model(key.benchmark, key.estimator, unseen),
                    "rejected weights must not be persisted"
                );
            }
        }
    }
    assert_eq!(fresh.stats().ships_applied, 0);
}

// ---------------------------------------------------------------------------
// Live NotOwner redirects over TCP.
// ---------------------------------------------------------------------------

/// A replica refuses another alive peer's key with a typed
/// `NotOwner { owner }` fault naming the right peer, and `ShardClient`
/// follows the redirect to a bit-identical answer.
#[test]
fn requests_for_another_peers_key_redirect_with_a_typed_not_owner_fault() {
    let ctx = ctx_with_envs(1);
    let model = train_mscn(&ctx);
    let peers = reserve_addrs(2);
    let env = Arc::new(ctx.workload.environments[0].clone());
    let snapshot = ctx.snapshots_fso[0].as_ref().expect("fitted");
    let key = ModelKey::new(KIND, EstimatorKind::QcfeMscn, env.fingerprint());
    let owner = owner_among(&peers, &key).unwrap();
    let other = 1 - owner;

    let dirs: Vec<TempStore> = (0..peers.len())
        .map(|i| TempStore::new(&format!("redirect-{i}")))
        .collect();
    let mut gateways = Vec::new();
    let mut servers = Vec::new();
    for (i, addr) in peers.iter().enumerate() {
        let gateway = Arc::new(
            QcfeGateway::builder(dirs[i].path())
                .service_config(small_service())
                .build()
                .unwrap(),
        );
        gateway.publish_snapshot(KIND, &env, snapshot).unwrap();
        gateway
            .publish_model(key, PersistedModel::Mscn(model.clone()))
            .unwrap();
        let set = Arc::new(ReplicaSet::new(peers.clone(), i).unwrap());
        let server = NetServerBuilder::new(Arc::clone(&gateway))
            .tcp(addr.clone())
            .replica(set)
            .start()
            .unwrap();
        gateways.push(gateway);
        servers.push(server);
    }

    let plan = ctx.workload.queries[0].executed.root.clone();
    let request = EstimateRequest::new(KIND, Arc::clone(&env), plan);
    let expected = gateways[owner].estimate(request.clone()).unwrap();

    // Straight at the wrong peer: a typed redirect naming the owner.
    let mut direct = QcfeClient::connect_tcp(peers[other].as_str()).unwrap();
    direct
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    match direct.estimate(&request) {
        Err(ClientError::Fault(WireFault::NotOwner { owner: named })) => {
            assert_eq!(
                named, peers[owner],
                "the redirect names the owner's address"
            )
        }
        other => panic!("expected a NotOwner fault, got {other:?}"),
    }

    // Straight at the owner: served, bit-identical to in-process.
    let mut at_owner = QcfeClient::connect_tcp(peers[owner].as_str()).unwrap();
    at_owner
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let served = at_owner.estimate(&request).unwrap();
    assert_eq!(served.cost_ms.to_bits(), expected.cost_ms.to_bits());

    // A ShardClient whose stale liveness view routes to the wrong peer
    // follows the redirect and still lands the bit-identical answer.
    let view = Arc::new(ReplicaSet::client_view(peers.clone()).unwrap());
    view.mark_dead(owner);
    let mut shard_client = ShardClient::new(Arc::clone(&view))
        .read_timeout(Some(Duration::from_secs(30)))
        .attempt_backoff(Duration::from_millis(10));
    let routed = shard_client.estimate(&request).unwrap();
    assert_eq!(routed.cost_ms.to_bits(), expected.cost_ms.to_bits());
    assert!(
        shard_client.stats().redirects >= 1,
        "the stale route must have been redirected"
    );
    assert!(
        view.is_alive(owner),
        "a successful redirect revives the owner in the client's view"
    );

    let other_stats = servers.swap_remove(other).join().unwrap();
    assert!(
        other_stats.not_owner_redirects >= 2,
        "the non-owner refused both misrouted requests, got {}",
        other_stats.not_owner_redirects
    );
    servers.pop().unwrap().join().unwrap();
}

// ---------------------------------------------------------------------------
// Headline: kill a replica mid-load, survivors absorb its shards.
// ---------------------------------------------------------------------------

/// Three local replicas serve a sharded store under closed-loop load; one
/// is killed mid-load. Every request completes or fails typed (the timed
/// loop returning at all proves nothing hung), and after failover the
/// survivors serve the dead peer's keys from shipped `QCFS`/`QCFW` state
/// with bit-identical estimates.
#[test]
fn killing_a_replica_mid_load_fails_over_with_bit_identical_estimates() {
    const REPLICAS: usize = 3;
    let ctx = ctx_with_envs(3);
    let model = train_mscn(&ctx);
    let peers = reserve_addrs(REPLICAS);

    let dirs: Vec<TempStore> = (0..REPLICAS)
        .map(|i| TempStore::new(&format!("failover-{i}")))
        .collect();
    let mut replicators = Vec::new();
    let mut gateways = Vec::new();
    let mut servers: Vec<Option<ServerHandle>> = Vec::new();
    for (i, dir) in dirs.iter().enumerate() {
        let (_, replicator, gateway, server) = start_node(&peers, i, dir.path());
        replicators.push(Some(replicator));
        gateways.push(gateway);
        servers.push(Some(server));
    }

    // Publish every environment through its rendezvous owner only; the
    // replicators ship the persisted bytes to the other two.
    let keys: Vec<ModelKey> = ctx
        .workload
        .environments
        .iter()
        .map(|env| ModelKey::new(KIND, EstimatorKind::QcfeMscn, env.fingerprint()))
        .collect();
    for ((env, snapshot), key) in ctx
        .workload
        .environments
        .iter()
        .zip(ctx.snapshots_fso.iter())
        .zip(keys.iter())
    {
        let owner = owner_among(&peers, key).unwrap();
        gateways[owner]
            .publish_snapshot(KIND, env, snapshot.as_ref().expect("fitted"))
            .unwrap();
        gateways[owner]
            .publish_model(*key, PersistedModel::Mscn(model.clone()))
            .unwrap();
    }

    // Replication is asynchronous; wait until every peer's store holds
    // every environment's snapshot AND weights before pulling the plug.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let converged = gateways.iter().all(|g| {
            keys.iter().all(|key| {
                g.store().contains(KIND, key.fingerprint)
                    && g.store()
                        .contains_model(key.benchmark, key.estimator, key.fingerprint)
            })
        });
        if converged {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "replication did not converge within 30s"
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    // Fixed probes, measured before the kill through the sharded client.
    let probes: Vec<EstimateRequest> = ctx
        .workload
        .environments
        .iter()
        .flat_map(|env| {
            let env = Arc::new(env.clone());
            ctx.workload.queries.iter().take(2).map(move |labeled| {
                EstimateRequest::new(KIND, Arc::clone(&env), labeled.executed.root.clone())
            })
        })
        .collect();
    let shard_client = || {
        ShardClient::new(Arc::new(ReplicaSet::client_view(peers.clone()).unwrap()))
            .read_timeout(Some(Duration::from_secs(5)))
            .attempt_backoff(Duration::from_millis(50))
    };
    let mut probe_client = shard_client();
    let before: Vec<u64> = probes
        .iter()
        .map(|r| probe_client.estimate(r).unwrap().cost_ms.to_bits())
        .collect();

    // The victim owns the environment the load targets, so in-flight
    // requests are mid-failover when it dies.
    let victim = owner_among(&peers, &keys[0]).unwrap();
    let load_env = Arc::new(ctx.workload.environments[0].clone());
    let db = ctx
        .benchmark
        .build_database(ctx.workload.environments[0].clone());
    let victim_server = Mutex::new(servers[victim].take());
    let victim_replicator = Mutex::new(replicators[victim].take());

    const LOAD_CLIENTS: usize = 4;
    let pool = Mutex::new(
        (0..LOAD_CLIENTS)
            .map(|_| shard_client())
            .collect::<Vec<_>>(),
    );
    // Placement follows the (ephemeral) peer addresses, so some runs hand
    // the victim every key — then the victim is the only publisher that
    // shipped anything, and its counter must be read before the kill
    // thread drops its replicator.
    let victim_ships = Mutex::new(0u64);
    let report = std::thread::scope(|scope| {
        scope.spawn(|| {
            std::thread::sleep(Duration::from_millis(800));
            if let Some(handle) = victim_server.lock().unwrap().take() {
                handle.join().unwrap();
            }
            if let Some(replicator) = victim_replicator.lock().unwrap().take() {
                *victim_ships.lock().unwrap() = replicator.stats().ships_sent;
            }
        });
        run_timed_loop(
            &ctx.benchmark,
            LOAD_CLIENTS,
            Duration::from_millis(2500),
            0xFA11,
            |query| {
                let plan = db.plan(&query).map_err(|e| e.to_string())?;
                let request = EstimateRequest::new(KIND, Arc::clone(&load_env), plan);
                let mut client = pool.lock().unwrap().pop().expect("client available");
                let result = client.estimate(&request);
                pool.lock().unwrap().push(client);
                result.map(|r| r.cost_ms).map_err(|e| e.to_string())
            },
        )
    });

    assert!(
        report.completed > 0,
        "the loop must keep completing requests across the kill"
    );
    assert_eq!(
        report.completed + report.errors,
        report.latencies_ms.len() + report.errors,
        "every submitted request is accounted for"
    );

    // After failover a fresh client reaches every key on the survivors,
    // and the absorbed shards answer bit-identically to the pre-kill run.
    let mut after_client = shard_client();
    for (request, expected) in probes.iter().zip(before.iter()) {
        let response = after_client.estimate(request).unwrap();
        assert_eq!(
            response.cost_ms.to_bits(),
            *expected,
            "post-failover estimates must be bit-identical"
        );
    }
    assert!(
        !after_client.replicas().is_alive(victim),
        "the client must have learned the victim is dead"
    );

    // The publishing owners shipped real state and nothing was silently
    // dropped (the victim's deliveries count too — see above).
    let shipped: u64 = replicators
        .iter()
        .flatten()
        .map(|r| r.stats().ships_sent)
        .sum::<u64>()
        + *victim_ships.lock().unwrap();
    assert!(shipped > 0, "the publishing owners must have shipped state");
    for (i, server) in servers.iter_mut().enumerate() {
        if let Some(handle) = server.take() {
            let stats = handle.join().unwrap();
            assert_eq!(
                stats.ships_rejected, 0,
                "replica {i} must not have rejected any shipped state"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Headline 2: revive a replica mid-load after its keys were re-published.
// ---------------------------------------------------------------------------

/// The anti-entropy drill. Three replicas converge, then the owner of the
/// load key is killed; while it is down, its key's snapshot *and* model
/// are re-published on the failover owner (so the victim's disk is now
/// stale for that key). The victim is restarted mid-load over its old
/// store.
///
/// Before the catch-up handshake existed, this was the staleness hole PR
/// 9 shipped with: the first heartbeat that reconnected flipped the
/// victim straight back into every survivor's alive mask, `NotOwner`
/// redirects sent the load back to it, and it served the pre-outage
/// estimate bytes — this test's mid-load bit-identity check counted
/// stale reads until the re-publish happened to be repeated. With the
/// handshake, a revived peer parks in the *reviving* state (never routed
/// to), the survivors diff store manifests and re-ship the divergent
/// snapshot + weights, and only then promote it — so the drill asserts
/// the strict post-fix contract: **zero** stale estimates at any point,
/// and the revived peer's post-promotion answers bit-identical to the
/// re-publishing owner's.
#[test]
fn reviving_a_replica_mid_load_catches_up_before_serving() {
    const REPLICAS: usize = 3;
    let ctx = ctx_with_envs(3);
    let model = train_mscn(&ctx);
    let peers = reserve_addrs(REPLICAS);
    let dirs: Vec<TempStore> = (0..REPLICAS)
        .map(|i| TempStore::new(&format!("revive-{i}")))
        .collect();

    // The victim is restarted through the same constructor, over the same
    // directory.
    let mut sets = Vec::new();
    let mut replicators = Vec::new();
    let mut gateways = Vec::new();
    let mut servers: Vec<Option<ServerHandle>> = Vec::new();
    for (i, dir) in dirs.iter().enumerate() {
        let (set, replicator, gateway, server) = start_node(&peers, i, dir.path());
        sets.push(set);
        replicators.push(Some(replicator));
        gateways.push(gateway);
        servers.push(Some(server));
    }

    // Publish every environment through its rendezvous owner and wait for
    // full store convergence, exactly like the failover drill.
    let keys: Vec<ModelKey> = ctx
        .workload
        .environments
        .iter()
        .map(|env| ModelKey::new(KIND, EstimatorKind::QcfeMscn, env.fingerprint()))
        .collect();
    for ((env, snapshot), key) in ctx
        .workload
        .environments
        .iter()
        .zip(ctx.snapshots_fso.iter())
        .zip(keys.iter())
    {
        let owner = owner_among(&peers, key).unwrap();
        gateways[owner]
            .publish_snapshot(KIND, env, snapshot.as_ref().expect("fitted"))
            .unwrap();
        gateways[owner]
            .publish_model(*key, PersistedModel::Mscn(model.clone()))
            .unwrap();
    }
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let converged = gateways.iter().all(|g| {
            keys.iter().all(|key| {
                g.store().contains(KIND, key.fingerprint)
                    && g.store()
                        .contains_model(key.benchmark, key.estimator, key.fingerprint)
            })
        });
        if converged {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "replication did not converge within 30s"
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    let victim = owner_among(&peers, &keys[0]).unwrap();
    let survivors: Vec<usize> = (0..REPLICAS).filter(|&i| i != victim).collect();
    // The failover owner (second-ranked peer) will re-publish during the
    // outage. Known before the kill, because placement is deterministic.
    let heir = {
        let survivor_addrs: Vec<String> = survivors.iter().map(|&s| peers[s].clone()).collect();
        survivors[owner_among(&survivor_addrs, &keys[0]).unwrap()]
    };
    // Baselines are probed in-process on the *other* survivor: a gateway
    // shard keeps the model it started with until it is retired, so
    // probing the heir here would warm a shard that later masks its own
    // re-publish (registry updates only reach new shard starts).
    let reference = *survivors.iter().find(|&&s| s != heir).unwrap();
    let load_env = Arc::new(ctx.workload.environments[0].clone());
    let load_probes: Vec<EstimateRequest> = ctx
        .workload
        .queries
        .iter()
        .take(4)
        .map(|labeled| {
            EstimateRequest::new(KIND, Arc::clone(&load_env), labeled.executed.root.clone())
        })
        .collect();
    let other_probes: Vec<EstimateRequest> = ctx.workload.environments[1..]
        .iter()
        .flat_map(|env| {
            let env = Arc::new(env.clone());
            ctx.workload.queries.iter().take(2).map(move |labeled| {
                EstimateRequest::new(KIND, Arc::clone(&env), labeled.executed.root.clone())
            })
        })
        .collect();

    // Pre-outage baselines (every store is converged, so any member
    // serves the same bits).
    let stale_bits: Vec<u64> = load_probes
        .iter()
        .map(|r| {
            gateways[reference]
                .estimate(r.clone())
                .unwrap()
                .cost_ms
                .to_bits()
        })
        .collect();
    let other_bits: Vec<u64> = other_probes
        .iter()
        .map(|r| {
            gateways[reference]
                .estimate(r.clone())
                .unwrap()
                .cost_ms
                .to_bits()
        })
        .collect();

    // Kill the victim (graceful: the server drains, the replicator
    // stops), and wait until every survivor's heartbeat has noticed.
    servers[victim].take().unwrap().join().unwrap();
    replicators[victim].take();
    let deadline = Instant::now() + Duration::from_secs(30);
    while survivors.iter().any(|&s| sets[s].is_alive(victim)) {
        assert!(
            Instant::now() < deadline,
            "survivors did not notice the kill within 30s"
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    // During the outage, the load key's state moves on without the
    // victim: the failover owner re-publishes a different fitted snapshot
    // and a retrained model under the same fingerprint. The victim's
    // store is now stale for exactly these two artifacts.
    assert_eq!(
        sets[heir].owner_index(&keys[0]),
        heir,
        "the masked view must hand the load key to the predicted heir"
    );
    let refit_model = {
        let mut rng = StdRng::seed_from_u64(99);
        let encoder = FeatureEncoder::new(&ctx.benchmark.catalog, true);
        MscnEstimator::train(
            encoder,
            &ctx.workload,
            Some(&ctx.snapshots_fso),
            None,
            14,
            &mut rng,
        )
        .0
    };
    gateways[heir]
        .publish_snapshot(
            KIND,
            &ctx.workload.environments[0],
            ctx.snapshots_fso[1].as_ref().expect("fitted"),
        )
        .unwrap();
    gateways[heir]
        .publish_model(keys[0], PersistedModel::Mscn(refit_model))
        .unwrap();

    // Both survivors must hold the re-published bytes before the load
    // starts — the deterministic store manifest is the convergence check.
    let deadline = Instant::now() + Duration::from_secs(30);
    while gateways[survivors[0]].store().manifest().unwrap()
        != gateways[survivors[1]].store().manifest().unwrap()
    {
        assert!(
            Instant::now() < deadline,
            "survivors did not converge on the re-published state within 30s"
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    // The fresh reference bits, and proof the re-publish actually moved
    // the estimates — otherwise the stale-read check below is vacuous.
    let fresh_bits: Vec<u64> = load_probes
        .iter()
        .map(|r| {
            gateways[heir]
                .estimate(r.clone())
                .unwrap()
                .cost_ms
                .to_bits()
        })
        .collect();
    assert_ne!(
        stale_bits, fresh_bits,
        "the re-publish must change the served estimates"
    );

    // Closed-loop load over the survivors; the victim is restarted over
    // its stale store mid-load. Every networked answer is compared
    // bit-for-bit against the heir's in-process answer at that moment —
    // any divergence is a stale read (all converged members serve
    // identical bits, so only a pre-catch-up victim can differ).
    let db = ctx
        .benchmark
        .build_database(ctx.workload.environments[0].clone());
    const LOAD_CLIENTS: usize = 4;
    let shard_client = || {
        ShardClient::new(Arc::new(ReplicaSet::client_view(peers.clone()).unwrap()))
            .read_timeout(Some(Duration::from_secs(5)))
            .attempt_backoff(Duration::from_millis(50))
    };
    let pool = Mutex::new(
        (0..LOAD_CLIENTS)
            .map(|_| shard_client())
            .collect::<Vec<_>>(),
    );
    let stale_reads = AtomicU64::new(0);
    let revived = Mutex::new(None);
    let report = std::thread::scope(|scope| {
        scope.spawn(|| {
            std::thread::sleep(Duration::from_millis(1000));
            *revived.lock().unwrap() = Some(start_node(&peers, victim, dirs[victim].path()));
        });
        run_timed_loop(
            &ctx.benchmark,
            LOAD_CLIENTS,
            Duration::from_millis(4000),
            0x2EB1BE,
            |query| {
                let plan = db.plan(&query).map_err(|e| e.to_string())?;
                let request = EstimateRequest::new(KIND, Arc::clone(&load_env), plan);
                let expected = gateways[heir]
                    .estimate(request.clone())
                    .map_err(|e| e.to_string())?;
                let mut client = pool.lock().unwrap().pop().expect("client available");
                let result = client.estimate(&request);
                pool.lock().unwrap().push(client);
                let response = result.map_err(|e| e.to_string())?;
                if response.cost_ms.to_bits() != expected.cost_ms.to_bits() {
                    stale_reads.fetch_add(1, Ordering::Relaxed);
                }
                Ok(response.cost_ms)
            },
        )
    });
    let (revived_set, revived_replicator, revived_gateway, revived_server) =
        revived.into_inner().unwrap().expect("revival thread ran");

    assert!(
        report.completed > 0,
        "the loop must keep completing requests across the revival"
    );
    assert_eq!(
        stale_reads.load(Ordering::Relaxed),
        0,
        "no request may ever see pre-outage bits: the reviving victim \
         must stay out of placement until its catch-up drains"
    );

    // Promotion lands on every survivor (each runs its own handshake
    // from its own store), and the victim's disk converges to the
    // re-published manifest.
    let deadline = Instant::now() + Duration::from_secs(30);
    while !survivors
        .iter()
        .all(|&s| sets[s].is_alive(victim) && !sets[s].is_reviving(victim))
    {
        assert!(
            Instant::now() < deadline,
            "survivors did not promote the revived victim within 30s"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    let deadline = Instant::now() + Duration::from_secs(30);
    while revived_gateway.store().manifest().unwrap() != gateways[heir].store().manifest().unwrap()
    {
        assert!(
            Instant::now() < deadline,
            "the revived store did not converge to the heir's manifest within 30s"
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    // A fresh client (all-alive view) routes the load key straight to the
    // revived victim: post-promotion it must serve the *re-published*
    // bits, bit-identical to the heir — and the untouched keys still
    // serve their pre-outage bits.
    let mut after_client = shard_client();
    for (request, expected) in load_probes.iter().zip(fresh_bits.iter()) {
        let response = after_client.estimate(request).unwrap();
        assert_eq!(
            response.cost_ms.to_bits(),
            *expected,
            "the revived owner must serve the re-published state bit-identically"
        );
    }
    for (request, expected) in other_probes.iter().zip(other_bits.iter()) {
        let response = after_client.estimate(request).unwrap();
        assert_eq!(
            response.cost_ms.to_bits(),
            *expected,
            "keys untouched by the outage must be unchanged"
        );
    }
    assert!(
        after_client.replicas().is_alive(victim),
        "nothing the fresh client saw may have looked dead"
    );

    // The catch-up really ran: each survivor exchanged a manifest and
    // completed a revival, the divergent snapshot + weights were
    // re-shipped at least once in total, and the counters surface
    // operator-visibly through GatewayStats.replication.
    let mut total_reshipped = 0u64;
    for &s in &survivors {
        let stats = replicators[s].as_ref().unwrap().stats();
        assert!(
            stats.manifests_exchanged >= 1,
            "survivor {s} must have interrogated the revived peer"
        );
        assert!(
            stats.revivals >= 1,
            "survivor {s} must have completed a revival"
        );
        assert_eq!(stats.ships_rejected, 0, "no re-ship may have been rejected");
        total_reshipped += stats.keys_reshipped;
        let health = gateways[s].stats().replication;
        assert_eq!(health.manifests_exchanged, stats.manifests_exchanged);
        assert_eq!(health.keys_reshipped, stats.keys_reshipped);
        assert_eq!(health.revivals, stats.revivals);
        assert_eq!(
            health.ships_dropped,
            replicators[s].as_ref().unwrap().stats().ships_dropped,
            "queue drops surface through the gateway too"
        );
    }
    assert!(
        total_reshipped >= 2,
        "the stale snapshot and the stale weights must both have been re-shipped, \
         got {total_reshipped}"
    );

    // Teardown; the revived server answered manifest interrogations and
    // served post-promotion traffic.
    drop(revived_replicator);
    let revived_stats = revived_server.join().unwrap();
    assert!(
        revived_stats.manifests_served >= 1,
        "the revived server must have answered at least one manifest request"
    );
    assert!(
        revived_stats.responses_ok >= 1,
        "the revived server must have served requests after promotion"
    );
    assert_eq!(
        revived_stats.ships_rejected, 0,
        "the revived server must have accepted every catch-up re-ship"
    );
    drop(revived_set);
    drop(revived_gateway);
    for server in servers.iter_mut() {
        if let Some(handle) = server.take() {
            handle.join().unwrap();
        }
    }
}
