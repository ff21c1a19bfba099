//! Acceptance tests of the `qcfe-net` front end: the `QCFP` wire codec
//! under a seeded 1000-case round-trip/corruption property sweep, the
//! pipelining client's write and read buffers against a bare socket, and
//! the reactor server driven live over Unix-domain and TCP sockets — ≥64
//! concurrent pipelined clients, responses bit-identical to in-process
//! `QcfeGateway::estimate` calls, typed rejection of malformed frames,
//! the wire-level deadline clamp, and graceful shutdown draining
//! in-flight requests.

use qcfe::core::cost_model::{CostModel, PlanEncoding};
use qcfe::core::encoding::FeatureEncoder;
use qcfe::core::estimators::{MscnEstimator, QppNetEstimator};
use qcfe::core::pipeline::{prepare_context, ContextConfig, EstimatorKind, ExperimentContext};
use qcfe::db::env::{DbEnvironment, EnvFingerprint, HardwareProfile};
use qcfe::db::expr::{ColumnRef, CompareOp, JoinCondition, Predicate};
use qcfe::db::plan::{PhysicalOp, PlanNode};
use qcfe::db::query::Aggregate;
use qcfe::db::types::Value;
use qcfe::net::client::{ClientError, QcfeClient};
use qcfe::net::server::NetServerBuilder;
use qcfe::net::wire::{
    self, Frame, WireError, WireEstimate, WireFault, WireRequest, WireResponse, MAX_DEADLINE_US,
    PRELUDE_LEN,
};
use qcfe::nn::codec::crc32;
use qcfe::serve::prelude::*;
use qcfe::serve::SnapshotOrigin;
use qcfe::workloads::BenchmarkKind;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{ErrorKind, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

const KIND: BenchmarkKind = BenchmarkKind::Sysbench;

/// The codec property sweep runs the same case count as the `QCFW`
/// weight-codec properties: the acceptance bar for the wire format is
/// "any frame, bit-exact; any corruption, typed rejection".
const QCFP_CASES: usize = 1000;

// ---------------------------------------------------------------------------
// Seeded generators for the property sweep.
// ---------------------------------------------------------------------------

/// Full-width draws (the workspace `rand` shim has no `gen()`; an
/// inclusive full range falls through to the raw 64-bit stream).
fn any_u64(rng: &mut StdRng) -> u64 {
    rng.gen_range(0..=u64::MAX)
}

fn any_u32(rng: &mut StdRng) -> u32 {
    rng.gen_range(0..=u32::MAX)
}

fn any_i64(rng: &mut StdRng) -> i64 {
    any_u64(rng) as i64
}

fn random_string(rng: &mut StdRng) -> String {
    let len = rng.gen_range(0usize..12);
    (0..len)
        .map(|_| char::from(b'a' + rng.gen_range(0u8..26)))
        .collect()
}

fn random_column(rng: &mut StdRng) -> ColumnRef {
    ColumnRef::new(random_string(rng), random_string(rng))
}

fn random_value(rng: &mut StdRng) -> Value {
    match rng.gen_range(0u8..6) {
        0 => Value::Int(any_i64(rng)),
        1 => Value::Float(rng.gen_range(-1e9f64..1e9)),
        2 => Value::Text(random_string(rng)),
        3 => Value::Date(rng.gen_range(-100_000i64..100_000)),
        4 => Value::Bool(rng.gen_bool(0.5)),
        _ => Value::Null,
    }
}

fn random_predicate(rng: &mut StdRng) -> Predicate {
    match rng.gen_range(0u8..4) {
        0 => Predicate::Compare {
            column: random_column(rng),
            op: CompareOp::ALL[rng.gen_range(0..CompareOp::ALL.len())],
            value: random_value(rng),
        },
        1 => Predicate::Between {
            column: random_column(rng),
            low: random_value(rng),
            high: random_value(rng),
        },
        2 => Predicate::InList {
            column: random_column(rng),
            values: (0..rng.gen_range(0usize..5))
                .map(|_| random_value(rng))
                .collect(),
        },
        _ => Predicate::Like {
            column: random_column(rng),
            pattern: format!("%{}%", random_string(rng)),
        },
    }
}

fn random_join(rng: &mut StdRng) -> JoinCondition {
    JoinCondition {
        left: random_column(rng),
        right: random_column(rng),
    }
}

fn random_plan(rng: &mut StdRng, depth: usize) -> PlanNode {
    let leaf = depth == 0 || rng.gen_bool(0.4);
    let (op, children) = if leaf {
        let op = if rng.gen_bool(0.5) {
            PhysicalOp::SeqScan {
                table: random_string(rng),
            }
        } else {
            PhysicalOp::IndexScan {
                table: random_string(rng),
                column: random_string(rng),
            }
        };
        (op, vec![])
    } else {
        match rng.gen_range(0u8..7) {
            0 => (
                PhysicalOp::Sort {
                    keys: (0..rng.gen_range(0usize..4))
                        .map(|_| random_column(rng))
                        .collect(),
                },
                vec![random_plan(rng, depth - 1)],
            ),
            1 => (
                PhysicalOp::Aggregate {
                    group_by: (0..rng.gen_range(0usize..3))
                        .map(|_| random_column(rng))
                        .collect(),
                    functions: (0..rng.gen_range(0usize..3))
                        .map(|_| match rng.gen_range(0u8..5) {
                            0 => Aggregate::CountStar,
                            1 => Aggregate::Sum(random_column(rng)),
                            2 => Aggregate::Avg(random_column(rng)),
                            3 => Aggregate::Min(random_column(rng)),
                            _ => Aggregate::Max(random_column(rng)),
                        })
                        .collect(),
                },
                vec![random_plan(rng, depth - 1)],
            ),
            2 => (
                PhysicalOp::HashJoin {
                    condition: random_join(rng),
                },
                vec![random_plan(rng, depth - 1), random_plan(rng, depth - 1)],
            ),
            3 => (
                PhysicalOp::MergeJoin {
                    condition: random_join(rng),
                },
                vec![random_plan(rng, depth - 1), random_plan(rng, depth - 1)],
            ),
            4 => (
                PhysicalOp::NestedLoop {
                    condition: rng.gen_bool(0.5).then(|| random_join(rng)),
                },
                vec![random_plan(rng, depth - 1), random_plan(rng, depth - 1)],
            ),
            5 => (PhysicalOp::Materialize, vec![random_plan(rng, depth - 1)]),
            _ => (
                PhysicalOp::Limit {
                    count: any_u64(rng),
                },
                vec![random_plan(rng, depth - 1)],
            ),
        }
    };
    let mut node = PlanNode::new(op, children);
    node.predicates = (0..rng.gen_range(0usize..3))
        .map(|_| random_predicate(rng))
        .collect();
    node.est_rows = rng.gen_range(0.0f64..1e8);
    node.est_width = rng.gen_range(1.0f64..512.0);
    node.est_cost = rng.gen_range(0.0f64..1e9);
    node.actual_rows = rng.gen_range(0.0f64..1e8);
    node.actual_self_ms = rng.gen_range(0.0f64..1e5);
    node.actual_total_ms = rng.gen_range(0.0f64..1e6);
    node
}

fn random_environment(rng: &mut StdRng) -> DbEnvironment {
    let hardware = HardwareProfile::sample(rng);
    DbEnvironment::sample_knob_configs(1, hardware, rng)
        .pop()
        .expect("one environment")
}

fn random_request(rng: &mut StdRng) -> WireRequest {
    WireRequest {
        request_id: any_u64(rng),
        benchmark: BenchmarkKind::ALL[rng.gen_range(0..BenchmarkKind::ALL.len())],
        estimator: EstimatorKind::ALL[rng.gen_range(0..EstimatorKind::ALL.len())],
        allow_transfer: rng.gen_bool(0.5),
        shed_load: rng.gen_bool(0.5),
        deadline_us: rng
            .gen_bool(0.5)
            .then(|| rng.gen_range(0..=MAX_DEADLINE_US)),
        tenant: if rng.gen_bool(0.5) {
            rng.gen_range(1..=u32::MAX)
        } else {
            0
        },
        environment: random_environment(rng),
        plan: random_plan(rng, 3),
    }
}

fn random_response(rng: &mut StdRng) -> WireResponse {
    let outcome = if rng.gen_bool(0.6) {
        // Special float shapes (infinities, signed zero, subnormals) mixed
        // with ordinary magnitudes: the codec must carry each bit pattern.
        let cost_ms = match rng.gen_range(0u8..5) {
            0 => f64::INFINITY,
            1 => -0.0,
            2 => f64::MIN_POSITIVE / 2.0,
            _ => rng.gen_range(-1e6f64..1e6),
        };
        Ok(WireEstimate {
            cost_ms,
            batch_size: any_u32(rng),
            encoding_cache_hit: rng.gen_bool(0.5),
            model_from_disk: rng.gen_bool(0.5),
            refined: rng.gen_bool(0.5),
            cold_start: rng.gen_bool(0.5),
            benchmark: BenchmarkKind::ALL[rng.gen_range(0..BenchmarkKind::ALL.len())],
            estimator: EstimatorKind::ALL[rng.gen_range(0..EstimatorKind::ALL.len())],
            fingerprint: any_u64(rng),
            origin: match rng.gen_range(0u8..4) {
                0 => SnapshotOrigin::TrainedHere,
                1 => SnapshotOrigin::Transferred {
                    source: EnvFingerprint(any_u64(rng)),
                    distance: rng.gen_range(0.0f64..10.0),
                },
                2 => SnapshotOrigin::LoadedFromDisk,
                _ => SnapshotOrigin::None,
            },
            service_us: any_u64(rng),
            total_us: any_u64(rng),
        })
    } else {
        Err(match rng.gen_range(0u8..7) {
            0 => WireFault::ServiceClosed,
            1 => WireFault::QueueFull {
                depth: any_u64(rng),
                limit: any_u64(rng),
            },
            2 => WireFault::SnapshotMissing {
                benchmark: BenchmarkKind::ALL[rng.gen_range(0..BenchmarkKind::ALL.len())],
                fingerprint: any_u64(rng),
            },
            3 => WireFault::ModelMissing {
                benchmark: BenchmarkKind::ALL[rng.gen_range(0..BenchmarkKind::ALL.len())],
                estimator: EstimatorKind::ALL[rng.gen_range(0..EstimatorKind::ALL.len())],
                fingerprint: any_u64(rng),
            },
            4 => WireFault::DeadlineExceeded {
                elapsed_us: any_u64(rng),
                deadline_us: any_u64(rng),
            },
            5 => WireFault::Store {
                message: random_string(rng),
            },
            _ => WireFault::BadRequest {
                message: random_string(rng),
            },
        })
    };
    WireResponse {
        request_id: any_u64(rng),
        outcome,
    }
}

// ---------------------------------------------------------------------------
// Property sweep: 1000 seeded round-trip + corruption cases.
// ---------------------------------------------------------------------------

/// Every random frame decodes back to an equal value AND re-encodes to the
/// identical byte string (bit identity — raw `f64` bits, not semantic
/// equality); every corruption — truncation, flipped magic, unknown
/// version, a random single-byte flip — is rejected with a typed error,
/// never a panic.
#[test]
fn qcfp_frames_round_trip_bit_exactly_and_reject_corruption() {
    let mut rng = StdRng::seed_from_u64(0xC0FE);
    for case in 0..QCFP_CASES {
        let bytes = if case % 2 == 0 {
            let request = random_request(&mut rng);
            let bytes = wire::encode_request(&request).expect("encodable");
            match wire::decode_frame(&bytes).expect("decodable") {
                Frame::Request(decoded) => {
                    assert_eq!(*decoded, request, "case {case}: structural round-trip");
                    assert_eq!(
                        wire::encode_request(&decoded).expect("re-encodable"),
                        bytes,
                        "case {case}: bit-identical re-encode"
                    );
                }
                other => panic!("case {case}: wrong frame kind {other:?}"),
            }
            bytes
        } else {
            let response = random_response(&mut rng);
            let bytes = wire::encode_response(&response).expect("encodable");
            match wire::decode_frame(&bytes).expect("decodable") {
                Frame::Response(decoded) => {
                    assert_eq!(
                        wire::encode_response(&decoded).expect("re-encodable"),
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
                // Truncation at a random point is "incomplete", and a
                // truncated decode is a typed Truncated error.
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
                // A single flipped bit anywhere must yield a typed error
                // (CRC-32 catches every single-byte body corruption; the
                // prelude fields each have their own check).
                let mut corrupt = bytes.clone();
                let i = rng.gen_range(0..corrupt.len());
                corrupt[i] ^= 1u8 << rng.gen_range(0u8..8);
                assert!(
                    wire::decode_frame(&corrupt).is_err(),
                    "case {case}: single-byte flip at {i} must not decode"
                );
            }
        }
    }
}

/// The client's borrowed encoder writes exactly the frame of the owned
/// path — `encode_request` of `WireRequest::from_estimate_request` — for
/// any request, and refuses an out-of-range deadline the same way.
#[test]
fn borrowed_request_encoder_is_byte_identical_to_encode_request() {
    let mut rng = StdRng::seed_from_u64(0xB0AA);
    for case in 0..QCFP_CASES {
        let wire_request = random_request(&mut rng);
        let id = wire_request.request_id;
        let mut request = wire_request.into_estimate_request();
        if case % 10 == 9 {
            let micros = MAX_DEADLINE_US + 1 + rng.gen_range(0..=u32::MAX as u64);
            request.deadline = Some(Duration::from_micros(micros));
        }
        let owned = WireRequest::from_estimate_request(id, &request)
            .and_then(|wire_request| wire::encode_request(&wire_request));
        assert_eq!(
            wire::encode_estimate_request(id, &request),
            owned,
            "case {case}: borrowed and owned encoders disagree"
        );
    }
}

// ---------------------------------------------------------------------------
// The pipelining client against a bare socket.
// ---------------------------------------------------------------------------

/// A client connected to a bare `UnixListener`, and the accepted socket.
/// The socket file is removed once the connection is up.
fn client_and_peer(tag: &str) -> (QcfeClient, UnixStream) {
    let socket = temp_path(tag);
    let listener = UnixListener::bind(&socket).unwrap();
    let mut client = QcfeClient::connect_uds(&socket).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let (peer, _) = listener.accept().unwrap();
    peer.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    std::fs::remove_file(&socket).unwrap();
    (client, peer)
}

fn assert_nothing_to_read(peer: &mut UnixStream, when: &str) {
    peer.set_nonblocking(true).unwrap();
    let err = peer.read(&mut [0u8; 1]).unwrap_err();
    assert_eq!(err.kind(), ErrorKind::WouldBlock, "{when}");
    peer.set_nonblocking(false).unwrap();
}

/// `send` only buffers: nothing reaches the socket until `flush`, which
/// then delivers exactly the N frames `encode_estimate_request` makes for
/// ids 1..=N, in order.
#[test]
fn client_sends_leave_only_at_flush_byte_identical_to_the_encoder() {
    const N: u64 = 12;
    let (mut client, mut peer) = client_and_peer("pipeline-send.sock");
    let mut rng = StdRng::seed_from_u64(0x5E4D);
    let requests: Vec<EstimateRequest> = (0..N)
        .map(|_| random_request(&mut rng).into_estimate_request())
        .collect();
    let ids: Vec<u64> = requests.iter().map(|r| client.send(r).unwrap()).collect();
    assert_eq!(ids, (1..=N).collect::<Vec<u64>>());
    assert_nothing_to_read(&mut peer, "sent requests wait for a flush");

    std::thread::scope(|scope| {
        // The frames may outgrow the socket buffer: read while flushing.
        let flushed = scope.spawn(|| client.flush());
        let mut buf = Vec::new();
        for (id, request) in (1..=N).zip(&requests) {
            let want = wire::encode_estimate_request(id, request).unwrap();
            while wire::frame_length(&buf).unwrap().is_none() {
                let mut chunk = [0u8; 4096];
                let n = peer.read(&mut chunk).unwrap();
                assert!(n > 0, "client hung up before frame {id}");
                buf.extend_from_slice(&chunk[..n]);
            }
            let len = wire::frame_length(&buf).unwrap().unwrap();
            assert_eq!(
                buf[..len],
                want[..],
                "frame {id} differs from the encoder's"
            );
            buf.drain(..len);
        }
        assert!(buf.is_empty(), "{} bytes past frame {N}", buf.len());
        flushed.join().unwrap().unwrap();
    });
    assert_nothing_to_read(&mut peer, "exactly N frames per flush");
    client.flush().unwrap();
    assert_nothing_to_read(&mut peer, "a flush of an empty buffer writes nothing");
}

/// Response frames written in chunks cut at seeded byte boundaries come
/// back from `recv` in order and bit-identical; the partial frame a read
/// leaves after the last complete one is kept for the next call.
#[test]
fn client_recv_reassembles_responses_cut_at_seeded_boundaries() {
    const N: usize = 40;
    let (mut client, mut peer) = client_and_peer("pipeline-recv.sock");
    let mut rng = StdRng::seed_from_u64(0xC4C4);
    let frames: Vec<Vec<u8>> = (1..=N as u64)
        .map(|id| {
            let response = WireResponse {
                request_id: id,
                ..random_response(&mut rng)
            };
            wire::encode_response(&response).unwrap()
        })
        .collect();
    let ends: Vec<usize> = frames
        .iter()
        .scan(0, |end, frame| {
            *end += frame.len();
            Some(*end)
        })
        .collect();
    let bytes = frames.concat();
    let mut cuts: Vec<usize> = (0..2 * N)
        .map(|_| rng.gen_range(1..bytes.len()))
        .chain([bytes.len()])
        .collect();
    cuts.sort_unstable();
    cuts.dedup();

    let (mut written, mut received, mut tails_kept) = (0, 0, 0);
    for cut in cuts {
        peer.write_all(&bytes[written..cut]).unwrap();
        written = cut;
        let before = received;
        // Every frame complete on the socket comes back, in order.
        while received < N && ends[received] <= written {
            let response = client.recv().unwrap();
            assert_eq!(response.request_id, received as u64 + 1, "in order");
            assert_eq!(wire::encode_response(&response).unwrap(), frames[received]);
            received += 1;
        }
        // Its last read took the bytes after the last complete frame too.
        if received > before && received < N && written > ends[received - 1] {
            tails_kept += 1;
        }
    }
    assert_eq!(received, N);
    assert!(tails_kept > 0, "no cut left a partial frame behind a read");
}

// ---------------------------------------------------------------------------
// Live-server fixtures.
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

fn train_mscn(ctx: &ExperimentContext) -> Arc<dyn CostModel> {
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
    Arc::new(model)
}

fn train_qpp(ctx: &ExperimentContext) -> Arc<dyn CostModel> {
    let mut rng = StdRng::seed_from_u64(9);
    let encoder = FeatureEncoder::new(&ctx.benchmark.catalog, true);
    let mut model = QppNetEstimator::new(encoder, None, &mut rng);
    model.train(&ctx.workload, Some(&ctx.snapshots_fso), 2, &mut rng);
    Arc::new(model)
}

fn temp_path(tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("qcfe-net-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&path);
    let _ = std::fs::remove_file(&path);
    path
}

/// A gateway serving QCFE(mscn) and QCFE(qpp) for every environment of
/// `ctx`.
fn served_gateway(ctx: &ExperimentContext, dir: &PathBuf) -> Arc<QcfeGateway> {
    let models = [
        (EstimatorKind::QcfeMscn, train_mscn(ctx)),
        (EstimatorKind::QcfeQpp, train_qpp(ctx)),
    ];
    let gateway = Arc::new(
        QcfeGateway::builder(dir)
            .service_config(ServiceConfig {
                workers: 2,
                queue_capacity: 256,
                max_batch: 16,
                encoding_cache_capacity: 1024,
            })
            .build()
            .unwrap(),
    );
    for (env, snapshot) in ctx
        .workload
        .environments
        .iter()
        .zip(ctx.snapshots_fso.iter())
    {
        gateway
            .publish_snapshot(KIND, env, snapshot.as_ref().expect("fitted"))
            .unwrap();
        for (estimator, model) in &models {
            gateway.register_model(
                ModelKey::new(KIND, *estimator, env.fingerprint()),
                Arc::clone(model),
            );
        }
    }
    gateway
}

/// Tentpole acceptance criterion: `qcfe-net` serves ≥64 concurrent
/// pipelined Unix-domain clients from one reactor thread, half of them
/// asking for QCFE(mscn) and half for QCFE(qpp), and every remote estimate
/// is bit-identical to the same request made in-process on the same
/// gateway.
#[test]
fn uds_server_is_bit_identical_to_in_process_gateway_for_64_pipelined_clients() {
    const CLIENTS: usize = 64;
    const REQUESTS_PER_CLIENT: usize = 4;

    let ctx = ctx_with_envs(2);
    let dir = temp_path("uds-store");
    let gateway = served_gateway(&ctx, &dir);
    let socket = temp_path("uds.sock");
    let server = NetServerBuilder::new(Arc::clone(&gateway))
        .uds(&socket)
        .max_connections(CLIENTS + 8)
        .start()
        .unwrap();

    // Expected values straight from the in-process front door, same
    // gateway, same shards.
    let environments: Vec<Arc<DbEnvironment>> = ctx
        .workload
        .environments
        .iter()
        .map(|e| Arc::new(e.clone()))
        .collect();
    let plans: Vec<PlanNode> = ctx
        .workload
        .queries
        .iter()
        .take(REQUESTS_PER_CLIENT)
        .map(|q| q.executed.root.clone())
        .collect();
    let requests: Vec<EstimateRequest> = (0..CLIENTS)
        .flat_map(|c| {
            let env = Arc::clone(&environments[c % environments.len()]);
            let estimator = if (c / environments.len()).is_multiple_of(2) {
                EstimatorKind::QcfeMscn
            } else {
                EstimatorKind::QcfeQpp
            };
            plans.iter().map(move |plan| {
                EstimateRequest::new(KIND, Arc::clone(&env), plan.clone()).with_estimator(estimator)
            })
        })
        .collect();
    let expected: Vec<EstimateResponse> = requests
        .iter()
        .map(|r| gateway.estimate(r.clone()).unwrap())
        .collect();

    std::thread::scope(|scope| {
        for client_index in 0..CLIENTS {
            let socket = &socket;
            let requests = &requests[client_index * REQUESTS_PER_CLIENT..][..REQUESTS_PER_CLIENT];
            let expected = &expected[client_index * REQUESTS_PER_CLIENT..][..REQUESTS_PER_CLIENT];
            scope.spawn(move || {
                let mut client = QcfeClient::connect_uds(socket).unwrap();
                client
                    .set_read_timeout(Some(Duration::from_secs(60)))
                    .unwrap();
                // Pipeline the whole batch before reaping anything.
                let ids: Vec<u64> = requests.iter().map(|r| client.send(r).unwrap()).collect();
                let mut answered = 0usize;
                while answered < requests.len() {
                    let response = client.recv().unwrap();
                    let slot = ids
                        .iter()
                        .position(|id| *id == response.request_id)
                        .expect("response id matches a sent request");
                    let estimate = response.outcome.expect("estimate, not a fault");
                    let want = &expected[slot];
                    assert_eq!(
                        estimate.cost_ms.to_bits(),
                        want.cost_ms.to_bits(),
                        "remote estimate must be bit-identical to in-process"
                    );
                    assert_eq!(
                        EnvFingerprint(estimate.fingerprint),
                        want.provenance.model_key.fingerprint,
                        "served by the same shard key"
                    );
                    assert_eq!(estimate.benchmark, want.provenance.model_key.benchmark);
                    assert_eq!(estimate.estimator, want.provenance.model_key.estimator);
                    answered += 1;
                }
            });
        }
    });

    let stats = server.join().unwrap();
    assert_eq!(stats.connections_accepted, CLIENTS as u64);
    assert_eq!(stats.responses_ok, (CLIENTS * REQUESTS_PER_CLIENT) as u64);
    assert_eq!(stats.responses_fault, 0);
    assert_eq!(stats.protocol_errors, 0);
    assert!(!socket.exists(), "socket file cleaned up on shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The same reactor serves TCP: a loopback round trip is bit-identical to
/// the in-process estimate, and a graceful shutdown drains before the
/// handle's join returns.
#[test]
fn tcp_round_trip_matches_in_process_and_shuts_down_gracefully() {
    let ctx = ctx_with_envs(1);
    let dir = temp_path("tcp-store");
    let gateway = served_gateway(&ctx, &dir);
    let server = NetServerBuilder::new(Arc::clone(&gateway))
        .tcp("127.0.0.1:0")
        .start()
        .unwrap();
    let addr = server.tcp_addrs()[0];

    let env = ctx.workload.environments[0].clone();
    let plan = ctx.workload.queries[0].executed.root.clone();
    let request = EstimateRequest::new(KIND, env, plan);
    let expected = gateway.estimate(request.clone()).unwrap();

    let mut client = QcfeClient::connect_tcp(addr).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let response = client.estimate(&request).unwrap();
    assert_eq!(response.cost_ms.to_bits(), expected.cost_ms.to_bits());
    assert_eq!(response.provenance.model_key, expected.provenance.model_key);

    let stats = server.join().unwrap();
    assert_eq!(stats.responses_ok, 1);
    // The listener is gone after a graceful shutdown.
    assert!(
        std::net::TcpStream::connect_timeout(&addr, Duration::from_millis(500)).is_err(),
        "no listener after shutdown"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Malformed input over a live connection: a broken envelope gets a
/// best-effort error frame and the connection closes; a verified envelope
/// with an invalid payload gets a typed `BadRequest` with the authentic
/// request id and the connection survives to serve real traffic.
#[test]
fn malformed_frames_are_rejected_typed_over_the_wire() {
    let ctx = ctx_with_envs(1);
    let dir = temp_path("malformed-store");
    let gateway = served_gateway(&ctx, &dir);
    let socket = temp_path("malformed.sock");
    let server = NetServerBuilder::new(Arc::clone(&gateway))
        .uds(&socket)
        .start()
        .unwrap();

    let env = ctx.workload.environments[0].clone();
    let plan = ctx.workload.queries[0].executed.root.clone();
    let request = EstimateRequest::new(KIND, env, plan);

    // 1. Garbage bytes: error frame with id 0, then the server hangs up.
    {
        let mut raw = std::os::unix::net::UnixStream::connect(&socket).unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        raw.write_all(b"definitely not a QCFP frame").unwrap();
        let mut buf = Vec::new();
        let mut chunk = [0u8; 4096];
        loop {
            match raw.read(&mut chunk) {
                Ok(0) => break,
                Ok(n) => buf.extend_from_slice(&chunk[..n]),
                Err(e) => panic!("read error before close: {e}"),
            }
        }
        match wire::decode_frame(&buf).unwrap() {
            Frame::Response(response) => {
                assert_eq!(response.request_id, 0, "stream desync answers id 0");
                assert!(
                    matches!(response.outcome, Err(WireFault::BadRequest { .. })),
                    "expected BadRequest, got {:?}",
                    response.outcome
                );
            }
            other => panic!("expected a response frame, got {other:?}"),
        }
    }

    // 2. Valid envelope, hostile payload: patch the wire deadline beyond
    //    the 60 s clamp and re-seal the CRC. The server must answer a
    //    typed BadRequest naming the deadline, with the authentic id, and
    //    keep the connection serving.
    {
        let mut wire_request = WireRequest::from_estimate_request(77, &request).unwrap();
        wire_request.deadline_us = Some(1);
        let mut bytes = wire::encode_request(&wire_request).unwrap();
        // kind(1) + flags(1) + id(8) + benchmark(1) + estimator(1) +
        // options(1) + has_deadline(1) puts the micros field at body
        // offset 14.
        let offset = PRELUDE_LEN + 14;
        bytes[offset..offset + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        let crc = crc32(&bytes[PRELUDE_LEN..]);
        bytes[12..16].copy_from_slice(&crc.to_le_bytes());

        let mut raw = std::os::unix::net::UnixStream::connect(&socket).unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        raw.write_all(&bytes).unwrap();
        let mut buf = Vec::new();
        let mut chunk = [0u8; 4096];
        let fault_frame = loop {
            if let Some(len) = wire::frame_length(&buf).unwrap() {
                break buf.drain(..len).collect::<Vec<u8>>();
            }
            let n = raw.read(&mut chunk).unwrap();
            assert!(n > 0, "server must answer, not hang up");
            buf.extend_from_slice(&chunk[..n]);
        };
        match wire::decode_frame(&fault_frame).unwrap() {
            Frame::Response(response) => {
                assert_eq!(response.request_id, 77, "authentic id echoed");
                match response.outcome {
                    Err(WireFault::BadRequest { message }) => {
                        assert!(
                            message.contains("deadline"),
                            "fault must name the deadline clamp: {message}"
                        );
                    }
                    other => panic!("expected BadRequest, got {other:?}"),
                }
            }
            other => panic!("expected a response frame, got {other:?}"),
        }

        // The connection survived: a well-formed request on the same
        // socket is answered normally.
        let good = wire::encode_request(&WireRequest::from_estimate_request(78, &request).unwrap())
            .unwrap();
        raw.write_all(&good).unwrap();
        let good_frame = loop {
            if let Some(len) = wire::frame_length(&buf).unwrap() {
                break buf.drain(..len).collect::<Vec<u8>>();
            }
            let n = raw.read(&mut chunk).unwrap();
            assert!(n > 0, "server must answer the follow-up");
            buf.extend_from_slice(&chunk[..n]);
        };
        match wire::decode_frame(&good_frame).unwrap() {
            Frame::Response(response) => {
                assert_eq!(response.request_id, 78);
                let estimate = response.outcome.expect("real estimate after a BadRequest");
                assert!(estimate.cost_ms.is_finite() && estimate.cost_ms > 0.0);
            }
            other => panic!("expected a response frame, got {other:?}"),
        }
    }

    // 3. The client-side half of the deadline clamp refuses to encode.
    let hostile = request
        .clone()
        .with_deadline(Duration::from_micros(MAX_DEADLINE_US + 1));
    let mut client = QcfeClient::connect_uds(&socket).unwrap();
    match client.estimate(&hostile) {
        Err(ClientError::Wire(WireError::DeadlineOutOfRange { .. })) => {}
        other => panic!("expected the encode-side clamp, got {other:?}"),
    }
    // An in-range deadline sails through.
    let bounded = request.with_deadline(Duration::from_secs(30));
    let response = client.estimate(&bounded).unwrap();
    assert!(response.cost_ms.is_finite() && response.cost_ms > 0.0);

    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Listener tokens live below the connection token base (64); a builder
/// configured with more listeners than that is rejected up front —
/// otherwise the overflowing listener's token would collide with
/// connection slot 0 and its readiness events would be misdispatched.
#[test]
fn builder_rejects_more_listeners_than_the_token_space() {
    let dir = temp_path("listener-cap-store");
    let gateway = Arc::new(QcfeGateway::builder(&dir).build().unwrap());
    let mut builder = NetServerBuilder::new(gateway);
    for i in 0..65 {
        builder = builder.uds(temp_path(&format!("listener-cap-{i}.sock")));
    }
    match builder.start() {
        Err(err) => assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput),
        Ok(_) => panic!("65 listeners must be rejected"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A request naming an unknown environment comes back as the typed
/// `SnapshotMissing` fault — the gateway's error taxonomy crosses the
/// wire intact.
#[test]
fn gateway_faults_cross_the_wire_typed() {
    let ctx = ctx_with_envs(1);
    let dir = temp_path("fault-store");
    let gateway = served_gateway(&ctx, &dir);
    let socket = temp_path("fault.sock");
    let server = NetServerBuilder::new(Arc::clone(&gateway))
        .uds(&socket)
        .start()
        .unwrap();

    // An environment nobody published, with transfer disabled: the gateway
    // fails with SnapshotMissing, and the client sees exactly that.
    let mut unseen = DbEnvironment::reference();
    unseen.os_overhead += 0.125;
    let plan = ctx.workload.queries[0].executed.root.clone();
    let request = EstimateRequest::new(KIND, unseen.clone(), plan).with_options(RequestOptions {
        estimator: EstimatorKind::QcfeMscn,
        allow_transfer: false,
        ..RequestOptions::default()
    });

    let mut client = QcfeClient::connect_uds(&socket).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    match client.estimate(&request) {
        Err(ClientError::Fault(WireFault::SnapshotMissing {
            benchmark,
            fingerprint,
        })) => {
            assert_eq!(benchmark, KIND);
            assert_eq!(fingerprint, unseen.fingerprint().0);
        }
        other => panic!("expected a typed SnapshotMissing fault, got {other:?}"),
    }

    let stats = server.join().unwrap();
    assert_eq!(stats.responses_fault, 1);
    assert_eq!(stats.responses_ok, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A deterministic stub whose every micro-batch takes ~5 ms, so a
/// one-worker shard with a 2-slot queue fills up behind a pipelined burst.
#[derive(Debug)]
struct SlowLinear;

impl CostModel for SlowLinear {
    fn name(&self) -> &'static str {
        "SlowLinear"
    }

    fn encode_plan(
        &self,
        root: &PlanNode,
        _: Option<&qcfe::core::snapshot::FeatureSnapshot>,
    ) -> PlanEncoding {
        PlanEncoding::flat(vec![root.est_rows])
    }

    fn predict_encoded(&self, encodings: &[&PlanEncoding]) -> Vec<f64> {
        std::thread::sleep(Duration::from_millis(5));
        encodings
            .iter()
            .map(|e| 1.5 * e.values()[0] + 0.25)
            .collect()
    }
}

/// Write every request's frame in one `write_all` on a raw socket, then
/// read one response per request, returned in request order.
fn pipeline_in_one_write(socket: &PathBuf, requests: &[EstimateRequest]) -> Vec<WireResponse> {
    let mut bytes = Vec::new();
    for (i, request) in requests.iter().enumerate() {
        let wire_request = WireRequest::from_estimate_request(i as u64 + 1, request).unwrap();
        bytes.extend_from_slice(&wire::encode_request(&wire_request).unwrap());
    }
    let mut raw = std::os::unix::net::UnixStream::connect(socket).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    raw.write_all(&bytes).unwrap();
    let mut responses: Vec<Option<WireResponse>> = requests.iter().map(|_| None).collect();
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    let mut answered = 0;
    while answered < requests.len() {
        if let Some(len) = wire::frame_length(&buf).unwrap() {
            let frame: Vec<u8> = buf.drain(..len).collect();
            match wire::decode_frame(&frame).unwrap() {
                Frame::Response(response) => {
                    let slot = &mut responses[response.request_id as usize - 1];
                    assert!(slot.is_none(), "one response per request");
                    *slot = Some(response);
                    answered += 1;
                }
                other => panic!("expected a response frame, got {other:?}"),
            }
            continue;
        }
        let n = raw.read(&mut chunk).unwrap();
        assert!(n > 0, "server hung up with {answered} answered");
        buf.extend_from_slice(&chunk[..n]);
    }
    responses.into_iter().map(Option::unwrap).collect()
}

/// Backpressure through the live reactor: a burst far past a tiny shard
/// queue is parked and resumed in order for a client that does not shed —
/// every request answered, bit-identical to in-process — and answered
/// with typed `QueueFull` faults for one that does.
#[test]
fn reactor_parks_and_resumes_a_burst_and_sheds_typed_when_asked() {
    const BURST: usize = 12;
    let dir = temp_path("backpressure-store");
    let env = DbEnvironment::reference();
    let gateway = Arc::new(
        QcfeGateway::builder(&dir)
            .service_config(ServiceConfig {
                workers: 1,
                queue_capacity: 2,
                max_batch: 1,
                encoding_cache_capacity: 16,
            })
            .with_model(
                ModelKey::new(KIND, EstimatorKind::Mscn, env.fingerprint()),
                Arc::new(SlowLinear),
            )
            .build()
            .unwrap(),
    );
    let requests = |shed_load: bool| -> Vec<EstimateRequest> {
        (0..BURST)
            .map(|i| {
                let mut plan = PlanNode::new(PhysicalOp::SeqScan { table: "t".into() }, vec![]);
                plan.est_rows = 100.0 + i as f64;
                EstimateRequest::new(KIND, env.clone(), plan).with_options(RequestOptions {
                    estimator: EstimatorKind::Mscn,
                    shed_load,
                    ..RequestOptions::default()
                })
            })
            .collect()
    };

    // A client that does not shed: every request parks until capacity
    // frees, and all are answered.
    let closed_loop = requests(false);
    let expected: Vec<EstimateResponse> = closed_loop
        .iter()
        .map(|r| gateway.estimate(r.clone()).unwrap())
        .collect();
    let socket = temp_path("backpressure.sock");
    let server = NetServerBuilder::new(Arc::clone(&gateway))
        .uds(&socket)
        .start()
        .unwrap();
    let responses = pipeline_in_one_write(&socket, &closed_loop);
    for (i, (response, want)) in responses.iter().zip(&expected).enumerate() {
        let estimate = response
            .outcome
            .as_ref()
            .unwrap_or_else(|fault| panic!("request {i}: parked, not faulted: {fault:?}"));
        assert_eq!(
            estimate.cost_ms.to_bits(),
            want.cost_ms.to_bits(),
            "request {i}: bit-identical to in-process"
        );
    }
    let stats = server.join().unwrap();
    assert_eq!(stats.responses_ok, BURST as u64);
    assert_eq!(stats.responses_fault, 0, "a parked request never faults");
    let key = ModelKey::new(KIND, EstimatorKind::Mscn, env.fingerprint());
    assert!(
        gateway.shard_metrics(&key).unwrap().rejected > 0,
        "the burst must have hit the full queue and been parked"
    );

    // A client that sheds: each request is served or refused typed.
    let socket = temp_path("backpressure-shed.sock");
    let server = NetServerBuilder::new(Arc::clone(&gateway))
        .uds(&socket)
        .start()
        .unwrap();
    let responses = pipeline_in_one_write(&socket, &requests(true));
    let (mut ok, mut shed) = (0u64, 0u64);
    for (i, response) in responses.iter().enumerate() {
        match &response.outcome {
            Ok(estimate) => {
                assert_eq!(estimate.cost_ms.to_bits(), expected[i].cost_ms.to_bits());
                ok += 1;
            }
            Err(WireFault::QueueFull { limit, .. }) => {
                assert_eq!(*limit, 2, "the fault names the shard's capacity");
                shed += 1;
            }
            Err(fault) => panic!("request {i}: unexpected fault {fault:?}"),
        }
    }
    assert!(ok >= 1 && shed >= 1, "{ok} served, {shed} shed");
    assert_eq!(ok + shed, BURST as u64);
    let stats = server.join().unwrap();
    assert_eq!((stats.responses_ok, stats.responses_fault), (ok, shed));
    let _ = std::fs::remove_dir_all(&dir);
}
