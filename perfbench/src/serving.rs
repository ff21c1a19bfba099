//! The two serving workloads, `uds-hot` and `local-feedback`.
//!
//! Both run one client thread that keeps [`IN_FLIGHT`] QCFE(mscn)
//! requests outstanding against a gateway built with
//! `QcfeGateway::builder` defaults, in a process pinned to one CPU. They
//! differ in what they put on the blocking path: `uds-hot` sends repeated
//! plans (encoding-cache hits) over a Unix-domain socket and records no
//! feedback; `local-feedback` submits fresh plans in process and feeds
//! every execution back, so online refits dominate.

use crate::pipeline::{self, Trained, KIND, SETUP_REPEATS};
use crate::probes::{self, ProbeInputs};
use crate::report::Outcome;
use crate::stats::{mean, median, percentile};
use crate::trace::{Attribution, Tracer};
use qcfe_core::collect::LabeledWorkload;
use qcfe_core::cost_model::CostModel;
use qcfe_core::estimators::MscnEstimator;
use qcfe_core::metrics::{q_error, AccuracyReport};
use qcfe_core::pipeline::{prepare_context, run_method, EstimatorKind, ExperimentContext};
use qcfe_db::executor::ExecutedQuery;
use qcfe_db::DbEnvironment;
use qcfe_net::{NetServerBuilder, QcfeClient, ServerHandle, WireResponse};
use qcfe_serve::{EstimateRequest, EstimateResponse, ModelKey, PendingResponse, QcfeGateway};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::{HashMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Requests the client keeps outstanding.
pub const IN_FLIGHT: usize = 32;
/// `run_method` calls timed for `train_s` after each set-up; as many
/// again follow the timed phase.
const TRAIN_CALLS_PER_SETUP: usize = 2;
/// `uds-hot`: environments published and served round-robin.
const HOT_ENVS: usize = 4;
/// `local-feedback`: fresh TPCH queries executed per environment. The
/// stream cycles through them; 6144 per shard exceeds its 4096-entry
/// encoding cache, and every refit clears that cache anyway.
const FRESH_PER_ENV: usize = 6144;

/// The set-up every serving workload shares: the TPCH context and the
/// served QCFE(mscn) model, trained, reduced and evaluated by the paper's
/// pipeline.
pub struct ServedModel {
    pub ctx: ExperimentContext,
    pub model: Arc<MscnEstimator>,
    /// The labeled queries held out of the model's training.
    pub held_out: LabeledWorkload,
    pub kept_features: usize,
    pub train_time_s: f64,
    pub evaluate_s: f64,
}

impl ServedModel {
    pub fn build(tracer: &mut Tracer) -> ServedModel {
        let config = pipeline::context_config();
        let seed = pipeline::CONTEXT_SEED;
        let span = tracer.open("core.pipeline.prepare_context", None, 0);
        let ctx = prepare_context(KIND, &config);
        tracer.close(span);
        let (train, test) = pipeline::split(&ctx, seed);
        let trained = pipeline::train_qcfe_mscn(&ctx, &train, seed, tracer, None);
        let kept_features = trained.kept_features();
        let Trained { model, stats, .. } = trained;
        let eval = pipeline::evaluate(&[&|p, s| model.predict(p, s)], &ctx, &test, 1, tracer, None);
        ServedModel {
            kept_features,
            train_time_s: stats.train_time_s,
            evaluate_s: eval.wall_s,
            model: Arc::new(model),
            held_out: test,
            ctx,
        }
    }

    fn key(&self, env: &DbEnvironment) -> ModelKey {
        ModelKey::new(KIND, EstimatorKind::QcfeMscn, env.fingerprint())
    }

    fn env(&self, index: usize) -> Arc<DbEnvironment> {
        Arc::new(self.ctx.workload.environments[index].clone())
    }
}

/// One answered request as the client saw it.
#[derive(Debug, Clone, Copy)]
pub struct Served {
    /// When the reply was read, seconds into the timed phase.
    pub read_s: f64,
    pub rtt_us: f64,
    pub total_us: u64,
    pub service_us: u64,
    pub batch_size: usize,
    pub cache_hit: bool,
    pub q_error: f64,
}

/// What one timed phase measured.
#[derive(Default)]
pub struct Phase {
    pub served: Vec<Served>,
    pub wall_s: f64,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// `uds-hot`: duration of each `QcfeClient::send`, µs.
    pub send_us: Vec<f64>,
    /// `local-feedback`: non-refitting / refitting `record_execution`, µs.
    pub record_us: Vec<f64>,
    pub refit_us: Vec<f64>,
    pub refits: u64,
    pub promotions: u64,
    pub queue_high_water: usize,
    /// Requests and responses of the phase, kept for the codec probes.
    pub requests: Vec<EstimateRequest>,
    pub responses: Vec<EstimateResponse>,
}

impl Phase {
    pub fn throughput(&self) -> f64 {
        self.served.len() as f64 / self.wall_s
    }

    fn column(&self, f: impl Fn(&Served) -> f64) -> Vec<f64> {
        self.served.iter().map(f).collect()
    }

    /// Per whole second of the phase: (completions per second, p50 and p99
    /// of the latencies read in it). Seconds whose tail is too thin for a
    /// p99 are left out.
    fn seconds(&self) -> Vec<(f64, f64, f64)> {
        let whole = (self.wall_s.floor() as usize).max(1);
        let mut buckets: Vec<Vec<f64>> = vec![Vec::new(); whole];
        for s in &self.served {
            if let Some(bucket) = buckets.get_mut(s.read_s as usize) {
                bucket.push(s.rtt_us);
            }
        }
        let span = if self.wall_s < 1.0 { self.wall_s } else { 1.0 };
        buckets
            .iter()
            .filter_map(|rtt| {
                Some((
                    rtt.len() as f64 / span,
                    percentile(rtt, 50.0)?,
                    percentile(rtt, 99.0)?,
                ))
            })
            .collect()
    }

    /// The end-to-end metrics of the timed segments, except the set-up
    /// ones. Each timing is the mean over the segments' whole seconds. On a
    /// shared 2-vCPU Xeon guest the CPU's speed held for 5–20 s at a time,
    /// so a median over ten seconds follows whichever speed held most of
    /// them, while a mean weighs each by its share of the timed phase.
    pub fn end_to_end(segments: &[Phase], out: &mut Outcome) {
        let per_second: Vec<_> = segments.iter().flat_map(Phase::seconds).collect();
        let col =
            |i: usize| -> Vec<f64> { per_second.iter().map(|t| [t.0, t.1, t.2][i]).collect() };
        let qerr: Vec<f64> = segments
            .iter()
            .flat_map(|p| p.column(|s| s.q_error))
            .collect();
        let rates: Vec<String> = col(0).iter().map(|r| format!("{r:.0}")).collect();
        out.notes
            .push(format!("replies per second: [{}]", rates.join(", ")));
        out.put("throughput_eps", mean(&col(0)), "1/s");
        out.put("p50_us", mean(&col(1)), "us");
        out.put("p99_us", mean(&col(2)), "us");
        out.put("qerror_median", percentile(&qerr, 50.0), "ratio");
        out.put("qerror_p95", percentile(&qerr, 95.0), "ratio");
        out.check(qerr.iter().all(|q| q.is_finite() && *q >= 1.0), || {
            "a served q-error is not finite or below 1".into()
        });
    }

    /// The per-layer metrics read from the responses.
    pub fn per_layer(&self, out: &mut Outcome) {
        let outside = self.column(|s| (s.rtt_us - s.total_us as f64).max(0.0));
        let gateway_self = self.column(|s| s.total_us.saturating_sub(s.service_us) as f64);
        let service = self.column(|s| s.service_us as f64);
        let batch = self.column(|s| s.batch_size as f64);
        let hits = self.column(|s| if s.cache_hit { 1.0 } else { 0.0 });
        out.put("net.outside_gateway_us", median(&outside), "us");
        out.metric(
            "net.client.send_us",
            median(&self.send_us).unwrap_or(0.0),
            "us",
        );
        // A mean, not a median: the response reports whole microseconds and
        // the gateway's own share is below one, so its median reads 0.
        out.put("serve.gateway.self_us", mean(&gateway_self), "us");
        out.put("serve.service.p50_us", median(&service), "us");
        out.put("serve.service.p99_us", percentile(&service, 99.0), "us");
        out.put("serve.service.batch_mean", mean(&batch), "count");
        out.put("serve.service.cache_hit_share", mean(&hits), "share");
        out.metric(
            "serve.service.queue_high_water",
            self.queue_high_water as f64,
            "count",
        );
        out.metric(
            "serve.refine.record_us",
            median(&self.record_us).unwrap_or(0.0),
            "us",
        );
        out.metric(
            "serve.refine.refit_us",
            median(&self.refit_us).unwrap_or(0.0),
            "us",
        );
        out.metric("serve.refine.refits", self.refits as f64, "count");
        out.metric("serve.refine.promotions", self.promotions as f64, "count");
    }

    fn absorb(&self, out: &mut Outcome) {
        out.attempted += self.attempted;
        out.failed += self.failed;
        out.failures.extend(self.failures.iter().cloned());
    }
}

fn us_since(earlier: Instant, later: Instant) -> f64 {
    later.saturating_duration_since(earlier).as_secs_f64() * 1e6
}

/// Records of the codec probes are bounded to this many per phase.
const PROBE_KEEP: usize = 4096;

// ---------------------------------------------------------------------
// uds-hot
// ---------------------------------------------------------------------

/// One request of the `uds-hot` pool.
pub struct PoolEntry {
    pub request: EstimateRequest,
    pub actual_ms: f64,
    /// `CostModel::predict_batch` on the same plan and snapshot.
    pub reference: f64,
}

/// The request pool: the served model's held-out plans, the same number
/// from each of the four environments (far below the 4096-entry encoding
/// cache of each shard), shuffled by `seed` and interleaved so
/// consecutive requests go to different environments.
pub fn hot_pool(served: &ServedModel, seed: u64) -> Vec<PoolEntry> {
    let ctx = &served.ctx;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0407_4f7e);
    let envs: Vec<Arc<DbEnvironment>> = (0..HOT_ENVS).map(|e| served.env(e)).collect();
    let per_env: Vec<Vec<_>> = (0..HOT_ENVS)
        .map(|e| {
            let mut queries = served.held_out.for_environment(e);
            queries.shuffle(&mut rng);
            queries
        })
        .collect();
    let per_env_plans = per_env.iter().map(Vec::len).min().unwrap_or(0);
    let mut pool = Vec::with_capacity(HOT_ENVS * per_env_plans);
    for j in 0..per_env_plans {
        for (e, queries) in per_env.iter().enumerate() {
            let q = queries[j];
            let snapshot = pipeline::snapshot_for(&ctx.snapshots_fso, e);
            let plan = &q.executed.root;
            let reference = CostModel::predict_batch(&*served.model, &[plan], snapshot)[0];
            pool.push(PoolEntry {
                request: EstimateRequest::new(KIND, Arc::clone(&envs[e]), plan.clone()),
                actual_ms: q.executed.total_ms,
                reference,
            });
        }
    }
    pool
}

/// A running `uds-hot` deployment: gateway, reactor and one connection.
pub struct UdsServer {
    gateway: Arc<QcfeGateway>,
    server: ServerHandle,
    client: QcfeClient,
    root: PathBuf,
    warm_requests: u64,
}

impl UdsServer {
    /// Start the gateway and reactor, publish the four environments and
    /// warm every shard with one request.
    pub fn start(served: &ServedModel, root: &Path) -> std::io::Result<UdsServer> {
        let _ = std::fs::remove_dir_all(root);
        std::fs::create_dir_all(root)?;
        let gateway = Arc::new(
            QcfeGateway::builder(root.join("store"))
                .build()
                .map_err(std::io::Error::other)?,
        );
        for e in 0..HOT_ENVS {
            let env = &served.ctx.workload.environments[e];
            let snapshot = served.ctx.snapshots_fso[e]
                .as_ref()
                .ok_or_else(|| std::io::Error::other("environment without a snapshot"))?;
            gateway
                .publish_snapshot(KIND, env, snapshot)
                .map_err(std::io::Error::other)?;
            let model: Arc<dyn CostModel> = served.model.clone();
            gateway.register_model(served.key(env), model);
        }
        let socket = root.join("qcfp.sock");
        let server = NetServerBuilder::new(Arc::clone(&gateway))
            .uds(&socket)
            .start()?;
        let mut client = QcfeClient::connect_uds(&socket).map_err(std::io::Error::other)?;
        // A lost reply must fail the run, not hang it.
        client
            .set_read_timeout(Some(Duration::from_secs(30)))
            .map_err(std::io::Error::other)?;
        let ctx = &served.ctx;
        for e in 0..HOT_ENVS {
            let q = ctx.workload.for_environment(e)[0];
            let request = EstimateRequest::new(KIND, served.env(e), q.executed.root.clone());
            client.estimate(&request).map_err(std::io::Error::other)?;
        }
        Ok(UdsServer {
            gateway,
            server,
            client,
            root: root.to_path_buf(),
            warm_requests: HOT_ENVS as u64,
        })
    }

    /// Run the closed loop for `seconds` and check every answer.
    pub fn run(&mut self, pool: &[PoolEntry], seconds: f64, tracer: &mut Tracer) -> Phase {
        let mut phase = Phase::default();
        let mut sent: HashMap<u64, (usize, Instant, Instant)> = HashMap::new();
        let started = Instant::now();
        let deadline = started + Duration::from_secs_f64(seconds);
        let mut next = 0usize;
        let mut last_read = started;
        let client = &mut self.client;
        let send = |client: &mut QcfeClient,
                    next: &mut usize,
                    phase: &mut Phase,
                    sent: &mut HashMap<u64, (usize, Instant, Instant)>| {
            let index = *next % pool.len();
            *next += 1;
            phase.attempted += 1;
            let t0 = Instant::now();
            match client.send(&pool[index].request) {
                Ok(id) => {
                    let t1 = Instant::now();
                    phase.send_us.push(us_since(t0, t1));
                    sent.insert(id, (index, t0, t1));
                }
                Err(e) => {
                    phase.failed += 1;
                    phase.failures.push(format!("send failed: {e}"));
                }
            }
        };
        for _ in 0..IN_FLIGHT {
            send(client, &mut next, &mut phase, &mut sent);
        }
        while !sent.is_empty() {
            let response: WireResponse = match client.recv() {
                Ok(r) => r,
                Err(e) => {
                    phase.failed += sent.len() as u64;
                    phase.failures.push(format!("recv failed: {e}"));
                    break;
                }
            };
            let read = Instant::now();
            last_read = read;
            let Some((index, t0, t1)) = sent.remove(&response.request_id) else {
                phase.failures.push(format!(
                    "response to unknown request {}",
                    response.request_id
                ));
                continue;
            };
            let entry = &pool[index];
            match response.outcome {
                Ok(estimate) => {
                    if estimate.cost_ms.to_bits() != entry.reference.to_bits() {
                        phase.failures.push(format!(
                            "remote estimate {} differs from predict_batch {}",
                            estimate.cost_ms, entry.reference
                        ));
                    }
                    let rtt_us = us_since(t0, read);
                    if tracer.enabled() {
                        let (s0, s1, r) = (tracer.ns(t0), tracer.ns(t1), tracer.ns(read));
                        let id = response.request_id;
                        let rtt = tracer.record("net.client.rtt", None, id, s0, r);
                        tracer.record("net.client.send", Some(rtt), id, s0, s1);
                        let gw_start = r.saturating_sub(estimate.total_us * 1000);
                        let gw = tracer.record("serve.gateway", Some(rtt), id, gw_start, r);
                        let svc_start = r.saturating_sub(estimate.service_us * 1000);
                        tracer.record("serve.service", Some(gw), id, svc_start, r);
                    }
                    phase.served.push(Served {
                        read_s: read.duration_since(started).as_secs_f64(),
                        rtt_us,
                        total_us: estimate.total_us,
                        service_us: estimate.service_us,
                        batch_size: estimate.batch_size as usize,
                        cache_hit: estimate.encoding_cache_hit,
                        q_error: q_error(entry.actual_ms, estimate.cost_ms),
                    });
                    if phase.responses.len() < PROBE_KEEP {
                        phase.responses.push(estimate.into_response());
                    }
                }
                Err(fault) => {
                    phase.failed += 1;
                    phase.failures.push(format!("remote fault: {fault:?}"));
                }
            }
            if read < deadline {
                send(client, &mut next, &mut phase, &mut sent);
            }
        }
        phase.wall_s = last_read.duration_since(started).as_secs_f64();
        phase.requests = pool
            .iter()
            .take(PROBE_KEEP)
            .map(|e| e.request.clone())
            .collect();
        phase.queue_high_water = queue_high_water(&self.gateway);
        phase
    }

    /// Stop the reactor and check its counters against `answered`
    /// requests sent through this server (warm-up included).
    pub fn stop(self, answered: u64, out: &mut Outcome) -> u64 {
        let UdsServer {
            gateway,
            server,
            client,
            root,
            warm_requests,
        } = self;
        drop(client);
        let faults = match server.join() {
            Ok(stats) => {
                let expected = answered + warm_requests;
                out.check(stats.responses_ok == expected, || {
                    format!(
                        "server answered {} requests ok, client sent {expected}",
                        stats.responses_ok
                    )
                });
                stats.responses_fault + stats.protocol_errors
            }
            Err(e) => {
                out.failures
                    .push(format!("reactor did not shut down cleanly: {e}"));
                1
            }
        };
        out.check(faults == 0, || format!("net.server.faults = {faults}"));
        drop(gateway);
        let _ = std::fs::remove_dir_all(root);
        faults
    }
}

fn queue_high_water(gateway: &QcfeGateway) -> usize {
    gateway
        .resident_shards()
        .iter()
        .filter_map(|key| gateway.shard_metrics(key))
        .map(|m| m.queue_high_water)
        .max()
        .unwrap_or(0)
}

/// `uds-hot`: one timed phase plus its checks.
pub fn uds_phase(
    pool: &[PoolEntry],
    mut server: UdsServer,
    seconds: f64,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> (Phase, u64) {
    let phase = server.run(pool, seconds, tracer);
    phase.absorb(out);
    let hit_share = phase.served.iter().filter(|s| s.cache_hit).count() as f64
        / phase.served.len().max(1) as f64;
    out.check(hit_share > 0.9, || {
        format!("uds-hot cache hit share {hit_share:.3} should be about 1")
    });
    let faults = server.stop(phase.served.len() as u64, out);
    (phase, faults)
}

// ---------------------------------------------------------------------
// local-feedback
// ---------------------------------------------------------------------

/// One fresh query of the `local-feedback` stream, executed under its
/// environment.
pub struct FreshQuery {
    /// 0: the published environment, 1: the transferred one.
    pub env: usize,
    pub executed: ExecutedQuery,
}

/// The two environments of `local-feedback`: environment 0 is published;
/// the one farthest from it in knob space is served by transfer.
pub fn feedback_envs(served: &ServedModel) -> [usize; 2] {
    let envs = &served.ctx.workload.environments;
    let far = (1..envs.len())
        .max_by(|&i, &j| {
            envs[0]
                .distance_to(&envs[i])
                .total_cmp(&envs[0].distance_to(&envs[j]))
        })
        .expect("at least two environments");
    [0, far]
}

/// Fresh TPCH queries, executed under both environments and interleaved
/// A, B, A, B …. Seeded by the run seed alone.
pub fn fresh_stream(served: &ServedModel, seed: u64, per_env: usize) -> Vec<FreshQuery> {
    let bench = &served.ctx.benchmark;
    let mut rng = StdRng::seed_from_u64(seed ^ 0xf4e5_4b1d);
    let envs = feedback_envs(served);
    let executions: Vec<Vec<ExecutedQuery>> = envs
        .iter()
        .map(|&e| {
            let db = bench.build_database(served.ctx.workload.environments[e].clone());
            let mut executed = Vec::with_capacity(per_env);
            while executed.len() < per_env {
                let query = bench.queries_round_robin(1, &mut rng).remove(0);
                if let Ok(e) = db.execute(&query, &mut rng) {
                    executed.push(e);
                }
            }
            executed
        })
        .collect();
    let mut stream = Vec::with_capacity(2 * per_env);
    for j in 0..per_env {
        for (slot, executed) in executions.iter().enumerate() {
            stream.push(FreshQuery {
                env: slot,
                executed: executed[j].clone(),
            });
        }
    }
    stream
}

/// A `local-feedback` deployment: the in-process gateway.
pub struct LocalGateway {
    gateway: QcfeGateway,
    envs: [Arc<DbEnvironment>; 2],
    keys: [ModelKey; 2],
    root: PathBuf,
}

impl LocalGateway {
    pub fn start(served: &ServedModel, root: &Path) -> std::io::Result<LocalGateway> {
        let _ = std::fs::remove_dir_all(root);
        std::fs::create_dir_all(root)?;
        let [a, b] = feedback_envs(served);
        let envs = [served.env(a), served.env(b)];
        let keys = [served.key(&envs[0]), served.key(&envs[1])];
        let gateway = QcfeGateway::builder(root.join("store"))
            .build()
            .map_err(std::io::Error::other)?;
        let snapshot = served.ctx.snapshots_fso[a]
            .as_ref()
            .ok_or_else(|| std::io::Error::other("environment without a snapshot"))?;
        gateway
            .publish_snapshot(KIND, &envs[0], snapshot)
            .map_err(std::io::Error::other)?;
        for key in keys {
            let model: Arc<dyn CostModel> = served.model.clone();
            gateway.register_model(key, model);
        }
        for (slot, &e) in [a, b].iter().enumerate() {
            let q = served.ctx.workload.for_environment(e)[0];
            let request =
                EstimateRequest::new(KIND, Arc::clone(&envs[slot]), q.executed.root.clone());
            let response = gateway.estimate(request).map_err(std::io::Error::other)?;
            if response.provenance.snapshot_origin.is_transferred() != (slot == 1) {
                return Err(std::io::Error::other(
                    "the unpublished environment must warm-start by transfer",
                ));
            }
        }
        Ok(LocalGateway {
            gateway,
            envs,
            keys,
            root: root.to_path_buf(),
        })
    }

    /// Run the feedback loop for `seconds`, then check the refinement
    /// counters and add the phase's counts and failures to `out`.
    pub fn run(
        self,
        stream: &[FreshQuery],
        seconds: f64,
        tracer: &mut Tracer,
        out: &mut Outcome,
    ) -> Phase {
        let mut phase = Phase::default();
        let mut inflight: VecDeque<(usize, Instant, Instant, PendingResponse)> = VecDeque::new();
        let started = Instant::now();
        let deadline = started + Duration::from_secs_f64(seconds);
        let mut next = 0usize;
        let mut last_read = started;
        let mut samples_sent = 0u64;
        let mut promotions = [0u64; 2];
        let submit =
            |next: &mut usize,
             phase: &mut Phase,
             inflight: &mut VecDeque<(usize, Instant, Instant, PendingResponse)>| {
                let seq = *next;
                *next += 1;
                phase.attempted += 1;
                let q = &stream[seq % stream.len()];
                let request = EstimateRequest::new(
                    KIND,
                    Arc::clone(&self.envs[q.env]),
                    q.executed.root.clone(),
                );
                if phase.requests.len() < PROBE_KEEP {
                    phase.requests.push(request.clone());
                }
                let t0 = Instant::now();
                match self.gateway.submit(request) {
                    Ok(pending) => inflight.push_back((seq, t0, Instant::now(), pending)),
                    Err(e) => {
                        phase.failed += 1;
                        phase.failures.push(format!("submit failed: {e}"));
                    }
                }
            };
        for _ in 0..IN_FLIGHT {
            submit(&mut next, &mut phase, &mut inflight);
        }
        while let Some((seq, t0, t1, pending)) = inflight.pop_front() {
            let q = &stream[seq % stream.len()];
            // Request 0 means "no single request" to the tracer.
            let request_id = seq as u64 + 1;
            let response = match pending.wait() {
                Ok(r) => r,
                Err(e) => {
                    phase.failed += 1;
                    phase.failures.push(format!("estimate failed: {e}"));
                    continue;
                }
            };
            let read = Instant::now();
            last_read = read;
            phase.served.push(Served {
                read_s: read.duration_since(started).as_secs_f64(),
                rtt_us: us_since(t0, read),
                total_us: response.provenance.total_us,
                service_us: response.provenance.service_us,
                batch_size: response.batch_size,
                cache_hit: response.encoding_cache_hit,
                q_error: q_error(q.executed.total_ms, response.cost_ms),
            });
            if phase.responses.len() < PROBE_KEEP {
                phase.responses.push(response);
            }
            let r0 = Instant::now();
            let feedback = self
                .gateway
                .record_execution(KIND, &self.envs[q.env], &q.executed);
            let r1 = Instant::now();
            let refit = matches!(&feedback, Ok(f) if f.refits > 0);
            if tracer.enabled() {
                let (s0, s1, r) = (tracer.ns(t0), tracer.ns(t1), tracer.ns(read));
                let rtt = tracer.record("client.rtt", None, request_id, s0, r);
                tracer.record("serve.gateway.submit", Some(rtt), request_id, s0, s1);
                let total = response.provenance.total_us * 1000;
                let gw = tracer.record(
                    "serve.gateway",
                    Some(rtt),
                    request_id,
                    r.saturating_sub(total),
                    r,
                );
                let service = response.provenance.service_us * 1000;
                tracer.record(
                    "serve.service",
                    Some(gw),
                    request_id,
                    r.saturating_sub(service),
                    r,
                );
                let name = if refit {
                    "serve.refine.refit"
                } else {
                    "serve.refine.record"
                };
                tracer.record(name, None, request_id, tracer.ns(r0), tracer.ns(r1));
            }
            match feedback {
                Ok(f) => {
                    if f.shards != 1 {
                        phase
                            .failures
                            .push(format!("feedback reached {} shards, expected 1", f.shards));
                    }
                    samples_sent += f.samples as u64;
                    phase.refits += f.refits as u64;
                    promotions[q.env] += f.promotions as u64;
                    if refit {
                        phase.refit_us.push(us_since(r0, r1));
                    } else {
                        phase.record_us.push(us_since(r0, r1));
                    }
                }
                Err(e) => {
                    phase.failed += 1;
                    phase.failures.push(format!("record_execution failed: {e}"));
                }
            }
            if read < deadline {
                submit(&mut next, &mut phase, &mut inflight);
            }
        }
        phase.wall_s = last_read.duration_since(started).as_secs_f64();
        phase.promotions = promotions.iter().sum();

        let stats = self.gateway.stats();
        let swaps: u64 = self
            .keys
            .iter()
            .filter_map(|k| self.gateway.shard_metrics(k))
            .map(|m| m.snapshot_swaps)
            .sum();
        phase.queue_high_water = queue_high_water(&self.gateway);
        let refits = phase.refits;
        if stats.refits != refits || swaps != refits {
            phase.failures.push(format!(
                "refits disagree: gateway {}, feedback outcomes {refits}, shard swaps {swaps}",
                stats.refits
            ));
        }
        if stats.labels_recorded != samples_sent {
            phase.failures.push(format!(
                "labels_recorded {} != samples sent {samples_sent}",
                stats.labels_recorded
            ));
        }
        if stats.promotions != 1 || promotions != [0, 1] {
            phase.failures.push(format!(
                "expected exactly one promotion, on the transferred environment: gateway {}, published {}, transferred {}",
                stats.promotions, promotions[0], promotions[1]
            ));
        }
        self.discard();
        phase.absorb(out);
        phase
    }

    /// Shut the gateway down and delete its store.
    pub fn discard(self) {
        let LocalGateway { gateway, root, .. } = self;
        drop(gateway);
        let _ = std::fs::remove_dir_all(root);
    }
}

// ---------------------------------------------------------------------
// Runs
// ---------------------------------------------------------------------

/// `train_s` on the serving workloads: the program's `run_method` for the
/// served model's configuration — DiffProp reduction, QCFE(mscn) training
/// and held-out evaluation on the same split — reported as the mean of
/// calls spread over the run. On a shared 2-vCPU Xeon guest the CPU's
/// speed held for 5–20 s at a time and moved 1.7× between such stretches
/// (0.24 – 0.41 s per call), so a dozen calls back to back caught one
/// stretch and spread 29% over five seeds; spread out, they weigh the
/// stretches the run met.
#[derive(Default)]
struct TrainTimes {
    times: Vec<f64>,
    first: Option<AccuracyReport>,
    /// Whether a call's accuracy differed from the first call's.
    differed: bool,
}

impl TrainTimes {
    fn time(&mut self, served: &ServedModel, calls: usize) {
        let kind = EstimatorKind::QcfeMscn;
        let config = pipeline::run_config(kind, pipeline::CONTEXT_SEED);
        for _ in 0..calls {
            let t0 = Instant::now();
            let result = run_method(&served.ctx, kind, &config);
            self.times.push(t0.elapsed().as_secs_f64());
            let first = self.first.get_or_insert_with(|| result.accuracy.clone());
            self.differed |= *first != result.accuracy;
        }
    }
}

/// The untraced run of a serving workload. Each of [`SETUP_REPEATS`]
/// set-ups is timed, then followed by [`TRAIN_CALLS_PER_SETUP`] timed
/// `run_method` calls and by an equal share of the timed phase on the
/// set-up's own deployment; `run` drives a deployment for the given
/// seconds and tears it down. Spread this way, the timed phase and the
/// `train_s` calls span the whole run: on a shared 2-vCPU Xeon guest the
/// CPU's speed held for 5–20 s at a time, and one contiguous 10 s phase
/// put `uds-hot` runs there 28–39k est/s apart, by which stretch it met. Each set-up starts after the
/// previous deployment and model are gone, so that no idle program
/// thread or leftover heap of it is on the CPU beside the next.
fn segmented_run<D>(
    seconds: f64,
    mut start: impl FnMut(&ServedModel, usize) -> std::io::Result<D>,
    mut run: impl FnMut(&ServedModel, D, f64, &mut Outcome) -> Phase,
    out: &mut Outcome,
) -> std::io::Result<Vec<Phase>> {
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut train = TrainTimes::default();
    let mut segments = Vec::with_capacity(SETUP_REPEATS);
    let mut off = Tracer::new(false, Instant::now());
    let mut last = None;
    for i in 0..SETUP_REPEATS {
        drop(last.take());
        let t0 = Instant::now();
        let served = ServedModel::build(&mut off);
        let deployment = start(&served, i)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        train.time(&served, TRAIN_CALLS_PER_SETUP);
        segments.push(run(
            &served,
            deployment,
            seconds / SETUP_REPEATS as f64,
            out,
        ));
        last = Some(served);
    }
    if let Some(served) = &last {
        train.time(served, TRAIN_CALLS_PER_SETUP);
    }
    setup_metrics(out, &setup_s, &train);
    Ok(segments)
}

fn setup_metrics(out: &mut Outcome, setup_s: &[f64], train: &TrainTimes) {
    out.check(!train.differed, || {
        "run_method gave different accuracy on the same inputs".into()
    });
    out.notes.push(format!(
        "set-ups (s): {setup_s:.3?}, run_method (s): {:.3?}",
        train.times
    ));
    out.put("setup_s", median(setup_s), "s");
    out.put("train_s", mean(&train.times), "s");
}

/// Per-layer metrics of the set-up: context preparation (probed) and the
/// served model's reduction, training and evaluation (traced).
fn setup_layers(setup: &Attribution, served: &ServedModel, out: &mut Outcome) {
    probes::setup(&served.ctx, &pipeline::context_config(), out);
    out.metric("core.reduction.s", setup.self_s("core.reduction"), "s");
    out.metric(
        "core.reduction.kept_features",
        served.kept_features as f64,
        "count",
    );
    out.metric("core.estimators.train_mscn_s", served.train_time_s, "s");
    out.metric("core.estimators.evaluate_s", served.evaluate_s, "s");
}

/// A traced run: the traced set-up, the untraced timed phase's
/// throughput, then the traced timed phase.
struct TracedRun<'a> {
    setup: &'a Tracer,
    setup_wall_s: f64,
    untraced_throughput: f64,
    traced: &'a Phase,
    tracer: &'a Tracer,
}

/// The traced run's tables, per-layer metrics, probes and span file.
fn traced_report(
    served: &ServedModel,
    run: TracedRun,
    labels: Vec<&ExecutedQuery>,
    scratch: &Path,
    out: &mut Outcome,
) -> std::io::Result<()> {
    let setup = Attribution::of(run.setup, (run.setup_wall_s * 1e9) as u64);
    let timed = Attribution::of(run.tracer, (run.traced.wall_s * 1e9) as u64);
    out.notes.push(setup.render("set-up (traced)"));
    out.notes.push(timed.render("timed phase (traced)"));
    setup_layers(&setup, served, out);
    run.traced.per_layer(out);
    out.metric(
        "trace.overhead_share",
        run.untraced_throughput / run.traced.throughput() - 1.0,
        "share",
    );
    let batches: Vec<f64> = run
        .traced
        .served
        .iter()
        .map(|s| s.batch_size as f64)
        .collect();
    let batch = mean(&batches).unwrap_or(1.0).round() as usize;
    probes::run(
        &ProbeInputs {
            ctx: &served.ctx,
            model: &served.model,
            requests: &run.traced.requests,
            responses: &run.traced.responses,
            batch,
            labels,
            scratch,
        },
        out,
    )?;
    crate::trace::write_spans(
        &scratch.with_extension("spans.jsonl"),
        &[("setup", run.setup), ("timed", run.tracer)],
    )
}

pub fn run_uds_hot(
    seed: u64,
    seconds: f64,
    trace: bool,
    scratch: &Path,
) -> std::io::Result<Outcome> {
    let mut out = Outcome::default();
    let mut off = Tracer::new(false, Instant::now());
    if !trace {
        let mut pool = None;
        let segments = segmented_run(
            seconds,
            |served, i| UdsServer::start(served, &scratch.join(format!("gw{i}"))),
            |served, server, seconds, out| {
                // Every set-up serves the same model, so one pool and its
                // `predict_batch` references serve every segment.
                let pool = pool.get_or_insert_with(|| hot_pool(served, seed));
                uds_phase(pool, server, seconds, &mut off, out).0
            },
            &mut out,
        )?;
        Phase::end_to_end(&segments, &mut out);
        return Ok(out);
    }
    let mut setup_tracer = Tracer::new(true, Instant::now());
    let t0 = Instant::now();
    let served = ServedModel::build(&mut setup_tracer);
    let first = UdsServer::start(&served, &scratch.join("gw-untraced"))?;
    let setup_wall_s = t0.elapsed().as_secs_f64();
    let pool = hot_pool(&served, seed);
    let (untraced, faults_a) = uds_phase(&pool, first, seconds, &mut off, &mut out);
    let untraced_throughput = untraced.throughput();
    drop(untraced);
    let second = UdsServer::start(&served, &scratch.join("gw-traced"))?;
    let mut tracer = Tracer::new(true, Instant::now());
    let (traced, faults_b) = uds_phase(&pool, second, seconds, &mut tracer, &mut out);
    out.metric("net.server.faults", (faults_a + faults_b) as f64, "count");
    let labels = probes::context_labels(&served.ctx);
    let run = TracedRun {
        setup: &setup_tracer,
        setup_wall_s,
        untraced_throughput,
        traced: &traced,
        tracer: &tracer,
    };
    traced_report(&served, run, labels, scratch, &mut out)?;
    Ok(out)
}

pub fn run_local_feedback(
    seed: u64,
    seconds: f64,
    trace: bool,
    scratch: &Path,
) -> std::io::Result<Outcome> {
    let mut out = Outcome::default();
    let mut off = Tracer::new(false, Instant::now());
    if !trace {
        let mut stream = None;
        let segments = segmented_run(
            seconds,
            |served, i| LocalGateway::start(served, &scratch.join(format!("gw{i}"))),
            |served, gateway, seconds, out| {
                let stream =
                    stream.get_or_insert_with(|| fresh_stream(served, seed, FRESH_PER_ENV));
                gateway.run(stream, seconds, &mut off, out)
            },
            &mut out,
        )?;
        Phase::end_to_end(&segments, &mut out);
        out.notes.push(format!(
            "local-feedback: {} estimates, {} refits, {} promotions",
            segments.iter().map(|p| p.served.len()).sum::<usize>(),
            segments.iter().map(|p| p.refits).sum::<u64>(),
            segments.iter().map(|p| p.promotions).sum::<u64>()
        ));
        return Ok(out);
    }
    let mut setup_tracer = Tracer::new(true, Instant::now());
    let t0 = Instant::now();
    let served = ServedModel::build(&mut setup_tracer);
    let first = LocalGateway::start(&served, &scratch.join("gw-untraced"))?;
    let setup_wall_s = t0.elapsed().as_secs_f64();
    let stream = fresh_stream(&served, seed, FRESH_PER_ENV);
    let untraced_throughput = first.run(&stream, seconds, &mut off, &mut out).throughput();
    let second = LocalGateway::start(&served, &scratch.join("gw-traced"))?;
    let mut tracer = Tracer::new(true, Instant::now());
    let traced = second.run(&stream, seconds, &mut tracer, &mut out);
    // The refit label window: executions the transferred shard was fed.
    let labels = stream
        .iter()
        .filter(|q| q.env == 1)
        .map(|q| &q.executed)
        .collect();
    let run = TracedRun {
        setup: &setup_tracer,
        setup_wall_s,
        untraced_throughput,
        traced: &traced,
        tracer: &tracer,
    };
    traced_report(&served, run, labels, scratch, &mut out)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_generates_the_same_requests_and_another_seed_differs() {
        let served = ServedModel::build(&mut Tracer::new(false, Instant::now()));
        let costs = |pool: Vec<PoolEntry>| -> Vec<(u64, u64)> {
            pool.iter()
                .map(|e| (e.actual_ms.to_bits(), e.reference.to_bits()))
                .collect()
        };
        assert_eq!(costs(hot_pool(&served, 7)), costs(hot_pool(&served, 7)));
        assert_ne!(costs(hot_pool(&served, 7)), costs(hot_pool(&served, 8)));
        let totals = |stream: Vec<FreshQuery>| -> Vec<(usize, u64)> {
            stream
                .iter()
                .map(|q| (q.env, q.executed.total_ms.to_bits()))
                .collect()
        };
        assert_eq!(
            totals(fresh_stream(&served, 7, 32)),
            totals(fresh_stream(&served, 7, 32))
        );
        assert_ne!(
            totals(fresh_stream(&served, 7, 32)),
            totals(fresh_stream(&served, 8, 32))
        );
    }
}
