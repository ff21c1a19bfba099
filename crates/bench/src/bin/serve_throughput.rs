//! Serving-layer throughput benchmark: ten sections over one shared harness
//! (a Sysbench context over four environments, with QCFE(mscn) and
//! QCFE(qpp) trained on it), run in this order:
//!
//! 1. **QPPNet batching** — direct QPPNet inference, the scalar per-plan
//!    path against operator-grouped batches of 1–128 plans flattened
//!    straight into the engine (not the served encode → cache → predict
//!    path, which the service sweep times);
//! 2. **kernel sweep** — the batch-32 direct QPPNet workload of section 1,
//!    then QCFE(mscn) through the `EstimationService`, under each matmul
//!    kernel the CPU dispatches (scalar, portable, AVX2);
//! 3. **service sweep** — closed-loop clients against one
//!    `EstimationService` per model, over client counts, with
//!    micro-batching off and on (max_batch 1 vs 32), and QCFE(qpp)'s
//!    encoding-cache hit rate against QCFE(mscn)'s on the same queries;
//! 4. **routed gateway** — one client per environment through one
//!    `QcfeGateway` against hand-wired per-environment services, in
//!    alternating rounds over deployments kept up throughout;
//! 5. **cold restart** — a rebuilt gateway's first estimate served from
//!    persisted `QCFW` weights against one that must retrain;
//! 6. **refinement** — a cold environment's estimate error under a
//!    transferred snapshot, then after refitting from its own labels,
//!    streamed by one client so the row is a function of the seed;
//! 7. **network** — the gateway behind the `qcfe-net` reactor on a
//!    loopback Unix-domain socket: pipelined remote clients against the same
//!    clients in process, with the shards' mean micro-batch per window;
//! 8. **scheduling** — an adversarial mix (a greedy deadline-less tenant
//!    flooding a throttled single-worker shard next to compliant
//!    deadline-carrying tenants) against a FIFO gateway and an EDF gateway
//!    with a queue-share quota on the greedy tenant, in alternating rounds
//!    until each policy's pooled compliant p99 has 30 samples above it;
//! 9. **replication** — three rendezvous-sharded replicas under load, the
//!    loaded shard's owner killed mid-run and its keys absorbed by the
//!    survivors from shipped `QCFS`/`QCFW` state;
//! 10. **revival** — the anti-entropy drill: the loaded shard's owner is
//!     killed, its key re-published on the failover owner during the
//!     outage, and the victim restarted over its stale store mid-load.
//!
//! Each section adds its tables to the report and its checks to one gate
//! table (section, check, measured value, bound, verdict). After the last
//! section the gate table joins the report, which is printed and saved to
//! `target/experiments/serve.json` and to `BENCH_serve.json` at the
//! workspace root; the run then exits non-zero if any row failed, so one
//! failed gate neither hides the others nor stops the baseline being
//! written. Checks that guard the harness rather than a gate panic at once:
//! a dropped or untyped-failed request, a kernel that does not dispatch, a
//! routed deployment that does not start one shard per environment, a wrong
//! provenance, set-up that does not converge within 30 s, a re-publish that
//! leaves the served estimate unchanged, and the bit-identity probes of the
//! network section and of the kill thread.
//!
//! Usage: `cargo run --release -p qcfe-bench --bin serve_throughput [--quick] [--seed N]`

use qcfe_bench::report::{fmt3, parse_common_args, ExperimentReport, ReportTable};
use qcfe_core::cost_model::{CostModel, PlanEncoding};
use qcfe_core::encoding::FeatureEncoder;
use qcfe_core::estimators::{MscnEstimator, QppNetEstimator};
use qcfe_core::model_codec::PersistedModel;
use qcfe_core::pipeline::{prepare_context, ContextConfig, EstimatorKind, ExperimentContext};
use qcfe_core::snapshot::FeatureSnapshot;
use qcfe_db::plan::PlanNode;
use qcfe_db::{Database, DbEnvironment};
use qcfe_net::{
    NetServerBuilder, QcfeClient, Replicator, ReplicatorConfig, ServerHandle, ServerStats,
    ShardClient,
};
use qcfe_nn::kernel::{force_kernel, MatmulKernel};
use qcfe_serve::prelude::*;
use qcfe_serve::replica::owner_among;
use qcfe_workloads::{
    run_closed_loop, run_feedback_loop, run_multi_tenant_mix, run_timed_loop, BenchmarkKind,
    ClosedLoopConfig, LoadReport, MultiTenantReport, ObservedEstimate, SubmitError, TenantLoad,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The benchmark every section serves.
const KIND: BenchmarkKind = BenchmarkKind::Sysbench;

/// Per-shard service configuration of every section except scheduling.
const SHARD_CONFIG: ServiceConfig = ServiceConfig {
    workers: 2,
    queue_capacity: 256,
    max_batch: 32,
    encoding_cache_capacity: 4096,
};

/// The service sweep's gate: the least share of QCFE(mscn)'s cache-hit
/// rate that QCFE(qpp) reaches on the same queries (8 clients, max_batch
/// 32). Both families key the cache by plan, so only micro-batch
/// composition tells the two apart: the share measured 0.989–1.004 over 19
/// `--quick` and 5 full-mode runs (seeds 1–8 and 42, 2-vCPU host).
const QPP_CACHE_HIT_SHARE: f64 = 0.9;

/// Alternating rounds behind the service sweep's QCFE(qpp)/QCFE(mscn)
/// throughput ratio (8 clients, max_batch 32). One closed-loop run of each
/// model takes 5–30 ms, so a single pair of runs shows host load more than
/// the code; each round runs both, and the ratio divides pooled totals.
const SWEEP_RATIO_ROUNDS: usize = 30;

/// The network section's gate: the least mean micro-batch the shards may
/// drain over the UDS window. Per-request hand-off measured 1.7–3.7 and
/// per-turn batching 23.5–29.0 (quick and full mode, 2-vCPU host); the
/// gate sits below a third of the batched runs' lowest value.
const NET_MIN_BATCH_MEAN: f64 = 6.0;

/// Timed rounds of the routed-gateway section: each round runs the
/// hand-wired and the routed side once, in alternating order, over
/// deployments kept up for the whole comparison.
const GATEWAY_ROUNDS: usize = 100;

/// The scheduling section runs alternating FIFO/EDF rounds until each
/// policy's pooled compliant p99 has at least this many samples above it.
/// A host stall delays several compliant requests of one round together
/// (their latencies land within 0.1 ms of each other), so with 10
/// samples above the p99 one or two stalled rounds decided the gate; at
/// 30 it takes several.
const SCHED_TAIL_SAMPLES: usize = 30;

/// Upper bound on the scheduling section's rounds, reached only when
/// compliant requests stop completing (which fails its goodput gate).
const SCHED_MAX_ROUNDS: usize = 40;

const GREEDY_TENANT: u32 = 7;
const COMPLIANT_TENANTS: [u32; 2] = [21, 22];

/// Replicas of the replication and revival sections.
const REPLICAS: usize = 3;

/// A gate's comparator: its symbol and its test, which no NaN passes.
type Cmp = (&'static str, fn(&f64, &f64) -> bool);

/// One row of the gate table.
struct Gate {
    section: &'static str,
    check: String,
    /// `None` when this host cannot run the check (AVX2 on a CPU without it).
    measured: Option<f64>,
    cmp: Cmp,
    bound: f64,
}

impl Gate {
    fn failed(&self) -> bool {
        let (_, holds) = self.cmp;
        self.measured.is_some_and(|m| !holds(&m, &self.bound))
    }

    /// Section, check, measured value, bound and verdict.
    fn cells(&self) -> Vec<String> {
        let verdict = match self.measured {
            None => "skipped",
            Some(_) if self.failed() => "FAIL",
            Some(_) => "pass",
        };
        let measured = self.measured.map_or("-".into(), cell);
        let bound = format!("{} {}", self.cmp.0, cell(self.bound));
        vec![
            self.section.into(),
            self.check.clone(),
            measured,
            bound,
            verdict.into(),
        ]
    }
}

/// A measurement or bound as a table cell: whole numbers without decimals.
fn cell(x: f64) -> String {
    if x.fract() == 0.0 {
        format!("{x:.0}")
    } else {
        fmt3(x)
    }
}

/// What the run produces: the report's tables, and the gate table that
/// `main` judges once every section has run.
struct Run {
    report: ExperimentReport,
    gates: Vec<Gate>,
}

impl Run {
    fn section(&mut self, name: &'static str) -> Section<'_> {
        Section { run: self, name }
    }

    /// Every check the run is judged on, one row each, in section order.
    fn gate_table(&self) -> ReportTable {
        let headers = ["section", "check", "measured", "bound", "verdict"];
        let mut table = ReportTable::new("Gates", &headers);
        for gate in &self.gates {
            table.push_row(gate.cells());
        }
        table
    }

    /// One line per failed row; the run passes when there is none.
    fn failures(&self) -> Vec<String> {
        self.gates
            .iter()
            .filter(|gate| gate.failed())
            .map(|gate| gate.cells()[..4].join(" | "))
            .collect()
    }
}

/// Where one section adds its tables and gate rows. A row measured as
/// `None` is a check this host cannot run: it shows as skipped and never
/// fails.
struct Section<'a> {
    run: &'a mut Run,
    name: &'static str,
}

impl Section<'_> {
    fn add_table(&mut self, table: ReportTable) {
        self.run.report.add_table(table);
    }

    fn gate(
        &mut self,
        check: impl Into<String>,
        measured: impl Into<Option<f64>>,
        cmp: Cmp,
        bound: f64,
    ) {
        self.run.gates.push(Gate {
            section: self.name,
            check: check.into(),
            measured: measured.into(),
            cmp,
            bound,
        });
    }

    fn at_least(&mut self, check: impl Into<String>, measured: impl Into<Option<f64>>, bound: f64) {
        self.gate(check, measured, (">=", f64::ge), bound);
    }

    fn above(&mut self, check: impl Into<String>, measured: f64, bound: f64) {
        self.gate(check, measured, (">", f64::gt), bound);
    }

    fn at_most(&mut self, check: impl Into<String>, measured: f64, bound: f64) {
        self.gate(check, measured, ("<=", f64::le), bound);
    }

    fn below(&mut self, check: impl Into<String>, measured: f64, bound: f64) {
        self.gate(check, measured, ("<", f64::lt), bound);
    }

    fn equals(&mut self, check: impl Into<String>, measured: f64, bound: f64) {
        self.gate(check, measured, ("=", f64::eq), bound);
    }

    /// Bit-identical, the invariant estimates keep across paths.
    fn same_bits(&mut self, check: impl Into<String>, measured: f64, bound: f64) {
        let identical = |m: &f64, b: &f64| !m.is_nan() && m.to_bits() == b.to_bits();
        self.gate(check, measured, ("same bits as", identical), bound);
    }
}

/// A cost model that encodes like its inner model and sleeps once per
/// drained micro-batch before predicting. The scheduling section uses it to
/// make queue wait — not inference speed — dominate latency, so the
/// FIFO-vs-EDF comparison measures ordering policy rather than matmul
/// throughput.
struct ThrottledModel {
    inner: Arc<dyn CostModel>,
    delay: Duration,
}

impl CostModel for ThrottledModel {
    fn name(&self) -> &'static str {
        "throttled"
    }

    fn encode_plan(&self, root: &PlanNode, snapshot: Option<&FeatureSnapshot>) -> PlanEncoding {
        self.inner.encode_plan(root, snapshot)
    }

    fn predict_encoded(&self, encodings: &[&PlanEncoding]) -> Vec<f64> {
        std::thread::sleep(self.delay);
        self.inner.predict_encoded(encodings)
    }
}

/// p99 latency pooled over the given tenants' completed requests, and the
/// number of pooled samples ranked above it.
fn pooled_p99_ms(report: &MultiTenantReport, tenants: &[u32]) -> (f64, usize) {
    let mut pooled: Vec<f64> = report
        .lanes
        .iter()
        .filter(|lane| tenants.contains(&lane.tenant))
        .flat_map(|lane| lane.latencies_ms.iter().copied())
        .collect();
    pooled.sort_by(|a, b| a.total_cmp(b));
    if pooled.is_empty() {
        return (0.0, 0);
    }
    let rank = (0.99 * (pooled.len() - 1) as f64).round() as usize;
    (pooled[rank], pooled.len() - 1 - rank)
}

/// Add one round of a multi-tenant mix into the running pool of its
/// policy (lanes in the same order every round).
fn pool_mix(pool: &mut Option<MultiTenantReport>, round: MultiTenantReport) {
    let Some(pool) = pool else {
        *pool = Some(round);
        return;
    };
    pool.wall_s += round.wall_s;
    for (total, lane) in pool.lanes.iter_mut().zip(round.lanes) {
        total.attempted += lane.attempted;
        total.completed += lane.completed;
        total.shed += lane.shed;
        total.deadline_failures += lane.deadline_failures;
        total.other_errors += lane.other_errors;
        total.latencies_ms.extend(lane.latencies_ms);
    }
}

/// QCFE(mscn) as the harness trains it (15 iterations in quick mode, 30 in
/// full) — also how the cold-restart baseline retrains and how the revival
/// section trains its divergent model.
fn train_mscn(ctx: &ExperimentContext, quick: bool, rng: &mut StdRng) -> MscnEstimator {
    let iterations = if quick { 15 } else { 30 };
    let encoder = FeatureEncoder::new(&ctx.benchmark.catalog, true);
    let snapshots = Some(&ctx.snapshots_fso);
    MscnEstimator::train(encoder, &ctx.workload, snapshots, None, iterations, rng).0
}

/// A scratch directory, removed on drop — also while a failed check
/// unwinds.
struct TempRoot(PathBuf);

impl TempRoot {
    fn join(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for TempRoot {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// What every section shares.
struct Harness {
    quick: bool,
    seed: u64,
    requests_per_client: usize,
    /// Closed-loop clients and duration of the replication and revival load.
    load_clients: usize,
    load_duration: Duration,
    ctx: ExperimentContext,
    /// Environment `i`'s fitted snapshot and database.
    snapshots: Vec<FeatureSnapshot>,
    dbs: Vec<Database>,
    mscn: Arc<MscnEstimator>,
    qpp: Arc<QppNetEstimator>,
}

impl Harness {
    /// Prepare the context over four environments (the routed gateway
    /// needs four fingerprints) and train both models from `rng`.
    fn prepare(quick: bool, seed: u64, rng: &mut StdRng) -> Harness {
        eprintln!("[serve] preparing {} context...", KIND.name());
        let ctx = prepare_context(
            KIND,
            &ContextConfig {
                seed,
                environments: 4,
                ..ContextConfig::quick(KIND)
            },
        );
        let snapshots = ctx
            .snapshots_fso
            .iter()
            .map(|snapshot| snapshot.clone().expect("snapshot fitted"))
            .collect();
        let dbs = ctx
            .workload
            .environments
            .iter()
            .map(|env| ctx.benchmark.build_database(env.clone()))
            .collect();
        eprintln!("[serve] training QCFE(mscn)...");
        let mscn = train_mscn(&ctx, quick, rng);
        eprintln!("[serve] training QCFE(qpp)...");
        let encoder = FeatureEncoder::new(&ctx.benchmark.catalog, true);
        let mut qpp = QppNetEstimator::new(encoder, None, rng);
        let epochs = if quick { 3 } else { 8 };
        qpp.train(&ctx.workload, Some(&ctx.snapshots_fso), epochs, rng);
        Harness {
            quick,
            seed,
            requests_per_client: if quick { 50 } else { 250 },
            load_clients: if quick { 2 } else { 4 },
            load_duration: Duration::from_millis(if quick { 1500 } else { 3000 }),
            ctx,
            snapshots,
            dbs,
            mscn: Arc::new(mscn),
            qpp: Arc::new(qpp),
        }
    }

    /// `qcfe-serve-bench-<tag>-<pid>-<seed>` under the temp dir, emptied.
    fn temp_root(&self, tag: &str) -> TempRoot {
        let pid = std::process::id();
        let name = format!("qcfe-serve-bench-{tag}-{pid}-{}", self.seed);
        let root = TempRoot(std::env::temp_dir().join(name));
        let _ = std::fs::remove_dir_all(&root.0);
        root
    }

    fn plans(&self) -> Vec<&PlanNode> {
        let queries = &self.ctx.workload.queries;
        queries.iter().map(|q| &q.executed.root).collect()
    }

    /// Environment `i`, shared by the requests that name it.
    fn env(&self, i: usize) -> Arc<DbEnvironment> {
        Arc::new(self.ctx.workload.environments[i].clone())
    }

    /// The first workload plan under environment 0: the scheduling
    /// warm-up and the replication and revival probe.
    fn probe(&self) -> EstimateRequest {
        let plan = self.ctx.workload.queries[0].executed.root.clone();
        EstimateRequest::new(KIND, self.env(0), plan)
    }

    /// Plans/s of `pass` (one pass over `plans` plans): the best of 9
    /// windows of 3 passes (4 in full mode). The shortest window is the
    /// least disturbed by transient machine load.
    fn best_throughput(&self, plans: usize, pass: impl Fn()) -> f64 {
        let passes = if self.quick { 3 } else { 4 };
        let mut best = f64::INFINITY;
        for _ in 0..9 {
            let start = Instant::now();
            for _ in 0..passes {
                pass();
            }
            best = best.min(start.elapsed().as_secs_f64());
        }
        (passes * plans) as f64 / best
    }

    /// One closed-loop run against a fresh `EstimationService` over
    /// environment 0.
    fn closed_loop_service(
        &self,
        model: Arc<dyn CostModel>,
        clients: usize,
        max_batch: usize,
        seed: u64,
    ) -> (LoadReport, MetricsSnapshot) {
        let config = ServiceConfig {
            max_batch,
            ..SHARD_CONFIG
        };
        let service = EstimationService::start(model, Some(self.snapshots[0].clone()), config);
        let handle = service.handle();
        let load = ClosedLoopConfig::new(clients, self.requests_per_client, seed);
        let run = run_closed_loop(&self.ctx.benchmark, &load, |query| {
            let plan = self.dbs[0].plan(&query).map_err(|e| e.to_string())?;
            Ok(handle.estimate(plan).map_err(|e| e.to_string())?.cost_ms)
        });
        let metrics = service.shutdown();
        assert_eq!(run.errors, 0, "serving must not drop closed-loop requests");
        (run, metrics)
    }

    /// A gateway from `builder` serving `model` for the first `envs`
    /// environments, each with its fitted snapshot published.
    fn deploy(
        &self,
        builder: GatewayBuilder,
        model: Arc<dyn CostModel>,
        envs: usize,
    ) -> QcfeGateway {
        let gateway = builder.build().expect("gateway builds");
        let environments = self.ctx.workload.environments.iter();
        for (env, snapshot) in environments.zip(&self.snapshots).take(envs) {
            gateway
                .publish_snapshot(KIND, env, snapshot)
                .expect("snapshot published");
            let key = ModelKey::new(KIND, EstimatorKind::QcfeMscn, env.fingerprint());
            gateway.register_model(key, Arc::clone(&model));
        }
        gateway
    }

    /// The replication and revival load: `load_clients` closed-loop
    /// clients on environment 0 for `load_duration`, each request handed to
    /// `send` with a pooled `ShardClient`.
    fn replica_load(
        &self,
        peers: &[String],
        seed: u64,
        send: impl Fn(&mut ShardClient, &EstimateRequest) -> Result<f64, String> + Sync,
    ) -> LoadReport {
        let env = self.env(0);
        let (clients, duration) = (self.load_clients, self.load_duration);
        let pool = Mutex::new(
            (0..clients)
                .map(|_| shard_client(peers))
                .collect::<Vec<_>>(),
        );
        run_timed_loop(&self.ctx.benchmark, clients, duration, seed, |query| {
            let plan = self.dbs[0].plan(&query).map_err(|e| e.to_string())?;
            let request = EstimateRequest::new(KIND, Arc::clone(&env), plan);
            let pooled = pool.lock().expect("pool lock").pop();
            let mut client = pooled.expect("pooled client");
            let result = send(&mut client, &request);
            pool.lock().expect("pool lock").push(client);
            result
        })
    }
}

/// A gateway builder on `root` with the shared per-shard configuration.
fn shard_gateway(root: impl Into<PathBuf>) -> GatewayBuilder {
    QcfeGateway::builder(root).service_config(SHARD_CONFIG)
}

/// Publish `env`'s snapshot and QCFE(mscn) weights on `gateway`.
fn publish(
    gateway: &QcfeGateway,
    env: &DbEnvironment,
    snapshot: &FeatureSnapshot,
    model: &MscnEstimator,
) {
    gateway
        .publish_snapshot(KIND, env, snapshot)
        .expect("snapshot published");
    let key = ModelKey::new(KIND, EstimatorKind::QcfeMscn, env.fingerprint());
    gateway
        .publish_model(key, PersistedModel::Mscn(model.clone()))
        .expect("weights published");
}

/// Reserve `n` distinct local TCP addresses by binding ephemeral
/// listeners, then releasing them for the replica servers to re-bind.
fn reserve_peers(n: usize) -> Vec<String> {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind ephemeral"))
        .collect();
    listeners
        .iter()
        .map(|l| l.local_addr().expect("local addr").to_string())
        .collect()
}

/// A client routing over `peers`, 50 ms between routing attempts.
fn shard_client(peers: &[String]) -> ShardClient {
    let view = ReplicaSet::client_view(peers.to_vec()).expect("client view");
    ShardClient::new(Arc::new(view)).attempt_backoff(Duration::from_millis(50))
}

/// The estimate of `probe` through a fresh client routing over `peers`.
fn remote_probe(peers: &[String], probe: &EstimateRequest, phase: &str) -> f64 {
    match shard_client(peers).estimate(probe) {
        Ok(response) => response.cost_ms,
        Err(error) => panic!("{phase} probe failed: {error}"),
    }
}

/// Poll `done` every `every` until it holds; panics after 30 s.
fn wait_until(what: &str, every: Duration, done: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !done() {
        assert!(Instant::now() < deadline, "{what} within 30s");
        std::thread::sleep(every);
    }
}

/// One replica: liveness view, replicator, gateway and TCP server.
struct ReplicaNode {
    set: Arc<ReplicaSet>,
    replicator: Option<Replicator>,
    gateway: Arc<QcfeGateway>,
    server: Option<ServerHandle>,
}

impl ReplicaNode {
    /// Start peer `i` of `peers` over the store at `root`. With
    /// `anti_entropy` its replicator reads that store, so a peer seen
    /// coming back is caught up before it re-enters placement.
    fn start(peers: &[String], i: usize, root: &Path, anti_entropy: bool) -> ReplicaNode {
        let set = Arc::new(ReplicaSet::new(peers.to_vec(), i).expect("replica set"));
        let config = ReplicatorConfig {
            heartbeat: Duration::from_millis(100),
            connect_timeout: Duration::from_millis(100),
        };
        let replicator = if anti_entropy {
            let store = SnapshotStore::open(root).expect("store opens");
            Replicator::with_store(Arc::clone(&set), config, store)
        } else {
            Replicator::start(Arc::clone(&set), config)
        };
        let gateway = shard_gateway(root)
            .replication(Arc::clone(&set), replicator.sink())
            .build()
            .expect("replica gateway builds");
        let gateway = Arc::new(gateway);
        let server = NetServerBuilder::new(Arc::clone(&gateway))
            .tcp(peers[i].clone())
            .replica(Arc::clone(&set))
            .max_connections(64)
            .start()
            .expect("replica server starts");
        ReplicaNode {
            set,
            replicator: Some(replicator),
            gateway,
            server: Some(server),
        }
    }

    /// Whether this replica's store holds `key`'s snapshot and weights.
    fn holds(&self, key: &ModelKey) -> bool {
        let store = self.gateway.store();
        store.contains(key.benchmark, key.fingerprint)
            && store.contains_model(key.benchmark, key.estimator, key.fingerprint)
    }

    /// Drain the server if it still runs, returning its counters.
    fn stop(&mut self) -> Option<ServerStats> {
        let server = self.server.take()?;
        Some(server.join().expect("replica drains"))
    }
}

fn main() {
    let (quick, seed) = parse_common_args();
    let mut rng = StdRng::seed_from_u64(seed);
    let h = Harness::prepare(quick, seed, &mut rng);
    let description = format!(
        "closed-loop serving throughput + QPPNet batched-vs-scalar, {} requests/client, seed {seed}",
        h.requests_per_client
    );
    let report = ExperimentReport::new("serve", description, quick);
    let mut run = Run {
        report,
        gates: Vec::new(),
    };
    qppnet_batching(&h, &mut run.section("QPPNet batching"));
    kernel_sweep(&h, &mut run.section("kernel sweep"));
    service_sweep(&h, &mut run.section("service sweep"));
    routed_gateway(&h, &mut run.section("routed gateway"));
    cold_restart(&h, &mut rng, &mut run.section("cold restart"));
    refinement(&h, &mut run.section("refinement"));
    network(&h, &mut run.section("network"));
    scheduling(&h, &mut run.section("scheduling"));
    replication(&h, &mut run.section("replication"));
    revival(&h, &mut run.section("revival"));

    let gate_table = run.gate_table();
    run.report.add_table(gate_table);
    println!("{}", run.report.render());
    if let Some(path) = run.report.save_json() {
        eprintln!("[serve] report saved to {}", path.display());
    }
    if let Some(path) = run.report.save_bench_json() {
        eprintln!("[serve] bench trajectory saved to {}", path.display());
    }
    let failures = run.failures();
    for failure in &failures {
        eprintln!("[serve] gate failed: {failure}");
    }
    if !failures.is_empty() {
        std::process::exit(1);
    }
}

/// Direct (no service) QPPNet inference: scalar vs operator-grouped
/// batched, swept over the plans per `predict_batch` call. The batches
/// flatten plans straight into the engine; a served QCFE(qpp) request
/// instead runs encode → encoding cache → `predict_encoded`, timed by
/// [`service_sweep`].
fn qppnet_batching(h: &Harness, out: &mut Section) {
    let plans = h.plans();
    let snapshot = Some(&h.snapshots[0]);
    // Warm-up: fills thread-local and per-call scratch buffers.
    let _ = h.qpp.predict_batch(&plans, snapshot);
    let scalar = h.best_throughput(plans.len(), || {
        for plan in &plans {
            let _ = h.qpp.predict_scalar(plan, snapshot);
        }
    });
    let mut table = ReportTable::new(
        "QPPNet operator-grouped batching (direct inference)",
        &["batch size", "throughput (plans/s)", "speedup vs scalar"],
    );
    table.push_row(vec!["scalar".into(), format!("{scalar:.0}"), fmt3(1.0)]);
    let mut best_batched: f64 = 0.0;
    for batch_size in [1usize, 8, 32, 128] {
        let tput = h.best_throughput(plans.len(), || {
            for chunk in plans.chunks(batch_size) {
                let _ = h.qpp.predict_batch(chunk, snapshot);
            }
        });
        if batch_size > 1 {
            best_batched = best_batched.max(tput);
        }
        let speedup = tput / scalar;
        table.push_row(vec![
            batch_size.to_string(),
            format!("{tput:.0}"),
            fmt3(speedup),
        ]);
        eprintln!("[serve] qppnet batch={batch_size}: {tput:.0} plans/s ({speedup:.2}x scalar)");
    }
    out.add_table(table);
    out.at_least("best batched plans/s vs scalar", best_batched, scalar);
}

/// The batch-32 direct QPPNet workload of [`qppnet_batching`] (not the
/// served path), then QCFE(mscn) through the `EstimationService`
/// (micro-batched closed-loop clients), under each kernel the CPU
/// dispatches. `force_kernel` overrides the `QCFE_KERNEL`-resolved default
/// so one process compares them all.
fn kernel_sweep(h: &Harness, out: &mut Section) {
    let kernels: Vec<MatmulKernel> = MatmulKernel::ALL
        .into_iter()
        .filter(|k| k.is_supported())
        .collect();
    let force = |kernel: MatmulKernel| {
        assert!(force_kernel(Some(kernel)), "{} dispatches", kernel.name());
    };
    let plans = h.plans();
    let snapshot = Some(&h.snapshots[0]);
    let mut table = ReportTable::new(
        "Matmul kernel sweep: QPPNet direct inference, batch 32",
        &["kernel", "throughput (plans/s)", "speedup vs scalar"],
    );
    let (mut scalar, mut avx2) = (0.0, None);
    for &kernel in &kernels {
        force(kernel);
        let tput = h.best_throughput(plans.len(), || {
            for chunk in plans.chunks(32) {
                let _ = h.qpp.predict_batch(chunk, snapshot);
            }
        });
        match kernel {
            MatmulKernel::Scalar => scalar = tput,
            MatmulKernel::Avx2 => avx2 = Some(tput),
            _ => {}
        }
        let name = kernel.name();
        table.push_row(vec![name.into(), format!("{tput:.0}"), fmt3(tput / scalar)]);
        eprintln!(
            "[serve] kernel={name}: {tput:.0} plans/s ({:.2}x scalar)",
            tput / scalar
        );
    }
    out.add_table(table);

    let mut table = ReportTable::new(
        "Matmul kernel sweep: EstimationService path (QCFE(mscn), 8 clients, max_batch 32)",
        &["kernel", "throughput (est/s)"],
    );
    for &kernel in &kernels {
        force(kernel);
        let (run, _) = h.closed_loop_service(h.mscn.clone(), 8, 32, h.seed + 500);
        let tput = run.throughput_qps();
        table.push_row(vec![kernel.name().into(), format!("{tput:.0}")]);
        eprintln!("[serve] service kernel={}: {tput:.0} est/s", kernel.name());
    }
    force_kernel(None);
    out.add_table(table);
    out.at_least("AVX2 plans/s vs 1.15x scalar", avx2, 1.15 * scalar);
}

/// Closed-loop sweeps through one `EstimationService` per model family,
/// with micro-batching off and on. Both families draw the same queries,
/// so at 8 clients and max_batch 32 QCFE(qpp)'s cache-hit rate is gated
/// against QCFE(mscn)'s, and its throughput is set beside the roadmap's
/// target of 0.8x QCFE(mscn)'s (reported, not gated: timing ratios flake
/// on a busy host). That throughput ratio comes from
/// [`SWEEP_RATIO_ROUNDS`] alternating rounds, not from the table's rows:
/// each round runs a fresh service per model on the same seed, the model
/// that goes first alternating, and each side's throughput is its total
/// completions over its total time.
fn service_sweep(h: &Harness, out: &mut Section) {
    let mut table = ReportTable::new(
        "EstimationService throughput",
        &[
            "model",
            "clients",
            "max_batch",
            "throughput (est/s)",
            "client p50 (ms)",
            "client p99 (ms)",
            "mean batch",
            "cache hit rate",
        ],
    );
    let mscn_clients: &[usize] = if h.quick { &[1, 8] } else { &[1, 4, 8, 16, 32] };
    let qpp_clients: &[usize] = if h.quick { &[8] } else { &[8, 32] };
    let models: [(&str, Arc<dyn CostModel>, &[usize]); 2] = [
        ("QCFE(mscn)", h.mscn.clone(), mscn_clients),
        ("QCFE(qpp)", h.qpp.clone(), qpp_clients),
    ];
    // Each family's cache-hit rate at 8 clients, max_batch 32.
    let mut hits = [f64::NAN; 2];
    for (m, (name, model, client_counts)) in models.iter().enumerate() {
        for &clients in *client_counts {
            for max_batch in [1usize, 32] {
                let (run, metrics) =
                    h.closed_loop_service(Arc::clone(model), clients, max_batch, h.seed + 100);
                if (clients, max_batch) == (8, 32) {
                    hits[m] = metrics.cache_hit_rate;
                }
                table.push_row(vec![
                    name.to_string(),
                    clients.to_string(),
                    max_batch.to_string(),
                    format!("{:.0}", run.throughput_qps()),
                    fmt3(run.latency_percentile_ms(50.0)),
                    fmt3(run.latency_percentile_ms(99.0)),
                    fmt3(metrics.mean_batch_size),
                    fmt3(metrics.cache_hit_rate),
                ]);
                eprintln!(
                    "[serve] {name} clients={clients} max_batch={max_batch}: {:.0} est/s, p99 {:.3} ms, mean batch {:.2}, cache {:.0}%",
                    run.throughput_qps(),
                    run.latency_percentile_ms(99.0),
                    metrics.mean_batch_size,
                    100.0 * metrics.cache_hit_rate,
                );
            }
        }
    }
    out.add_table(table);
    let mut totals = [(0usize, 0.0f64); 2];
    for round in 0..SWEEP_RATIO_ROUNDS {
        for m in [round % 2, 1 - round % 2] {
            let (run, _) = h.closed_loop_service(Arc::clone(&models[m].1), 8, 32, h.seed + 100);
            totals[m].0 += run.completed;
            totals[m].1 += run.wall_s;
        }
    }
    let [mscn_eps, qpp_eps] = totals.map(|(completed, secs)| completed as f64 / secs);
    eprintln!(
        "[serve] QCFE(qpp) / QCFE(mscn) over {SWEEP_RATIO_ROUNDS} alternating rounds: {qpp_eps:.0} / {mscn_eps:.0} est/s ({:.3}x)",
        qpp_eps / mscn_eps
    );
    let mut ratios = ReportTable::new(
        "QCFE(qpp) against QCFE(mscn), 8 clients, max_batch 32",
        &["ratio", "QCFE(qpp) / QCFE(mscn)", "target"],
    );
    let hit_ratio = hits[1] / hits[0];
    ratios.push_row(vec![
        "cache-hit rate".into(),
        fmt3(hit_ratio),
        format!(">= {QPP_CACHE_HIT_SHARE} (gated)"),
    ]);
    ratios.push_row(vec![
        format!("throughput, pooled over {SWEEP_RATIO_ROUNDS} alternating rounds"),
        fmt3(qpp_eps / mscn_eps),
        ">= 0.8 (roadmap, not gated)".into(),
    ]);
    out.add_table(ratios);
    out.at_least(
        "QCFE(qpp) cache-hit rate / QCFE(mscn)'s, 8 clients, max_batch 32",
        hit_ratio,
        QPP_CACHE_HIT_SHARE,
    );
}

/// The routed gateway against hand-wired per-environment services: one
/// closed-loop client per environment, with the same models, snapshots and
/// per-shard configuration on both sides; the only difference is whether
/// requests go through the typed front door.
fn routed_gateway(h: &Harness, out: &mut Section) {
    let envs = h.ctx.workload.environments.len();
    // Hand-wired: one EstimationService per environment, assembled by the
    // caller exactly as pre-gateway code did.
    let services: Vec<EstimationService> = h
        .snapshots
        .iter()
        .map(|s| EstimationService::start(h.mscn.clone(), Some(s.clone()), SHARD_CONFIG))
        .collect();
    let handles: Vec<ServiceHandle> = services.iter().map(|s| s.handle()).collect();
    let handwired = |i: usize, plan: PlanNode| -> Result<f64, String> {
        Ok(handles[i]
            .estimate(plan)
            .map_err(|e| e.to_string())?
            .cost_ms)
    };
    // Routed: one QcfeGateway owning everything; clients submit typed
    // requests naming only their environment.
    let root = h.temp_root("gateway");
    let gateway = h.deploy(shard_gateway(root.join("gateway")), h.mscn.clone(), envs);
    let routed_envs: Vec<Arc<DbEnvironment>> = (0..envs).map(|i| h.env(i)).collect();
    let routed = |i: usize, plan: PlanNode| -> Result<f64, String> {
        let request = EstimateRequest::new(KIND, Arc::clone(&routed_envs[i]), plan);
        Ok(gateway
            .estimate(request)
            .map_err(|e| e.to_string())?
            .cost_ms)
    };

    // One round of one side: a closed-loop client per environment, each
    // issuing `requests_per_client` requests; returns (completions,
    // seconds). Both sides of a round draw the same queries.
    let run_round = |estimate: &(dyn Fn(usize, PlanNode) -> Result<f64, String> + Sync),
                     round: usize|
     -> (usize, f64) {
        let started = Instant::now();
        let completed: usize = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..envs)
                .map(|i| {
                    let client_seed = h.seed + 300 + (round * envs + i) as u64;
                    scope.spawn(move || {
                        let load = ClosedLoopConfig::new(1, h.requests_per_client, client_seed);
                        let run = run_closed_loop(&h.ctx.benchmark, &load, |query| {
                            estimate(i, h.dbs[i].plan(&query).map_err(|e| e.to_string())?)
                        });
                        assert_eq!(run.errors, 0, "gateway-section serving must not fail");
                        run.completed
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        (completed, started.elapsed().as_secs_f64())
    };
    // Both deployments stay up for the whole comparison. An untimed
    // warm-up round starts the gateway's shards (the hand-wired services
    // are already running), then the two sides alternate (hand-wired first
    // in odd rounds, routed first in even ones), so host drift lands on
    // both sides instead of on whichever ran second. Each side's
    // throughput is its total completions over its total time.
    run_round(&handwired, 0);
    run_round(&routed, 0);
    let mut totals = [(0usize, 0.0f64); 2];
    for round in 1..=GATEWAY_ROUNDS {
        for side in [1 - round % 2, round % 2] {
            let (completed, secs) = if side == 0 {
                run_round(&handwired, round)
            } else {
                run_round(&routed, round)
            };
            totals[side].0 += completed;
            totals[side].1 += secs;
        }
    }
    let [wired_eps, routed_eps] = totals.map(|(completed, secs)| completed as f64 / secs);
    drop(services);
    assert_eq!(
        gateway.stats().shard_starts as usize,
        envs,
        "each environment must start exactly one shard"
    );

    let mut table = ReportTable::new(
        "Routed gateway vs hand-wired services (QCFE(mscn), 1 client per environment)",
        &[
            "setup",
            "environments",
            "clients",
            "aggregate throughput (est/s)",
            "ratio vs hand-wired",
        ],
    );
    for (setup, eps) in [
        ("hand-wired per-service", wired_eps),
        ("routed QcfeGateway", routed_eps),
    ] {
        table.push_row(vec![
            setup.into(),
            envs.to_string(),
            envs.to_string(),
            format!("{eps:.0}"),
            fmt3(eps / wired_eps),
        ]);
    }
    out.add_table(table);
    eprintln!(
        "[serve] routed gateway across {envs} envs: {routed_eps:.0} est/s vs hand-wired {wired_eps:.0} est/s ({:.2}x)",
        routed_eps / wired_eps
    );
    out.at_least("est/s vs 0.8x hand-wired", routed_eps, 0.8 * wired_eps);
}

/// Time to first estimate of a gateway rebuilt on a store holding
/// persisted `QCFW` weights (disk load) against one that must retrain the
/// same model through its provider; both serve the same environment and
/// plan, drawn from the harness RNG.
fn cold_restart(h: &Harness, rng: &mut StdRng, out: &mut Section) {
    let env0 = h.ctx.workload.environments[0].clone();
    let plan = h.dbs[0]
        .plan(&h.ctx.benchmark.random_query(rng))
        .expect("plannable");
    let root = h.temp_root("restart");

    // First life: publish snapshot + weights, then "exit".
    let first_life = shard_gateway(root.join("disk"))
        .build()
        .expect("gateway builds");
    publish(&first_life, &env0, &h.snapshots[0], &h.mscn);
    drop(first_life);
    let started = Instant::now();
    let gateway = shard_gateway(root.join("disk"))
        .build()
        .expect("gateway rebuilds");
    let response = gateway
        .estimate(EstimateRequest::new(KIND, env0.clone(), plan.clone()))
        .expect("disk-load estimate");
    let disk_ms = started.elapsed().as_secs_f64() * 1e3;
    assert!(
        response.provenance.snapshot_origin.is_from_disk(),
        "cold restart must serve from persisted weights, got {:?}",
        response.provenance.snapshot_origin
    );
    drop(gateway);

    let (quick, seed, ctx) = (h.quick, h.seed, h.ctx.clone());
    let started = Instant::now();
    let gateway = shard_gateway(root.join("retrain"))
        .model_provider(move |_, _| {
            // The pre-QCFW boot path: rebuild the model from the labeled
            // workload, exactly as the offline phase trained it.
            let retrained = train_mscn(&ctx, quick, &mut StdRng::seed_from_u64(seed));
            Some(Arc::new(retrained) as Arc<dyn CostModel>)
        })
        .build()
        .expect("gateway builds");
    gateway
        .publish_snapshot(KIND, &env0, &h.snapshots[0])
        .expect("snapshot published");
    let response = gateway
        .estimate(EstimateRequest::new(KIND, env0, plan))
        .expect("retrain estimate");
    let retrain_ms = started.elapsed().as_secs_f64() * 1e3;
    assert!(
        !response.provenance.snapshot_origin.is_from_disk(),
        "the retrain baseline must not find persisted weights"
    );
    drop(gateway);

    let mut table = ReportTable::new(
        "Cold restart: time-to-first-estimate (QCFE(mscn))",
        &["boot path", "time to first estimate (ms)", "speedup"],
    );
    table.push_row(vec![
        "retrain via model provider".into(),
        fmt3(retrain_ms),
        fmt3(1.0),
    ]);
    table.push_row(vec![
        "QCFW disk load".into(),
        fmt3(disk_ms),
        fmt3(retrain_ms / disk_ms),
    ]);
    out.add_table(table);
    eprintln!(
        "[serve] cold restart: disk load {disk_ms:.3} ms vs retrain {retrain_ms:.3} ms ({:.1}x faster)",
        retrain_ms / disk_ms
    );
    out.below("disk-load ms vs retrain ms", disk_ms, retrain_ms);
}

/// The paper's Table VII loop, online: a cold environment warm-starts from
/// environment 0's published snapshot (transferred), its estimate error
/// against observed executions is measured, its executions then stream
/// through `record_execution` (refit, promotion to trained-here), and the
/// same seeded query stream is measured again.
fn refinement(h: &Harness, out: &mut Section) {
    let envs = &h.ctx.workload.environments;
    // The coldest plausible start: the environment farthest from env 0 in
    // knob space borrows env 0's snapshot.
    let b = (1..envs.len())
        .max_by(|&i, &j| {
            envs[0]
                .distance_to(&envs[i])
                .total_cmp(&envs[0].distance_to(&envs[j]))
        })
        .expect("≥2 environments");
    let (env_b, db_b) = (h.env(b), &h.dbs[b]);
    let root = h.temp_root("refine");
    let gateway = shard_gateway(root.join("gateway"))
        .refinement(RefinementConfig {
            refit_threshold: 64,
            buffer_capacity: 16384,
        })
        .with_model(
            ModelKey::new(KIND, EstimatorKind::QcfeMscn, env_b.fingerprint()),
            h.mscn.clone(),
        )
        .build()
        .expect("gateway builds");
    gateway
        .publish_snapshot(KIND, &envs[0], &h.snapshots[0])
        .expect("neighbour published");

    // One closed feedback loop, run before and after feedback: plan,
    // estimate through the gateway, execute on the simulator for the
    // observed label. One client and identical query + execution-noise
    // seeds make both phases submit identical queries against identical
    // observed labels, so the error delta is the refinement effect and
    // nothing else (the refit-vs-transferred gate cannot flake on
    // execution noise).
    let measure_seed = h.seed + 700;
    let measure = |expect_refined: bool| {
        let exec_rng = Mutex::new(StdRng::seed_from_u64(measure_seed ^ 0x0b5e));
        let load = ClosedLoopConfig::new(1, 2 * h.requests_per_client, measure_seed);
        let run = run_feedback_loop(&h.ctx.benchmark, &load, |query| {
            let plan = db_b.plan(&query).map_err(|e| e.to_string())?;
            let response = gateway
                .estimate(EstimateRequest::new(KIND, Arc::clone(&env_b), plan))
                .map_err(|e| e.to_string())?;
            assert_eq!(
                response.provenance.refined, expect_refined,
                "refinement provenance must match the phase"
            );
            let executed = db_b
                .execute(&query, &mut *exec_rng.lock().expect("rng lock"))
                .map_err(|e| e.to_string())?;
            Ok(ObservedEstimate {
                estimate_ms: response.cost_ms,
                observed_ms: executed.total_ms,
            })
        });
        assert_eq!(run.errors, 0, "refinement serving must not fail");
        run
    };
    let transferred = measure(false);

    // Feedback phase: stream fresh executed queries as labels while
    // estimates keep flowing — the online loop, not a maintenance window.
    // One client, whose `record_execution` refits inline, so the label
    // order, the refits and the refined row are a function of the seed.
    let feedback_rng = Mutex::new(StdRng::seed_from_u64(h.seed + 800));
    let load = ClosedLoopConfig::new(1, 2 * h.requests_per_client.max(60), h.seed + 900);
    let feedback = run_feedback_loop(&h.ctx.benchmark, &load, |query| {
        let executed = db_b
            .execute(&query, &mut *feedback_rng.lock().expect("rng lock"))
            .map_err(|e| e.to_string())?;
        let request = EstimateRequest::new(KIND, Arc::clone(&env_b), executed.root.clone());
        let response = gateway.estimate(request).map_err(|e| e.to_string())?;
        gateway
            .record_execution(KIND, &env_b, &executed)
            .map_err(|e| e.to_string())?;
        Ok(ObservedEstimate {
            estimate_ms: response.cost_ms,
            observed_ms: executed.total_ms,
        })
    });
    assert_eq!(feedback.errors, 0, "feedback serving must not fail");
    let stats = gateway.stats();
    let refined = measure(true);

    let mut table = ReportTable::new(
        "Online refinement: estimate error on a cold environment (QCFE(mscn))",
        &[
            "phase",
            "snapshot",
            "mean q-error",
            "median q-error",
            "refits",
            "promotions",
        ],
    );
    table.push_row(vec![
        "before feedback".into(),
        "transferred from nearest".into(),
        fmt3(transferred.mean_q_error()),
        fmt3(transferred.median_q_error()),
        "0".into(),
        "0".into(),
    ]);
    table.push_row(vec![
        "after feedback".into(),
        "refit from own labels".into(),
        fmt3(refined.mean_q_error()),
        fmt3(refined.median_q_error()),
        stats.refits.to_string(),
        stats.promotions.to_string(),
    ]);
    out.add_table(table);
    eprintln!(
        "[serve] refinement: mean q-error {:.3} (transferred) -> {:.3} (refit) over {} labels, {} refits",
        transferred.mean_q_error(),
        refined.mean_q_error(),
        stats.labels_recorded,
        stats.refits,
    );
    let (refined_q, transferred_q) = (refined.mean_q_error(), transferred.mean_q_error());
    out.at_most("refit q-error vs transferred", refined_q, transferred_q);
    out.at_least("refits", stats.refits as f64, 1.0);
    out.equals("promotions", stats.promotions as f64, 1.0);
}

/// The routed gateway behind the `qcfe-net` reactor on a loopback
/// Unix-domain socket: N remote clients each pipeline their whole request
/// batch through one connection, against the same N clients calling the
/// gateway in process. Loopback throughput is machine noise, so it is
/// reported, not gated; the mean micro-batch the shards drain over each
/// window is a count, and the UDS one is gated.
fn network(h: &Harness, out: &mut Section) {
    let root = h.temp_root("net");
    let envs = h.ctx.workload.environments.len();
    let gateway = h.deploy(shard_gateway(root.join("gateway")), h.mscn.clone(), envs);
    let gateway = Arc::new(gateway);
    let clients = if h.quick { 8 } else { 16 };
    let queries = &h.ctx.workload.queries;
    let requests: Vec<Vec<EstimateRequest>> = (0..clients)
        .map(|c| {
            let env = h.env(c % envs);
            (0..h.requests_per_client)
                .map(|r| {
                    let plan = queries[(c + r) % queries.len()].executed.root.clone();
                    EstimateRequest::new(KIND, Arc::clone(&env), plan)
                })
                .collect()
        })
        .collect();
    let socket = root.join("reactor.sock");
    let server = NetServerBuilder::new(Arc::clone(&gateway))
        .uds(&socket)
        .max_connections(clients + 4)
        .start()
        .expect("net server starts");

    // Bit-identity sanity (also warms every environment's shard before
    // either timing window): one request per client batch, remote vs
    // in-process.
    {
        let mut client = QcfeClient::connect_uds(&socket).expect("client connects");
        for batch in &requests {
            let expected = gateway.estimate(batch[0].clone()).expect("in-process");
            let remote = client.estimate(&batch[0]).expect("remote");
            assert_eq!(
                remote.cost_ms.to_bits(),
                expected.cost_ms.to_bits(),
                "remote estimate must be bit-identical to in-process"
            );
        }
    }

    // (completed, drained micro-batches) summed over the resident shards:
    // the deltas across a timing window give its mean micro-batch.
    let totals = || {
        gateway
            .resident_shards()
            .iter()
            .filter_map(|key| gateway.shard_metrics(key))
            .fold((0u64, 0u64), |(completed, batches), m| {
                (completed + m.completed, batches + m.batches)
            })
    };
    // Throughput and mean micro-batch of one window of every client.
    let window = |client: &(dyn Fn(&[EstimateRequest]) + Sync)| {
        let before = totals();
        let started = Instant::now();
        std::thread::scope(|scope| {
            for batch in &requests {
                scope.spawn(move || client(batch));
            }
        });
        let tput = (clients * h.requests_per_client) as f64 / started.elapsed().as_secs_f64();
        let after = totals();
        let batch_mean = (after.0 - before.0) as f64 / (after.1 - before.1).max(1) as f64;
        (tput, batch_mean)
    };
    let (inproc_tput, inproc_batch_mean) = window(&|batch| {
        for request in batch {
            gateway.estimate(request.clone()).expect("in-process");
        }
    });
    let (net_tput, net_batch_mean) = window(&|batch| {
        let mut client = QcfeClient::connect_uds(&socket).expect("client connects");
        for request in batch {
            client.send(request).expect("send");
        }
        for _ in 0..batch.len() {
            let response = client.recv().expect("recv");
            response.outcome.expect("remote estimate");
        }
    });
    let stats = server.join().expect("clean reactor shutdown");

    let mut table = ReportTable::new(
        "Network front end: loopback UDS reactor vs in-process gateway (QCFE(mscn))",
        &[
            "path",
            "clients",
            "requests/client",
            "aggregate throughput (est/s)",
            "ratio vs in-process",
            "mean micro-batch",
        ],
    );
    for (path, tput, batch_mean) in [
        ("in-process QcfeGateway", inproc_tput, inproc_batch_mean),
        ("qcfe-net UDS reactor (pipelined)", net_tput, net_batch_mean),
    ] {
        table.push_row(vec![
            path.into(),
            clients.to_string(),
            h.requests_per_client.to_string(),
            format!("{tput:.0}"),
            fmt3(tput / inproc_tput),
            format!("{batch_mean:.2}"),
        ]);
    }
    out.add_table(table);
    eprintln!(
        "[serve] network front end: {clients} pipelined UDS clients {net_tput:.0} est/s vs in-process {inproc_tput:.0} est/s ({:.2}x); mean micro-batch {net_batch_mean:.2} over UDS, {inproc_batch_mean:.2} in process",
        net_tput / inproc_tput
    );
    // A count, not a timing: one hand-off per request gives about 2.
    out.at_least("UDS mean micro-batch", net_batch_mean, NET_MIN_BATCH_MEAN);
    let expected = clients + clients * h.requests_per_client;
    out.equals("responses ok", stats.responses_ok as f64, expected as f64);
    out.equals("faulted responses", stats.responses_fault as f64, 0.0);
    out.equals("protocol errors", stats.protocol_errors as f64, 0.0);
}

/// One adversarial mix replayed against a blind-FIFO gateway and one
/// running `SchedPolicy::edf()` with a 2-slot queue share on the greedy
/// tenant. The greedy tenant floods a single-worker, throttled shard (1 ms
/// per micro-batch, max_batch 2) with deadline-less traffic from 16
/// closed-loop clients while two compliant tenants (2 clients each) submit
/// deadline-carrying requests; the throttle makes queue wait dominate
/// latency, so the comparison measures ordering policy, not inference
/// speed. Both gateways stay up and the mix runs in alternating FIFO/EDF
/// rounds (one seed per round, replayed on both), pooling each policy's
/// lanes until its compliant p99 has `SCHED_TAIL_SAMPLES` samples above it.
fn scheduling(h: &Harness, out: &mut Section) {
    let requests = if h.quick { 40 } else { 120 };
    let deadline = Duration::from_secs(5);
    let lanes = [
        TenantLoad::greedy(GREEDY_TENANT, 16, requests),
        TenantLoad::compliant(COMPLIANT_TENANTS[0], 2, requests, deadline),
        TenantLoad::compliant(COMPLIANT_TENANTS[1], 2, requests, deadline),
    ];
    let config = ServiceConfig {
        workers: 1,
        queue_capacity: 64,
        max_batch: 2,
        encoding_cache_capacity: 1024,
    };
    let throttled: Arc<dyn CostModel> = Arc::new(ThrottledModel {
        inner: h.mscn.clone(),
        delay: Duration::from_millis(1),
    });
    let env = h.env(0);
    let run_mix = |gateway: &QcfeGateway, round_seed: u64| {
        run_multi_tenant_mix(
            &h.ctx.benchmark,
            &lanes,
            round_seed,
            |tenant, deadline, query| {
                let plan = h.dbs[0]
                    .plan(&query)
                    .map_err(|e| SubmitError::Other(e.to_string()))?;
                let mut request = EstimateRequest::new(KIND, Arc::clone(&env), plan)
                    .with_tenant(TenantId(tenant));
                request.options.shed_load = true;
                if let Some(deadline) = deadline {
                    request = request.with_deadline(deadline);
                }
                match gateway.estimate(request) {
                    Ok(response) => Ok(response.cost_ms),
                    Err(QcfeError::Service(ServiceError::QueueFull { .. })) => {
                        Err(SubmitError::Shed)
                    }
                    Err(QcfeError::DeadlineExceeded { .. }) => Err(SubmitError::DeadlineExceeded),
                    Err(other) => Err(SubmitError::Other(other.to_string())),
                }
            },
        )
    };
    let root = h.temp_root("sched");
    let start = |tag: &str, policy: SchedPolicy| {
        let builder = QcfeGateway::builder(root.join(tag)).service_config(config);
        let gateway = h.deploy(builder.scheduling(policy), Arc::clone(&throttled), 1);
        // Warm the shard so neither policy pays model load on its first
        // timed request.
        gateway.estimate(h.probe()).expect("warm-up estimate");
        gateway
    };
    eprintln!("[serve] multi-tenant scheduling: adversarial mix vs FIFO baseline...");
    let fifo_gateway = start("fifo", SchedPolicy::fifo());
    let quota = TenantQuota::new(f64::INFINITY, f64::INFINITY, 2);
    let edf = SchedPolicy::edf()
        .with_age_after(Duration::from_millis(50))
        .with_quota(TenantId(GREEDY_TENANT), quota);
    let edf_gateway = start("edf", edf);
    let (mut fifo_pool, mut edf_pool) = (None, None);
    let tail_samples = |pool: &Option<MultiTenantReport>| {
        pool.as_ref()
            .map_or(0, |mix| pooled_p99_ms(mix, &COMPLIANT_TENANTS).1)
    };
    let mut rounds = 0;
    while rounds < SCHED_MAX_ROUNDS
        && (tail_samples(&fifo_pool) < SCHED_TAIL_SAMPLES
            || tail_samples(&edf_pool) < SCHED_TAIL_SAMPLES)
    {
        let round_seed = h.seed + 700 + rounds as u64;
        if rounds % 2 == 0 {
            pool_mix(&mut fifo_pool, run_mix(&fifo_gateway, round_seed));
            pool_mix(&mut edf_pool, run_mix(&edf_gateway, round_seed));
        } else {
            pool_mix(&mut edf_pool, run_mix(&edf_gateway, round_seed));
            pool_mix(&mut fifo_pool, run_mix(&fifo_gateway, round_seed));
        }
        rounds += 1;
    }
    let edf_stats = edf_gateway.stats();
    drop((fifo_gateway, edf_gateway));
    let fifo_mix = fifo_pool.expect("at least one scheduling round");
    let edf_mix = edf_pool.expect("at least one scheduling round");

    let mut table = ReportTable::new(
        "Multi-tenant scheduling: adversarial mix on a throttled shard, FIFO vs EDF+quota",
        &[
            "policy",
            "tenant",
            "attempted",
            "completed",
            "shed",
            "p50 (ms)",
            "p99 (ms)",
            "goodput",
        ],
    );
    for (label, mix) in [
        ("FIFO (default)", &fifo_mix),
        ("EDF + greedy quota", &edf_mix),
    ] {
        for lane in &mix.lanes {
            // Every request must resolve typed — served, shed or deadline
            // -failed — in both runs; nothing may hang or error opaquely.
            assert_eq!(
                lane.completed + lane.shed + lane.deadline_failures + lane.other_errors,
                lane.attempted,
                "{label}: tenant {} lost requests",
                lane.tenant
            );
            assert_eq!(
                lane.other_errors, 0,
                "{label}: tenant {} hit untyped errors",
                lane.tenant
            );
            table.push_row(vec![
                label.to_string(),
                if lane.tenant == GREEDY_TENANT {
                    format!("{} (greedy)", lane.tenant)
                } else {
                    format!("{} (deadline 5s)", lane.tenant)
                },
                lane.attempted.to_string(),
                lane.completed.to_string(),
                lane.shed.to_string(),
                fmt3(lane.latency_percentile_ms(50.0)),
                fmt3(lane.latency_percentile_ms(99.0)),
                fmt3(lane.goodput()),
            ]);
        }
    }
    out.add_table(table);

    let (fifo_p99, fifo_tail) = pooled_p99_ms(&fifo_mix, &COMPLIANT_TENANTS);
    let (edf_p99, edf_tail) = pooled_p99_ms(&edf_mix, &COMPLIANT_TENANTS);
    let greedy = edf_mix.lane(GREEDY_TENANT).expect("greedy lane reported");
    eprintln!(
        "[serve] scheduling: compliant p99 {fifo_p99:.3} ms (FIFO) -> {edf_p99:.3} ms (EDF) over {rounds} alternating rounds ({fifo_tail} and {edf_tail} samples above p99), greedy shed {} of {}",
        greedy.shed, greedy.attempted,
    );
    out.at_most("EDF compliant p99 ms vs 0.5x FIFO", edf_p99, 0.5 * fifo_p99);
    for tenant in COMPLIANT_TENANTS {
        let lane = edf_mix.lane(tenant).expect("compliant lane reported");
        out.at_least(format!("tenant {tenant} goodput"), lane.goodput(), 0.8);
    }
    // The greedy tenant is shed typed — client-side and in the gateway's
    // per-tenant metrics lane — and still gets residual service.
    out.above("greedy shed", greedy.shed as f64, 0.0);
    out.above("greedy completed (backfill)", greedy.completed as f64, 0.0);
    let lane = edf_stats
        .tenants
        .iter()
        .find(|lane| lane.tenant == TenantId(GREEDY_TENANT))
        .expect("greedy tenant lane in gateway stats");
    out.above("greedy shed_quota", lane.shed_quota as f64, 0.0);
    out.above("greedy admitted", lane.admitted as f64, 0.0);
    out.above("greedy batches_formed", lane.batches_formed as f64, 0.0);
}

/// Three local replicas with rendezvous-sharded keys, closed-loop load on
/// one shard, its owner killed mid-run. Reported: throughput across the
/// kill and the time for the survivors to absorb the dead peer's keys
/// from shipped `QCFS`/`QCFW` state.
fn replication(h: &Harness, out: &mut Section) {
    eprintln!("[serve] replication: {REPLICAS} local replicas, kill-one-mid-load...");
    let root = h.temp_root("repl");
    let peers = reserve_peers(REPLICAS);
    let mut nodes: Vec<ReplicaNode> = (0..REPLICAS)
        .map(|i| ReplicaNode::start(&peers, i, &root.join(&format!("replica-{i}")), false))
        .collect();
    // Publish every environment through its rendezvous owner only; the
    // replicators ship the persisted bytes to the other two.
    let envs = &h.ctx.workload.environments;
    let keys: Vec<ModelKey> = envs
        .iter()
        .map(|env| ModelKey::new(KIND, EstimatorKind::QcfeMscn, env.fingerprint()))
        .collect();
    for ((env, snapshot), key) in envs.iter().zip(&h.snapshots).zip(&keys) {
        let owner = owner_among(&peers, key).expect("placed");
        publish(&nodes[owner].gateway, env, snapshot, &h.mscn);
    }
    wait_until("replication to converge", Duration::from_millis(50), || {
        nodes
            .iter()
            .all(|node| keys.iter().all(|key| node.holds(key)))
    });

    // The load targets environment 0's shard; its owner is the victim, so
    // in-flight requests are mid-failover when it dies.
    let victim = owner_among(&peers, &keys[0]).expect("placed");
    let probe = h.probe();
    let probe_ms = remote_probe(&peers, &probe, "pre-kill");
    let (victim_server, victim_replicator) =
        (nodes[victim].server.take(), nodes[victim].replicator.take());
    let ((victim_ships, absorb_ms), run) = std::thread::scope(|scope| {
        let killer = scope.spawn(|| {
            std::thread::sleep(h.load_duration / 3);
            if let Some(server) = victim_server {
                server.join().expect("victim drains");
            }
            // The victim owns environment 0's key, and rendezvous placement
            // can hand it every other key too: count its ships before it goes.
            let ships = victim_replicator.map_or(0, |r| r.stats().ships_sent);
            // Absorb latency: from the victim being fully gone to a
            // survivor answering for its keys, redirects and liveness
            // discovery included.
            let killed = Instant::now();
            let mut prober = shard_client(&peers);
            let response = loop {
                if let Ok(response) = prober.estimate(&probe) {
                    break response;
                }
            };
            assert_eq!(
                response.cost_ms.to_bits(),
                probe_ms.to_bits(),
                "absorbed shard must answer bit-identically"
            );
            (ships, killed.elapsed().as_secs_f64() * 1e3)
        });
        let run = h.replica_load(&peers, h.seed + 1100, |client, request| {
            let response = client.estimate(request).map_err(|e| e.to_string())?;
            Ok(response.cost_ms)
        });
        (killer.join().expect("kill thread"), run)
    });
    let post_ms = remote_probe(&peers, &probe, "post-failover");
    let replicators = nodes.iter().filter_map(|node| node.replicator.as_ref());
    let ships_sent = victim_ships + replicators.map(|r| r.stats().ships_sent).sum::<u64>();
    out.above("completed across the kill", run.completed as f64, 0.0);
    out.same_bits("post-failover estimate vs pre-kill", post_ms, probe_ms);
    out.above("ships sent", ships_sent as f64, 0.0);
    for (i, node) in nodes.iter_mut().enumerate() {
        if let Some(stats) = node.stop() {
            let rejected = stats.ships_rejected as f64;
            out.equals(format!("replica {i} ships rejected"), rejected, 0.0);
        }
    }

    let mut table = ReportTable::new(
        "Replication: kill-one-of-three mid-load (QCFE(mscn), rendezvous-sharded)",
        &[
            "replicas",
            "load clients",
            "wall (s)",
            "completed",
            "errors",
            "throughput (est/s)",
            "absorb latency (ms)",
        ],
    );
    table.push_row(vec![
        format!("{REPLICAS} (1 killed)"),
        h.load_clients.to_string(),
        fmt3(run.wall_s),
        run.completed.to_string(),
        run.errors.to_string(),
        format!("{:.0}", run.throughput_qps()),
        fmt3(absorb_ms),
    ]);
    out.add_table(table);
    eprintln!(
        "[serve] replication: {:.0} est/s across the kill ({} completed, {} errors), absorb latency {absorb_ms:.1} ms",
        run.throughput_qps(),
        run.completed,
        run.errors,
    );
}

/// The anti-entropy drill. Three store-backed replicas converge; the owner
/// of the loaded shard is killed; while it is down, its key's snapshot and
/// model are re-published on the failover owner, leaving the victim's disk
/// stale; the victim is restarted over that stale store mid-load.
/// Reported: catch-up latency (restart to promotion on every survivor) and
/// keys re-shipped. Every networked answer is compared with the
/// re-publishing owner's, so a stale read is counted, not missed.
fn revival(h: &Harness, out: &mut Section) {
    eprintln!("[serve] revival: re-publish during outage, revive mid-load...");
    let root = h.temp_root("rev");
    let peers = reserve_peers(REPLICAS);
    let stores: Vec<PathBuf> = (0..REPLICAS)
        .map(|i| root.join(&format!("replica-{i}")))
        .collect();
    let mut nodes: Vec<ReplicaNode> = (0..REPLICAS)
        .map(|i| ReplicaNode::start(&peers, i, &stores[i], true))
        .collect();

    // One loaded key is enough: publish environment 0 through its owner
    // and wait until every store holds snapshot + weights.
    let env0 = &h.ctx.workload.environments[0];
    let key = ModelKey::new(KIND, EstimatorKind::QcfeMscn, env0.fingerprint());
    let victim = owner_among(&peers, &key).expect("placed");
    let survivors: Vec<usize> = (0..REPLICAS).filter(|&i| i != victim).collect();
    let survivor_peers: Vec<String> = survivors.iter().map(|&s| peers[s].clone()).collect();
    let heir = survivors[owner_among(&survivor_peers, &key).expect("placed")];
    publish(&nodes[victim].gateway, env0, &h.snapshots[0], &h.mscn);
    wait_until(
        "the revival set-up to converge",
        Duration::from_millis(50),
        || nodes.iter().all(|node| node.holds(&key)),
    );
    let probe = h.probe();
    let stale_bits = remote_probe(&peers, &probe, "pre-kill").to_bits();

    // The weights re-published during the outage: the same model family
    // trained from a different seed, so its sidecar is byte-divergent from
    // what the victim's store still holds.
    let divergent = train_mscn(&h.ctx, h.quick, &mut StdRng::seed_from_u64(h.seed + 1));

    // Kill the victim and wait until every survivor's heartbeat agrees.
    nodes[victim].stop().expect("victim running");
    nodes[victim].replicator = None;
    let sets: Vec<&ReplicaSet> = survivors.iter().map(|&s| &*nodes[s].set).collect();
    wait_until(
        "the survivors to notice the kill",
        Duration::from_millis(10),
        || sets.iter().all(|set| !set.is_alive(victim)),
    );

    // Re-publish during the outage: a different fitted snapshot and the
    // divergent weights under the same key.
    let heir_gateway = &nodes[heir].gateway;
    publish(heir_gateway, env0, &h.snapshots[1], &divergent);
    let manifest = |s: usize| nodes[s].gateway.store().manifest().expect("manifest");
    let converged = || manifest(survivors[0]) == manifest(survivors[1]);
    wait_until(
        "the survivors to converge on the re-published state",
        Duration::from_millis(10),
        converged,
    );
    let fresh_ms = heir_gateway
        .estimate(probe.clone())
        .expect("fresh reference")
        .cost_ms;
    assert_ne!(
        stale_bits,
        fresh_ms.to_bits(),
        "the re-publish must change the served estimates"
    );

    // Mid-load revival. Every networked answer is compared bit-for-bit
    // against the heir's in-process answer: only a pre-catch-up victim can
    // diverge, so any mismatch is a stale read.
    let stale_reads = AtomicU64::new(0);
    let ((catch_up_ms, mut revived), run) = std::thread::scope(|scope| {
        let reviver = scope.spawn(|| {
            std::thread::sleep(h.load_duration / 3);
            let restarted = Instant::now();
            let node = ReplicaNode::start(&peers, victim, &stores[victim], true);
            let promoted = || {
                sets.iter()
                    .all(|set| set.is_alive(victim) && !set.is_reviving(victim))
            };
            wait_until(
                "the survivors to promote the revived victim",
                Duration::from_millis(5),
                promoted,
            );
            (restarted.elapsed().as_secs_f64() * 1e3, node)
        });
        let run = h.replica_load(&peers, h.seed + 1200, |client, request| {
            let expected = heir_gateway
                .estimate(request.clone())
                .map_err(|e| e.to_string())?;
            let response = client.estimate(request).map_err(|e| e.to_string())?;
            if response.cost_ms.to_bits() != expected.cost_ms.to_bits() {
                stale_reads.fetch_add(1, Ordering::Relaxed);
            }
            Ok(response.cost_ms)
        });
        (reviver.join().expect("revival thread"), run)
    });
    let stale_reads = stale_reads.into_inner();
    // The revived owner now serves the re-published state bit-identically.
    let post_ms = remote_probe(&peers, &probe, "post-revival");
    out.above("completed across the revival", run.completed as f64, 0.0);
    out.equals("stale reads", stale_reads as f64, 0.0);
    out.same_bits("post-revival estimate vs re-published", post_ms, fresh_ms);
    let (mut reshipped, mut manifests) = (0u64, 0u64);
    for &s in &survivors {
        let replicator = nodes[s].replicator.as_ref().expect("survivor replicator");
        let stats = replicator.stats();
        let exchanged = stats.manifests_exchanged as f64;
        out.at_least(format!("survivor {s} revivals"), stats.revivals as f64, 1.0);
        out.at_least(format!("survivor {s} manifests exchanged"), exchanged, 1.0);
        let rejected = stats.ships_rejected as f64;
        out.equals(format!("survivor {s} ships rejected"), rejected, 0.0);
        reshipped += stats.keys_reshipped;
        manifests += stats.manifests_exchanged;
    }
    // The stale snapshot and the stale weights.
    out.at_least("keys re-shipped", reshipped as f64, 2.0);
    revived.replicator = None;
    let served = revived.stop().expect("revived server running");
    let served_manifests = served.manifests_served as f64;
    out.at_least("revived server manifests served", served_manifests, 1.0);
    let rejected = served.ships_rejected as f64;
    out.equals("revived server ships rejected", rejected, 0.0);
    drop(revived);
    for node in &mut nodes {
        node.stop();
    }

    let mut table = ReportTable::new(
        "Revival: re-publish during outage, revive mid-load (anti-entropy catch-up)",
        &[
            "replicas",
            "load clients",
            "completed",
            "errors",
            "stale reads",
            "manifests exchanged",
            "keys re-shipped",
            "catch-up latency (ms)",
        ],
    );
    table.push_row(vec![
        format!("{REPLICAS} (1 revived)"),
        h.load_clients.to_string(),
        run.completed.to_string(),
        run.errors.to_string(),
        stale_reads.to_string(),
        manifests.to_string(),
        reshipped.to_string(),
        format!("{catch_up_ms:.1}"),
    ]);
    out.add_table(table);
    eprintln!(
        "[serve] revival: {} completed / {} errors across the revival, {stale_reads} stale reads, \
         {reshipped} keys re-shipped, catch-up latency {catch_up_ms:.1} ms",
        run.completed, run.errors,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empty_run() -> Run {
        let report = ExperimentReport::new("serve", "gate table test", true);
        Run {
            report,
            gates: Vec::new(),
        }
    }

    fn verdicts(run: &Run) -> Vec<String> {
        let rows = run.gate_table().rows.into_iter();
        rows.map(|row| row[4].clone()).collect()
    }

    #[test]
    fn a_nan_measurement_fails_both_an_at_least_and_an_at_most_row() {
        let mut run = empty_run();
        let mut out = run.section("test");
        out.at_least("floor", f64::NAN, 1.0);
        out.at_most("ceiling", f64::NAN, 1.0);
        assert_eq!(verdicts(&run), ["FAIL", "FAIL"]);
        assert_eq!(run.failures().len(), 2);
    }

    #[test]
    fn a_measurement_at_its_bound_passes_inclusive_rows_and_fails_the_strict_restart_row() {
        let mut run = empty_run();
        let mut out = run.section("test");
        out.at_least("floor", 2.0, 2.0);
        out.at_most("ceiling", 2.0, 2.0);
        out.equals("count", 2.0, 2.0);
        // The cold-restart row: a disk load strictly faster than retraining.
        out.below("disk-load ms vs retrain ms", 2.0, 2.0);
        assert_eq!(verdicts(&run), ["pass", "pass", "pass", "FAIL"]);
    }

    #[test]
    fn a_bit_identity_row_fails_on_any_other_bits_and_on_nan() {
        let mut run = empty_run();
        let mut out = run.section("test");
        out.same_bits("same", 1.25, 1.25);
        out.same_bits("next float", 1.25, f64::from_bits(1.25f64.to_bits() + 1));
        out.same_bits("nan", f64::NAN, f64::NAN);
        assert_eq!(verdicts(&run), ["pass", "FAIL", "FAIL"]);
    }

    #[test]
    fn a_skipped_row_never_fails_the_run() {
        let mut run = empty_run();
        let mut out = run.section("kernel sweep");
        out.at_least("AVX2 plans/s vs 1.15x scalar", None::<f64>, 1.15);
        assert_eq!(verdicts(&run), ["skipped"]);
        assert!(run.failures().is_empty());
    }

    #[test]
    fn one_failed_row_among_passing_ones_fails_the_run_and_is_named() {
        let mut run = empty_run();
        let mut out = run.section("network");
        out.at_least("UDS mean micro-batch", 28.37, NET_MIN_BATCH_MEAN);
        out.equals("protocol errors", 1.0, 0.0);
        out.above("ships sent", 3.0, 0.0);
        assert_eq!(verdicts(&run), ["pass", "FAIL", "pass"]);
        assert_eq!(run.failures(), ["network | protocol errors | 1 | = 0"]);
    }
}
