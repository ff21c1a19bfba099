//! Microbenchmarks: the `QCFP` request codec and its CRC-32, inference
//! latency, snapshot fitting, snapshot persistence, training and
//! feature-reduction runtime — the time-efficiency side of the paper's
//! "time-accuracy" comparisons.
//!
//! Criterion is unavailable offline, so this is a plain `harness = false`
//! bench binary with warm-up plus median-of-samples timing. Run with
//! `cargo bench -p qcfe-bench`.

use qcfe_core::collect::collect_workload;
use qcfe_core::encoding::FeatureEncoder;
use qcfe_core::estimators::{MscnEstimator, QppNetEstimator};
use qcfe_core::pipeline::{prepare_context, ContextConfig};
use qcfe_core::reduction::{diffprop_reduction, gradient_reduction};
use qcfe_core::snapshot::{operator_samples_from, FeatureSnapshot};
use qcfe_db::env::{DbEnvironment, EnvFingerprint, HardwareProfile};
use qcfe_serve::store::SnapshotStore;
use qcfe_serve::RefinementConfig;
use qcfe_workloads::BenchmarkKind;
use rand::SeedableRng;
use std::time::Instant;

/// Print one result row: the median of `times_us` per iteration.
fn print_median(name: &str, mut times_us: Vec<f64>, detail: &str) {
    times_us.sort_by(|a, b| a.total_cmp(b));
    let median = times_us[times_us.len() / 2];
    println!("{name:<44} {median:>12.2} us/iter  ({detail})");
}

/// Time `f` with a short warm-up, printing the median per-iteration time in
/// microseconds over `samples` measured batches.
fn bench<F: FnMut()>(name: &str, samples: usize, iters_per_sample: usize, mut f: F) {
    for _ in 0..iters_per_sample.min(3) {
        f();
    }
    let times_us: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters_per_sample {
                f();
            }
            start.elapsed().as_secs_f64() * 1e6 / iters_per_sample as f64
        })
        .collect();
    print_median(
        name,
        times_us,
        &format!("{samples} samples x {iters_per_sample} iters"),
    );
}

fn bench_inference() {
    let kind = BenchmarkKind::Sysbench;
    let ctx = prepare_context(kind, &ContextConfig::quick(kind));
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let (train, test) = ctx.workload.split(0.8, 1);
    let encoder = FeatureEncoder::new(&ctx.benchmark.catalog, true);
    let (mscn, _) = MscnEstimator::train(
        encoder,
        &train,
        Some(&ctx.snapshots_fso),
        None,
        20,
        &mut rng,
    );
    let sample = &test.queries[0];
    let snapshot = ctx.snapshots_fso[sample.env_index].as_ref();

    bench("mscn_single_plan_inference", 20, 200, || {
        std::hint::black_box(mscn.predict(&sample.executed.root, snapshot));
    });
}

fn bench_snapshot_fit() {
    let kind = BenchmarkKind::Sysbench;
    let bench_data = kind.build(kind.quick_scale(), 3);
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let envs = DbEnvironment::sample_knob_configs(1, HardwareProfile::h1(), &mut rng);
    let workload = collect_workload(&bench_data, &envs, 100, 3);
    let executions: Vec<_> = workload
        .queries
        .iter()
        .map(|q| q.executed.clone())
        .collect();
    let samples = operator_samples_from(&executions);

    bench("feature_snapshot_least_squares_fit", 20, 20, || {
        std::hint::black_box(FeatureSnapshot::fit(&samples));
    });

    // The gateway's online refit: the whole label window a shard retains
    // by default, refitted against the serving snapshot.
    let warm = FeatureSnapshot::fit(&samples);
    let capacity = RefinementConfig::default().buffer_capacity;
    let window: Vec<_> = samples.iter().copied().cycle().take(capacity).collect();
    let name = format!("feature_snapshot_refit_with_{capacity}_window");
    bench(&name, 20, 20, || {
        std::hint::black_box(warm.refit_with(&window));
    });
    bench_snapshot_store(&warm.refit_with(&window));
}

/// What persisting a refit costs: `SnapshotStore::save` of one snapshot,
/// over and over, into a store under `std::env::temp_dir()`. Most saves
/// append one record to the warm log; each time the log reaches its
/// 64 KiB bound, a save writes a fresh one-record log instead (temp file +
/// rename). Each save is timed on its own and filed by which of the two it
/// was (a compaction shrinks the file).
fn bench_snapshot_store(snapshot: &FeatureSnapshot) {
    let root = std::env::temp_dir().join(format!("qcfe-microbench-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let store = SnapshotStore::open(&root).expect("store opens");
    let (kind, fingerprint) = (BenchmarkKind::Sysbench, EnvFingerprint(0x5a7e));
    let path = store.path_for(kind, fingerprint);
    store.save(kind, fingerprint, snapshot).expect("save");
    let (mut appends_us, mut compactions_us) = (Vec::new(), Vec::new());
    let mut len = std::fs::metadata(&path).expect("log exists").len();
    for _ in 0..10_000 {
        let start = Instant::now();
        store.save(kind, fingerprint, snapshot).expect("save");
        let us = start.elapsed().as_secs_f64() * 1e6;
        let now = std::fs::metadata(&path).expect("log exists").len();
        if now < len {
            compactions_us.push(us);
        } else {
            appends_us.push(us);
        }
        len = now;
    }
    let _ = std::fs::remove_dir_all(&root);
    for (name, saves_us) in [
        ("snapshot_store_save_onto_warm_log", appends_us),
        ("snapshot_store_save_compacting_the_log", compactions_us),
    ] {
        let detail = format!("{} saves", saves_us.len());
        print_median(name, saves_us, &detail);
    }
}

/// A one-hot-heavy operator dataset shaped like the pipeline's per-operator
/// ones: `rows` rows of 65 columns, of which only the first 13 are ever
/// non-zero (three one-hot groups and four continuous columns); the other
/// 52 are all-zero, as unused operator and table slots are.
fn one_hot_heavy(rows: usize, rng: &mut rand::rngs::StdRng) -> qcfe_nn::Dataset {
    use rand::Rng;
    let xs: Vec<Vec<f64>> = (0..rows)
        .map(|_| {
            let mut x = vec![0.0; 65];
            x[rng.gen_range(0..3usize)] = 1.0;
            x[3 + rng.gen_range(0..3usize)] = 1.0;
            x[6 + rng.gen_range(0..3usize)] = 1.0;
            for v in &mut x[9..13] {
                *v = rng.gen_range(0.0..4.0);
            }
            x
        })
        .collect();
    let ys = xs
        .iter()
        .map(|x| 1.0 + 5.0 * x[0] + 2.0 * x[4] + x[9] * x[10])
        .collect();
    qcfe_nn::Dataset::new(xs, ys).expect("non-empty rectangular dataset")
}

/// Training at the shapes `run_method` trains: the reduction's auxiliary
/// model, and one QPPNet epoch.
fn bench_training() {
    use qcfe_nn::{Activation, Loss, Mlp, Optimizer, TrainConfig};
    let mut rng = rand::rngs::StdRng::seed_from_u64(8);
    let data = one_hot_heavy(2000, &mut rng);
    let untrained = Mlp::new(&[65, 16, 1], Activation::Relu, &mut rng);
    let cfg = TrainConfig {
        epochs: 40,
        batch_size: 32,
        optimizer: Optimizer::adam(0.01),
        loss: Loss::LogMse,
        shuffle: true,
    };
    bench("mlp_train/aux_model_65x16x1_2000_rows", 10, 1, || {
        let mut mlp = untrained.clone();
        std::hint::black_box(mlp.train(&data, &cfg, &mut rng));
    });

    let kind = BenchmarkKind::Tpch;
    let ctx = prepare_context(kind, &ContextConfig::quick(kind));
    let (train, _) = ctx.workload.split(0.8, 9);
    let encoder = FeatureEncoder::new(&ctx.benchmark.catalog, true);
    let name = format!(
        "qppnet_train/one_epoch_quick_tpch_{}_plans",
        train.queries.len()
    );
    bench(&name, 10, 1, || {
        let mut qpp = QppNetEstimator::new(encoder.clone(), None, &mut rng);
        std::hint::black_box(qpp.train(&train, Some(&ctx.snapshots_fso), 1, &mut rng));
    });
}

fn bench_reduction() {
    use qcfe_nn::{Activation, Dataset, Mlp};
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let xs: Vec<Vec<f64>> = (0..300)
        .map(|i| {
            (0..40)
                .map(|k| ((i * (k + 3)) % 17) as f64 / 17.0)
                .collect()
        })
        .collect();
    let ys: Vec<f64> = xs
        .iter()
        .map(|x| x.iter().take(5).sum::<f64>() * 10.0)
        .collect();
    let data = Dataset::new(xs, ys).unwrap();
    let model = Mlp::new(&[40, 32, 1], Activation::Relu, &mut rng);

    let mut diff_rng = rand::rngs::StdRng::seed_from_u64(6);
    bench("feature_reduction/difference_propagation", 10, 3, || {
        std::hint::black_box(diffprop_reduction(&model, &data, 100, &mut diff_rng));
    });
    bench("feature_reduction/gradient_importance", 10, 3, || {
        std::hint::black_box(gradient_reduction(&model, &data));
    });

    // The row above varies all 40 of its columns; the pipeline's operator
    // datasets vary 5-15 of 65, and constant columns never score.
    let data = one_hot_heavy(2000, &mut rng);
    let model = Mlp::new(&[65, 16, 1], Activation::Relu, &mut rng);
    bench(
        "feature_reduction/difference_propagation_one_hot",
        10,
        1,
        || {
            std::hint::black_box(diffprop_reduction(&model, &data, 200, &mut diff_rng));
        },
    );
}

fn bench_execution_simulator() {
    let kind = BenchmarkKind::Tpch;
    let bench_data = kind.build(kind.quick_scale(), 7);
    let db = bench_data.build_database(DbEnvironment::reference());
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let query = bench_data.templates[0].instantiate(&mut rng);

    bench("tpch_q1_plan_and_execute", 20, 5, || {
        std::hint::black_box(db.execute(&query, &mut rng).unwrap());
    });
}

/// The `QCFP` request path's codec on a TPCH request, and the CRC-32 every
/// `QCFP`, `QCFW` and `QCFL` frame carries: over that request's body and
/// over a `QCFS` frame as the snapshot log stores it. The request is the
/// quick context's one whose frame is nearest 888 B, the mean request of
/// perfbench's `uds-hot` pool.
fn bench_codec() {
    use qcfe_net::wire::{decode_frame, encode_estimate_request, PRELUDE_LEN};
    use qcfe_nn::codec::crc32;
    use qcfe_serve::EstimateRequest;
    use std::sync::Arc;
    let kind = BenchmarkKind::Tpch;
    let ctx = prepare_context(kind, &ContextConfig::quick(kind));
    let envs: Vec<Arc<DbEnvironment>> = ctx
        .workload
        .environments
        .iter()
        .map(|env| Arc::new(env.clone()))
        .collect();
    let request = ctx
        .workload
        .queries
        .iter()
        .map(|q| {
            EstimateRequest::new(
                kind,
                Arc::clone(&envs[q.env_index]),
                q.executed.root.clone(),
            )
        })
        .min_by_key(|r| {
            let len = encode_estimate_request(1, r).expect("encodes").len();
            len.abs_diff(888)
        })
        .expect("a query");
    let frame = encode_estimate_request(1, &request).expect("encodes");
    let body = &frame[PRELUDE_LEN..];
    let snapshot = ctx.snapshots_fso[0].as_ref().expect("fitted").to_bytes();

    let name = format!("crc32/request_body_{}_bytes", body.len());
    bench(&name, 20, 2000, || {
        std::hint::black_box(crc32(std::hint::black_box(body)));
    });
    let name = format!("crc32/qcfs_frame_{}_bytes", snapshot.len());
    bench(&name, 20, 2000, || {
        std::hint::black_box(crc32(std::hint::black_box(&snapshot)));
    });
    let name = format!("wire/encode_estimate_request_tpch_{}_bytes", frame.len());
    bench(&name, 20, 2000, || {
        std::hint::black_box(encode_estimate_request(1, &request).ok());
    });
    let name = format!("wire/decode_frame_tpch_request_{}_bytes", frame.len());
    bench(&name, 20, 2000, || {
        std::hint::black_box(decode_frame(std::hint::black_box(&frame)).ok());
    });
}

fn main() {
    println!("QCFE microbenchmarks (plain harness)");
    bench_codec();
    bench_inference();
    bench_snapshot_fit();
    bench_training();
    bench_reduction();
    bench_execution_simulator();
}
