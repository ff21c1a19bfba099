//! Microbenchmarks: inference latency, snapshot fitting, snapshot
//! persistence and feature-reduction runtime — the time-efficiency side of
//! the paper's "time-accuracy" comparisons.
//!
//! Criterion is unavailable offline, so this is a plain `harness = false`
//! bench binary with warm-up plus median-of-samples timing. Run with
//! `cargo bench -p qcfe-bench`.

use qcfe_core::collect::collect_workload;
use qcfe_core::encoding::FeatureEncoder;
use qcfe_core::estimators::MscnEstimator;
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

fn main() {
    println!("QCFE microbenchmarks (plain harness)");
    bench_inference();
    bench_snapshot_fit();
    bench_reduction();
    bench_execution_simulator();
}
