//! Microbenchmarks: inference latency, snapshot fitting and feature-reduction
//! runtime — the time-efficiency side of the paper's "time-accuracy"
//! comparisons.
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
use qcfe_db::env::{DbEnvironment, HardwareProfile};
use qcfe_serve::RefinementConfig;
use qcfe_workloads::BenchmarkKind;
use rand::SeedableRng;
use std::time::Instant;

/// Time `f` with a short warm-up, returning the median per-iteration time in
/// microseconds over `samples` measured batches.
fn bench<F: FnMut()>(name: &str, samples: usize, iters_per_sample: usize, mut f: F) {
    for _ in 0..iters_per_sample.min(3) {
        f();
    }
    let mut times_us: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters_per_sample {
                f();
            }
            start.elapsed().as_secs_f64() * 1e6 / iters_per_sample as f64
        })
        .collect();
    times_us.sort_by(|a, b| a.total_cmp(b));
    let median = times_us[times_us.len() / 2];
    println!("{name:<44} {median:>12.2} us/iter  ({samples} samples x {iters_per_sample} iters)");
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
