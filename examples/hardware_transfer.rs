//! Hardware transfer: train a QCFE(qpp) model on one machine profile (h1),
//! then move to a faster machine (h2) by recomputing only the feature
//! snapshot and fine-tuning briefly — Section V-E of the paper.
//!
//! Run with: `cargo run --release --example hardware_transfer`

use qcfe::core::collect::collect_workload;
use qcfe::core::encoding::FeatureEncoder;
use qcfe::core::estimators::{evaluate, EnvSnapshots, QppNetEstimator};
use qcfe::core::pipeline::{prepare_context, ContextConfig};
use qcfe::core::snapshot::FeatureSnapshot;
use qcfe::db::prelude::*;
use qcfe::workloads::BenchmarkKind;
use rand::SeedableRng;

fn main() {
    let kind = BenchmarkKind::Sysbench;
    let ctx = prepare_context(kind, &ContextConfig::quick(kind));
    let mut rng = rand::rngs::StdRng::seed_from_u64(23);
    let encoder = FeatureEncoder::new(&ctx.benchmark.catalog, true);

    println!("Training the basis QCFE(qpp) model on h1 environments...");
    let (h1_train, _) = ctx.workload.split(0.8, 1);
    let mut basis = QppNetEstimator::new(encoder.clone(), None, &mut rng);
    basis.train(&h1_train, Some(&ctx.snapshots_fso), 12, &mut rng);

    println!("Moving to hardware h2 (faster CPU, NVMe disk, more memory)...");
    let h2_env = DbEnvironment {
        name: "env-h2".into(),
        hardware: HardwareProfile::h2(),
        ..DbEnvironment::reference()
    };
    let h2 = collect_workload(&ctx.benchmark, &[h2_env], 100, 23);
    let (h2_train, h2_test) = h2.split(0.8, 2);
    let h2_snapshot: EnvSnapshots = vec![Some(FeatureSnapshot::fit_from_executions(
        &h2_train
            .queries
            .iter()
            .map(|q| q.executed.clone())
            .collect::<Vec<_>>(),
    ))];

    let zero_shot = evaluate(&basis, &h2_test, Some(&h2_snapshot));
    println!(
        "Zero-shot on h2 (snapshot swapped, no fine-tuning): mean q-error {:.3}",
        zero_shot.mean_q_error
    );

    let mut transferred = basis.clone();
    transferred.train(&h2_train, Some(&h2_snapshot), 3, &mut rng);
    let after = evaluate(&transferred, &h2_test, Some(&h2_snapshot));
    println!(
        "After 3 fine-tuning iterations: mean q-error {:.3}",
        after.mean_q_error
    );

    let mut direct = QppNetEstimator::new(encoder, None, &mut rng);
    direct.train(&h2_train, Some(&h2_snapshot), 12, &mut rng);
    let scratch = evaluate(&direct, &h2_test, Some(&h2_snapshot));
    println!(
        "Training from scratch on h2 (12 iterations): mean q-error {:.3}",
        scratch.mean_q_error
    );
    println!("\nThe transferred model reaches comparable accuracy with a quarter of the training.");
}
