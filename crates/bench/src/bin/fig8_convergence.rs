//! Figure 8 — convergence comparison (training error vs iteration) of a
//! directly-trained QCFE(qpp) model against a snapshot-transferred model.
//! The full transfer pipeline (including Table VII) lives in
//! `table7_transfer`; this binary only reproduces the convergence curves
//! with a lighter setup so they can be regenerated quickly.
//!
//! Usage: `cargo run --release -p qcfe-bench --bin fig8_convergence [--quick]`

use qcfe_bench::report::{fmt3, parse_common_args, ExperimentReport, ReportTable};
use qcfe_core::collect::collect_workload;
use qcfe_core::encoding::FeatureEncoder;
use qcfe_core::estimators::{evaluate, EnvSnapshots, QppNetEstimator};
use qcfe_core::pipeline::{prepare_context, ContextConfig};
use qcfe_core::snapshot::FeatureSnapshot;
use qcfe_db::env::{DbEnvironment, HardwareProfile};
use qcfe_workloads::BenchmarkKind;
use rand::SeedableRng;

fn main() {
    let (quick, seed) = parse_common_args();
    let kind = BenchmarkKind::Tpch;
    let cfg = if quick {
        ContextConfig::quick(kind)
    } else {
        ContextConfig {
            seed,
            ..ContextConfig::full(kind)
        }
    };
    let iterations = if quick { 10 } else { 30 };

    let ctx = prepare_context(kind, &cfg);
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let encoder = FeatureEncoder::new(&ctx.benchmark.catalog, true);

    // Basis model trained on h1 environments.
    let (h1_train, _) = ctx.workload.split(0.8, seed);
    let mut basis = QppNetEstimator::new(encoder.clone(), None, &mut rng);
    basis.train(&h1_train, Some(&ctx.snapshots_fso), iterations, &mut rng);

    // New hardware environment and its snapshot.
    let h2_env = DbEnvironment {
        name: "env-h2".into(),
        hardware: HardwareProfile::h2(),
        ..DbEnvironment::reference()
    };
    let h2 = collect_workload(
        &ctx.benchmark,
        &[h2_env],
        if quick { 80 } else { 300 },
        seed + 3,
    );
    let (h2_train, h2_test) = h2.split(0.8, seed + 4);
    let fso_h2: EnvSnapshots = vec![Some(FeatureSnapshot::fit_from_executions(
        &h2_train
            .queries
            .iter()
            .map(|q| q.executed.clone())
            .collect::<Vec<_>>(),
    ))];

    let mut direct = QppNetEstimator::new(encoder, None, &mut rng);
    let mut transfer = basis.clone();
    let mut table = ReportTable::new(
        "Figure 8 — q-error vs training iteration",
        &["iteration", "direct training", "transferred model"],
    );
    for i in 1..=iterations {
        direct.train(&h2_train, Some(&fso_h2), 1, &mut rng);
        transfer.train(&h2_train, Some(&fso_h2), 1, &mut rng);
        table.push_row(vec![
            i.to_string(),
            fmt3(evaluate(&direct, &h2_test, Some(&fso_h2)).mean_q_error),
            fmt3(evaluate(&transfer, &h2_test, Some(&fso_h2)).mean_q_error),
        ]);
    }

    let mut report = ExperimentReport::new(
        "fig8",
        "convergence of direct vs transferred model (TPCH)",
        quick,
    );
    report.add_table(table);
    println!("{}", report.render());
    report.save_json();
}
