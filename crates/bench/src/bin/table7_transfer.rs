//! Table VII + Figure 8 — transferability of the feature snapshot to a new
//! hardware environment (h2): a model trained on h1 environments is reused
//! on h2 by recomputing only the snapshot (FSO or FST) and fine-tuning
//! briefly, compared against training from scratch on h2 labels.
//!
//! Usage: `cargo run --release -p qcfe-bench --bin table7_transfer [--quick]`

use qcfe_bench::report::{fmt3, parse_common_args, ExperimentReport, ReportTable};
use qcfe_core::collect::{collect_workload, execute_queries};
use qcfe_core::encoding::FeatureEncoder;
use qcfe_core::estimators::{evaluate, EnvSnapshots, QppNetEstimator};
use qcfe_core::pipeline::{prepare_context, ContextConfig};
use qcfe_core::snapshot::FeatureSnapshot;
use qcfe_core::templates::{simplified_queries, DataAbstract};
use qcfe_db::env::{DbEnvironment, HardwareProfile};
use qcfe_workloads::BenchmarkKind;
use rand::SeedableRng;
use std::time::Instant;

fn main() {
    let (quick, seed) = parse_common_args();
    let mut report = ExperimentReport::new(
        "table7_fig8",
        "hardware transferability of the feature snapshot",
        quick,
    );

    for kind in [BenchmarkKind::Tpch, BenchmarkKind::JobLight] {
        let cfg = if quick {
            ContextConfig::quick(kind)
        } else {
            ContextConfig {
                seed,
                ..ContextConfig::full(kind)
            }
        };
        let basis_iterations = if quick { 8 } else { 40 };
        let finetune_iterations = basis_iterations / 4;
        let h2_queries = if quick { 80 } else { 400 };

        // 1. Train the basis QCFE(qpp) model on the h1 environments.
        let ctx = prepare_context(kind, &cfg);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let encoder = FeatureEncoder::new(&ctx.benchmark.catalog, true);
        let (h1_train, _) = ctx.workload.split(0.8, seed);
        let mut basis = QppNetEstimator::new(encoder.clone(), None, &mut rng);
        let basis_stats = basis.train(
            &h1_train,
            Some(&ctx.snapshots_fso),
            basis_iterations,
            &mut rng,
        );

        // 2. Collect a small labeled set on the new hardware h2.
        let h2_env = DbEnvironment {
            name: "env-h2".into(),
            hardware: HardwareProfile::h2(),
            ..DbEnvironment::reference()
        };
        let h2_workload = collect_workload(
            &ctx.benchmark,
            std::slice::from_ref(&h2_env),
            h2_queries,
            seed + 7,
        );
        let (h2_train, h2_test) = h2_workload.split(0.8, seed + 8);

        // 3. Snapshots on h2: from the labeled originals (FSO) and from the
        //    simplified templates (FST).
        let fso_h2: EnvSnapshots = vec![Some(FeatureSnapshot::fit_from_executions(
            &h2_train
                .queries
                .iter()
                .map(|q| q.executed.clone())
                .collect::<Vec<_>>(),
        ))];
        let reference_db = ctx.benchmark.build_database(DbEnvironment::reference());
        let abstract_ = DataAbstract::from_database(&reference_db);
        let original_sql: Vec<String> = ctx
            .benchmark
            .templates
            .iter()
            .map(|t| t.representative_sql(&mut rng))
            .collect();
        let simplified = simplified_queries(
            &original_sql,
            &abstract_,
            cfg.template_scale.max(1),
            &mut rng,
        );
        let fst_h2: EnvSnapshots = vec![Some(FeatureSnapshot::fit_from_executions(
            &execute_queries(&ctx.benchmark, &h2_env, &simplified, seed + 9),
        ))];

        // 4a. Direct training on h2 labels only (the "basis"-equivalent on h2).
        let mut direct = QppNetEstimator::new(encoder.clone(), None, &mut rng);
        let t0 = Instant::now();
        let mut direct_curve = Vec::new();
        for _ in 0..basis_iterations {
            direct.train(&h2_train, Some(&fso_h2), 1, &mut rng);
            direct_curve.push(evaluate(&direct, &h2_test, Some(&fso_h2)).mean_q_error);
        }
        let direct_time = t0.elapsed().as_secs_f64();
        let direct_acc = evaluate(&direct, &h2_test, Some(&fso_h2));

        // 4b. Transfer with FSO: reuse the basis model, swap the snapshot,
        //     fine-tune briefly.
        let mut trans_fso = basis.clone();
        let t0 = Instant::now();
        let mut trans_curve = Vec::new();
        for _ in 0..finetune_iterations {
            trans_fso.train(&h2_train, Some(&fso_h2), 1, &mut rng);
            trans_curve.push(evaluate(&trans_fso, &h2_test, Some(&fso_h2)).mean_q_error);
        }
        let trans_fso_time = t0.elapsed().as_secs_f64();
        let trans_fso_acc = evaluate(&trans_fso, &h2_test, Some(&fso_h2));

        // 4c. Transfer with FST.
        let mut trans_fst = basis.clone();
        let t0 = Instant::now();
        trans_fst.train(&h2_train, Some(&fst_h2), finetune_iterations, &mut rng);
        let trans_fst_time = t0.elapsed().as_secs_f64();
        let trans_fst_acc = evaluate(&trans_fst, &h2_test, Some(&fst_h2));

        let mut table = ReportTable::new(
            format!("Table VII — {}", kind.name()),
            &["model", "pearson", "mean q-error", "train time (s)"],
        );
        table.push_row(vec![
            "basis (direct h2 training)".into(),
            fmt3(direct_acc.pearson),
            fmt3(direct_acc.mean_q_error),
            fmt3(direct_time),
        ]);
        table.push_row(vec![
            "trans-FSO".into(),
            fmt3(trans_fso_acc.pearson),
            fmt3(trans_fso_acc.mean_q_error),
            fmt3(trans_fso_time),
        ]);
        table.push_row(vec![
            "trans-FST".into(),
            fmt3(trans_fst_acc.pearson),
            fmt3(trans_fst_acc.mean_q_error),
            fmt3(trans_fst_time),
        ]);
        report.add_table(table);

        // Figure 8 — convergence curves.
        let mut curve = ReportTable::new(
            format!("Figure 8 — convergence on {}", kind.name()),
            &["iteration", "direct q-error", "transfer q-error"],
        );
        for i in 0..direct_curve.len().max(trans_curve.len()) {
            curve.push_row(vec![
                (i + 1).to_string(),
                direct_curve
                    .get(i)
                    .map(|v| fmt3(*v))
                    .unwrap_or_else(|| "-".into()),
                trans_curve
                    .get(i)
                    .map(|v| fmt3(*v))
                    .unwrap_or_else(|| "-".into()),
            ]);
        }
        report.add_table(curve);
        eprintln!(
            "[table7] {} basis trained in {:.1}s, transfer fine-tuned in {:.1}s",
            kind.name(),
            basis_stats.train_time_s,
            trans_fso_time
        );
    }
    println!("{}", report.render());
    report.save_json();
}
