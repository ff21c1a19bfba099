//! TPC-H cost estimation end to end: generate the benchmark, run a query
//! through the planner and the execution simulator, inspect the EXPLAIN
//! output, then train a QCFE(qpp) estimator and predict latencies for fresh
//! queries.
//!
//! Run with: `cargo run --release --example tpch_cost_estimation`

use qcfe::core::encoding::FeatureEncoder;
use qcfe::core::estimators::{evaluate, QppNetEstimator};
use qcfe::core::pipeline::{prepare_context, ContextConfig};
use qcfe::db::prelude::*;
use qcfe::workloads::BenchmarkKind;
use rand::SeedableRng;

fn main() {
    let kind = BenchmarkKind::Tpch;
    let bench = kind.build(kind.quick_scale(), 7);
    let db = bench.build_database(DbEnvironment::reference());
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);

    // Show one query and its simulated execution.
    let query = bench.templates[2].instantiate(&mut rng); // Q3: shipping priority
    println!("SQL: {}\n", query.to_sql());
    let executed = db.execute(&query, &mut rng).expect("query runs");
    println!("Simulated EXPLAIN ANALYZE:\n{}", executed.root.explain());
    println!("Total simulated latency: {:.3} ms\n", executed.total_ms);

    // Train a QCFE(qpp) estimator on labeled data from several environments.
    println!("Collecting labels and training QCFE(qpp)...");
    let ctx = prepare_context(kind, &ContextConfig::quick(kind));
    let encoder = FeatureEncoder::new(&ctx.benchmark.catalog, true);
    let (train, test) = ctx.workload.split(0.8, 1);
    let mut model = QppNetEstimator::new(encoder, None, &mut rng);
    model.train(&train, Some(&ctx.snapshots_fso), 10, &mut rng);
    let report = evaluate(&model, &test, Some(&ctx.snapshots_fso));
    println!(
        "Held-out accuracy: pearson {:.3}, mean q-error {:.3} over {} queries",
        report.pearson, report.mean_q_error, report.samples
    );

    // Predict a brand-new query.
    let fresh = bench.templates[5].instantiate(&mut rng); // Q6: forecast revenue
    let plan = db.plan(&fresh).expect("plans");
    let predicted = model.predict(&plan, ctx.snapshots_fso[0].as_ref());
    let actual = db.execute(&fresh, &mut rng).expect("runs").total_ms;
    println!(
        "\nFresh query {}\n  predicted {:.3} ms vs simulated actual {:.3} ms",
        fresh.to_sql(),
        predicted,
        actual
    );
}
