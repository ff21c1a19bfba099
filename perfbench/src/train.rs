//! `train`: the paper's pipeline on TPCH — DiffProp reduction, training
//! and held-out evaluation of QCFE(qpp) and QCFE(mscn) — as the program's
//! `run_method` runs it, repeated for the timed phase. Single-threaded
//! and left on every CPU, so that a later parallel pipeline can show its
//! gain. It touches no serving layer.

use crate::pipeline::{self, KIND, SETUP_REPEATS, TIMED_REPEATS};
use crate::probes::{self, ProbeInputs};
use crate::report::Outcome;
use crate::stats::{mean, median, percentile};
use crate::trace::{Attribution, Tracer};
use qcfe_core::collect::LabeledWorkload;
use qcfe_core::estimators::{MscnEstimator, QppNetEstimator};
use qcfe_core::metrics::{q_error, AccuracyReport};
use qcfe_core::pipeline::{prepare_context, run_method, EstimatorKind, ExperimentContext};
use qcfe_serve::{EstimateRequest, EstimateResponse, ModelKey, Provenance, SnapshotOrigin};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Training runs per timed phase at least, each with its own subsample,
/// split and initialisation drawn from the run seed. One split's cost and
/// error depend on which features its reductions keep: over five run
/// seeds a single split's `train_s` moved 1.28 – 1.46 s and its q-error
/// p95 1.50 – 1.71. Averaging six splits per run evens that out.
const SPLITS: usize = 6;

/// Seed of the `i`-th training run of a timed phase.
fn split_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(1000).wrapping_add((i % SPLITS) as u64)
}

/// The program's `run_method` for QCFE(qpp) and QCFE(mscn), split after
/// split: what `train_s`, the throughput and the q-errors are read from.
struct ProgramPhase {
    /// Wall time of both `run_method` calls, per training run.
    iteration_s: Vec<f64>,
    /// `MethodResult.accuracy` of both models on the first run of each
    /// split.
    reports: Vec<AccuracyReport>,
    /// Held-out estimates `run_method` made over the phase.
    estimates: usize,
    /// Features kept by every reduction of the first run of each split.
    kept: Vec<usize>,
    train_qpp_s: Vec<f64>,
    train_mscn_s: Vec<f64>,
    /// Whether every repeated split reproduced its first run's accuracy.
    deterministic: bool,
}

/// Run both QCFE variants split after split until every split ran and
/// `seconds` passed, calling `between` after each training run, outside
/// its timing.
fn program_phase(
    ctx: &ExperimentContext,
    seed: u64,
    seconds: f64,
    mut between: impl FnMut(),
) -> ProgramPhase {
    let mut p = ProgramPhase {
        iteration_s: Vec::new(),
        reports: Vec::with_capacity(2 * SPLITS),
        estimates: 0,
        kept: Vec::new(),
        train_qpp_s: Vec::new(),
        train_mscn_s: Vec::new(),
        deterministic: true,
    };
    let started = Instant::now();
    let mut i = 0;
    while i < SPLITS || started.elapsed().as_secs_f64() < seconds {
        let run_seed = split_seed(seed, i);
        let t0 = Instant::now();
        let results = [EstimatorKind::QcfeQpp, EstimatorKind::QcfeMscn]
            .map(|kind| run_method(ctx, kind, &pipeline::run_config(kind, run_seed)));
        p.iteration_s.push(t0.elapsed().as_secs_f64());
        for (slot, result) in results.iter().enumerate() {
            p.estimates += result.accuracy.samples;
            if i < SPLITS {
                p.reports.push(result.accuracy.clone());
                p.kept.extend(pipeline::kept_features(result));
            } else {
                p.deterministic &= p.reports[2 * (i % SPLITS) + slot] == result.accuracy;
            }
        }
        let [qpp, mscn] = results;
        p.train_qpp_s.push(qpp.train.train_time_s);
        p.train_mscn_s.push(mscn.train.train_time_s);
        between();
        i += 1;
    }
    p
}

impl ProgramPhase {
    /// Mean over both models and every split of one accuracy figure.
    fn mean_of(&self, f: impl Fn(&AccuracyReport) -> f64) -> Option<f64> {
        mean(&self.reports.iter().map(f).collect::<Vec<_>>())
    }

    fn check(&self, out: &mut Outcome) {
        // `q_error` is at least 1 unless it is NaN or infinite, and a NaN
        // or infinite q-error makes the mean non-finite.
        let bad = self
            .reports
            .iter()
            .filter(|r| {
                !([
                    r.mean_q_error,
                    r.median_q_error,
                    r.p95_q_error,
                    r.p25_q_error,
                ]
                .iter()
                .all(|q| q.is_finite() && *q >= 1.0)
                    && r.samples > 0)
            })
            .count();
        out.check(bad == 0, || {
            format!("{bad} held-out accuracy reports have a q-error that is not finite or below 1")
        });
        out.check(self.kept.iter().all(|&k| k >= 1), || {
            format!("a reduction kept no feature: {:?}", self.kept)
        });
        out.check(self.deterministic, || {
            "a split trained twice gave different held-out accuracy".into()
        });
    }
}

/// What `run_method` does not return: a trained model to time single
/// estimates with. This QCFE(qpp) and QCFE(mscn) pair is trained on the
/// run's first split by the step-by-step pipeline, and estimates every
/// labeled query of the context once per training run of the timed phase,
/// so that the latencies are sampled across the whole phase.
struct LatencyPair {
    qpp: QppNetEstimator,
    mscn: MscnEstimator,
    latencies_us: Vec<f64>,
    /// Predictions of the first pass; later passes must repeat them.
    first: Option<Vec<Vec<f64>>>,
    repeatable: bool,
}

impl LatencyPair {
    fn train(ctx: &ExperimentContext, seed: u64) -> LatencyPair {
        let mut off = Tracer::new(false, Instant::now());
        let run_seed = split_seed(seed, 0);
        let (train, _) = pipeline::split(ctx, run_seed);
        LatencyPair {
            qpp: pipeline::train_qcfe_qpp(ctx, &train, run_seed, &mut off, None).model,
            mscn: pipeline::train_qcfe_mscn(ctx, &train, run_seed, &mut off, None).model,
            latencies_us: Vec::new(),
            first: None,
            repeatable: true,
        }
    }

    /// One timed pass over the context's labeled queries.
    fn pass(&mut self, ctx: &ExperimentContext) {
        let (qpp, mscn) = (&self.qpp, &self.mscn);
        let eval = pipeline::evaluate(
            &[&|pl, s| qpp.predict(pl, s), &|pl, s| mscn.predict(pl, s)],
            ctx,
            &ctx.workload,
            TIMED_REPEATS,
            &mut Tracer::new(false, Instant::now()),
            None,
        );
        self.latencies_us.extend(&eval.latencies_us);
        self.repeatable &= eval.repeatable;
        match &self.first {
            Some(first) => self.repeatable &= *first == eval.predictions,
            None => self.first = Some(eval.predictions),
        }
    }

    fn check(&self, ctx: &ExperimentContext, out: &mut Outcome) {
        let q_errors: Vec<f64> = self
            .first
            .iter()
            .flatten()
            .flat_map(|preds| {
                ctx.workload
                    .actual_costs()
                    .into_iter()
                    .zip(preds)
                    .map(|(a, p)| q_error(a, *p))
                    .collect::<Vec<_>>()
            })
            .collect();
        check_q_errors(&q_errors, out);
        out.check(self.repeatable, || {
            "repeated estimates of the same plan differed".into()
        });
    }
}

/// The step-by-step pipeline with a span on every step, split after
/// split, for the traced run's attribution.
struct TracedPhase {
    iteration_s: Vec<f64>,
    evaluate_s: Vec<f64>,
    q_errors: Vec<f64>,
    wall_s: f64,
    /// The last run's QCFE(mscn) and its test split, for the probes.
    mscn: MscnEstimator,
    test: LabeledWorkload,
}

fn traced_phase(
    ctx: &ExperimentContext,
    seed: u64,
    seconds: f64,
    tracer: &mut Tracer,
) -> TracedPhase {
    let mut iteration_s = Vec::new();
    let mut evaluate_s = Vec::new();
    let mut q_errors = Vec::new();
    let mut last = None;
    let started = Instant::now();
    let mut i = 0;
    while i < SPLITS || started.elapsed().as_secs_f64() < seconds {
        let run_seed = split_seed(seed, i);
        let t0 = Instant::now();
        let iteration = tracer.open("pipeline.iteration", None, 0);
        let span = tracer.open("core.collect.split", Some(iteration), 0);
        let (train, test) = pipeline::split(ctx, run_seed);
        tracer.close(span);
        let qpp = pipeline::train_qcfe_qpp(ctx, &train, run_seed, tracer, Some(iteration));
        let mscn = pipeline::train_qcfe_mscn(ctx, &train, run_seed, tracer, Some(iteration));
        let eval = pipeline::evaluate(
            &[&|pl, s| qpp.model.predict(pl, s), &|pl, s| {
                mscn.model.predict(pl, s)
            }],
            ctx,
            &test,
            1,
            tracer,
            Some(iteration),
        );
        tracer.close(iteration);
        iteration_s.push(t0.elapsed().as_secs_f64());
        evaluate_s.push(eval.wall_s);
        q_errors.extend(pipeline::pooled_q_errors(&test, &eval));
        last = Some((mscn.model, test));
        i += 1;
    }
    let (mscn, test) = last.expect("at least one training run");
    TracedPhase {
        iteration_s,
        evaluate_s,
        q_errors,
        wall_s: started.elapsed().as_secs_f64(),
        mscn,
        test,
    }
}

fn check_q_errors(q_errors: &[f64], out: &mut Outcome) {
    let bad = q_errors
        .iter()
        .filter(|q| !(q.is_finite() && **q >= 1.0))
        .count();
    out.failed += bad as u64;
    out.check(bad == 0, || {
        format!("{bad} q-errors are not finite or below 1")
    });
}

/// Probe inputs built from a test split: its plans as requests, the
/// QCFE(mscn) predictions as responses.
fn probe_io(
    ctx: &ExperimentContext,
    model: &MscnEstimator,
    test: &LabeledWorkload,
) -> (Vec<EstimateRequest>, Vec<EstimateResponse>) {
    let envs: Vec<Arc<qcfe_db::DbEnvironment>> = ctx
        .workload
        .environments
        .iter()
        .map(|e| Arc::new(e.clone()))
        .collect();
    let mut requests = Vec::with_capacity(test.len());
    let mut responses = Vec::with_capacity(test.len());
    for q in &test.queries {
        let env = &envs[q.env_index];
        let snapshot = pipeline::snapshot_for(&ctx.snapshots_fso, q.env_index);
        requests.push(EstimateRequest::new(
            KIND,
            Arc::clone(env),
            q.executed.root.clone(),
        ));
        responses.push(EstimateResponse {
            cost_ms: model.predict(&q.executed.root, snapshot),
            batch_size: 1,
            encoding_cache_hit: false,
            provenance: Provenance {
                model_key: ModelKey::new(KIND, EstimatorKind::QcfeMscn, env.fingerprint()),
                snapshot_origin: SnapshotOrigin::TrainedHere,
                model_from_disk: false,
                refined: false,
                cold_start: false,
                service_us: 0,
                total_us: 0,
            },
        });
    }
    (requests, responses)
}

pub fn run(seed: u64, seconds: f64, trace: bool, scratch: &Path) -> std::io::Result<Outcome> {
    let mut out = Outcome::default();
    let config = pipeline::context_config();
    if !trace {
        let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
        let mut ctx = None;
        for _ in 0..SETUP_REPEATS {
            // The previous context goes first, so each set-up starts from
            // the same heap.
            drop(ctx.take());
            let t0 = Instant::now();
            ctx = Some(prepare_context(KIND, &config));
            setup_s.push(t0.elapsed().as_secs_f64());
        }
        let ctx = ctx.expect("at least one set-up");
        let mut pair = LatencyPair::train(&ctx, seed);
        let p = program_phase(&ctx, seed, seconds, || pair.pass(&ctx));
        p.check(&mut out);
        pair.check(&ctx, &mut out);
        out.attempted += (p.estimates + pair.latencies_us.len()) as u64;
        let run_s: f64 = p.iteration_s.iter().sum();
        out.put("setup_s", median(&setup_s), "s");
        // A mean, not a median: on a shared 2-vCPU Xeon guest the CPU's
        // speed held for 5–20 s at a time, and a mean weighs each stretch
        // by its share of the runs.
        out.put("train_s", mean(&p.iteration_s), "s");
        // The held-out estimates `run_method` made, per second of its
        // runs.
        out.metric("throughput_eps", p.estimates as f64 / run_s, "1/s");
        out.put("p50_us", percentile(&pair.latencies_us, 50.0), "us");
        out.put("p99_us", percentile(&pair.latencies_us, 99.0), "us");
        out.put("qerror_median", p.mean_of(|r| r.median_q_error), "ratio");
        out.put("qerror_p95", p.mean_of(|r| r.p95_q_error), "ratio");
        out.notes.push(format!(
            "train: {} runs in {run_s:.3} s, {} held-out estimates, {} timed estimates; set-ups (s): {setup_s:.3?}, runs (s): {:.3?}",
            p.iteration_s.len(),
            p.estimates,
            pair.latencies_us.len(),
            p.iteration_s
        ));
        return Ok(out);
    }

    let mut setup_tracer = Tracer::new(true, Instant::now());
    let t0 = Instant::now();
    let span = setup_tracer.open("core.pipeline.prepare_context", None, 0);
    let ctx = prepare_context(KIND, &config);
    setup_tracer.close(span);
    let setup_wall = t0.elapsed();
    let untraced = program_phase(&ctx, seed, seconds, || {});
    untraced.check(&mut out);
    let mut tracer = Tracer::new(true, Instant::now());
    let traced = traced_phase(&ctx, seed, seconds, &mut tracer);
    check_q_errors(&traced.q_errors, &mut out);
    out.attempted += (untraced.estimates + traced.q_errors.len()) as u64;

    let setup = Attribution::of(&setup_tracer, setup_wall.as_nanos() as u64);
    let timed = Attribution::of(&tracer, (traced.wall_s * 1e9) as u64);
    out.notes.push(setup.render("set-up (traced)"));
    out.notes.push(timed.render("timed phase (traced)"));
    probes::setup(&ctx, &config, &mut out);
    let iterations = traced.iteration_s.len() as f64;
    out.metric(
        "core.reduction.s",
        timed.self_s("core.reduction") / iterations,
        "s",
    );
    out.metric(
        "core.reduction.kept_features",
        untraced.kept.iter().sum::<usize>() as f64 / SPLITS as f64,
        "count",
    );
    out.put(
        "core.estimators.train_qpp_s",
        median(&untraced.train_qpp_s),
        "s",
    );
    out.put(
        "core.estimators.train_mscn_s",
        median(&untraced.train_mscn_s),
        "s",
    );
    out.put(
        "core.estimators.evaluate_s",
        median(&traced.evaluate_s),
        "s",
    );
    // The traced step-by-step pipeline against the program's own
    // `run_method`: tracing cost, plus any gap between the two.
    let overhead = median(&traced.iteration_s).unwrap_or(f64::NAN)
        / median(&untraced.iteration_s).unwrap_or(f64::NAN)
        - 1.0;
    out.metric("trace.overhead_share", overhead, "share");

    let (requests, responses) = probe_io(&ctx, &traced.mscn, &traced.test);
    probes::run(
        &ProbeInputs {
            ctx: &ctx,
            model: &traced.mscn,
            requests: &requests,
            responses: &responses,
            batch: 1,
            labels: probes::context_labels(&ctx),
            scratch,
        },
        &mut out,
    )?;
    crate::trace::write_spans(
        &scratch.with_extension("spans.jsonl"),
        &[("setup", &setup_tracer), ("timed", &tracer)],
    )?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcfe_core::pipeline::ContextConfig;

    #[test]
    fn same_seed_repeats_inputs_and_q_errors_and_another_seed_differs() {
        let ctx = prepare_context(
            KIND,
            &ContextConfig {
                data_scale: 0.0005,
                environments: 2,
                queries_per_env: 40,
                template_scale: 1,
                seed: 5,
            },
        );
        let a = program_phase(&ctx, 3, 0.0, || {});
        let b = program_phase(&ctx, 3, 0.0, || {});
        let c = program_phase(&ctx, 4, 0.0, || {});
        assert!(a.deterministic && b.deterministic && c.deterministic);
        assert_eq!(a.reports, b.reports);
        let q = |p: &ProgramPhase| {
            (
                p.mean_of(|r| r.median_q_error),
                p.mean_of(|r| r.p95_q_error),
            )
        };
        assert_eq!(q(&a), q(&b));
        assert_ne!(q(&a), q(&c));
        let test_costs = |seed| pipeline::split(&ctx, split_seed(seed, 0)).1.actual_costs();
        assert_eq!(test_costs(3), test_costs(3));
        assert_ne!(test_costs(3), test_costs(4));
    }
}
