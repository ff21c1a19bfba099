//! The repository's benchmark: three workloads over the QCFE workspace,
//! measured from outside through the crates' public API.
//!
//! Usage (from the repository root):
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <train|uds-hot|local-feedback> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints every end-to-end metric; `--trace 1` runs the timed
//! phase untraced and then traced, and prints every per-layer metric, the
//! tracing overhead and each layer's share of the timed phase. The last
//! line of standard output is the JSON result. A run record (metrics,
//! calibration, CPU placement) and, for traced runs, the spans are
//! written under `perfbench/out/`. See `perfbench/NOTES.md`.

mod calib;
mod pipeline;
mod probes;
mod report;
mod serving;
mod stats;
mod trace;
mod train;

use calib::{Calibration, Placement};
use report::{json_string, metrics_json, Outcome};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Every end-to-end metric, reported by every workload.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("train_s", "s"),
    ("throughput_eps", "1/s"),
    ("p50_us", "us"),
    ("p99_us", "us"),
    ("qerror_median", "ratio"),
    ("qerror_p95", "ratio"),
];

/// Every per-layer metric. A workload whose work never enters a layer
/// reports that layer's metrics as 0.
const PER_LAYER: [(&str, &str); 32] = [
    ("net.outside_gateway_us", "us"),
    ("net.client.send_us", "us"),
    ("net.wire.request_bytes", "bytes"),
    ("net.wire.encode_request_us", "us"),
    ("net.wire.decode_request_us", "us"),
    ("net.wire.encode_response_us", "us"),
    ("net.wire.decode_response_us", "us"),
    ("net.server.faults", "count"),
    ("serve.gateway.self_us", "us"),
    ("serve.service.p50_us", "us"),
    ("serve.service.p99_us", "us"),
    ("serve.service.batch_mean", "count"),
    ("serve.service.cache_hit_share", "share"),
    ("serve.service.queue_high_water", "count"),
    ("core.estimators.predict_us", "us"),
    ("core.encoding.encode_us", "us"),
    ("serve.refine.record_us", "us"),
    ("serve.refine.refit_us", "us"),
    ("serve.refine.refits", "count"),
    ("serve.refine.promotions", "count"),
    ("core.snapshot.refit_us", "us"),
    ("serve.store.save_us", "us"),
    ("db.executor.execute_us", "us"),
    ("core.collect.s", "s"),
    ("core.templates.fst_s", "s"),
    ("core.snapshot.fit_us", "us"),
    ("core.reduction.s", "s"),
    ("core.reduction.kept_features", "count"),
    ("core.estimators.train_qpp_s", "s"),
    ("core.estimators.train_mscn_s", "s"),
    ("core.estimators.evaluate_s", "s"),
    ("trace.overhead_share", "share"),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Train,
    UdsHot,
    LocalFeedback,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "train" => Some(Workload::Train),
            "uds-hot" => Some(Workload::UdsHot),
            "local-feedback" => Some(Workload::LocalFeedback),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Train => "train",
            Workload::UdsHot => "uds-hot",
            Workload::LocalFeedback => "local-feedback",
        }
    }

    /// Serving workloads run pinned to one CPU: with the client, reactor
    /// and workers on one core, no request waits on a cross-CPU wakeup,
    /// whose cost on a shared host swung 3–21 µs between runs.
    fn pinned(self) -> bool {
        self != Workload::Train
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Order the metrics as the table lists them; fill layers the workload
/// never entered with 0 and flag any end-to-end metric that is missing.
fn complete(out: &mut Outcome, trace: bool) {
    let table: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::with_capacity(table.len());
    for &(name, unit) in table {
        match out.metrics.iter().find(|m| m.name == name) {
            Some(m) => metrics.push(m.clone()),
            None if trace => metrics.push(report::Metric {
                name,
                value: 0.0,
                unit,
            }),
            None => {
                out.failures.push(format!("{name} was not measured"));
                metrics.push(report::Metric {
                    name,
                    value: f64::NAN,
                    unit,
                });
            }
        }
    }
    out.metrics = metrics;
}

fn record(
    path: &Path,
    args: &Args,
    placement: &Placement,
    calib: &Calibration,
    out: &Outcome,
) -> std::io::Result<()> {
    let failures: Vec<String> = out.failures.iter().map(|f| json_string(f)).collect();
    let finite = |v: f64| {
        if v.is_finite() {
            v.to_string()
        } else {
            "null".to_string()
        }
    };
    let body = format!(
        "{{\n  \"workload\": {},\n  \"seed\": {},\n  \"seconds\": {},\n  \"trace\": {},\n  \"placement\": {},\n  \"calibration\": {{\"compute_msteps_per_s\": {}, \"handoff_pinned_us\": {}, \"handoff_unpinned_us\": {}}},\n  \"attempted\": {},\n  \"failed\": {},\n  \"failures\": [{}],\n  \"metrics\": {}\n}}\n",
        json_string(args.workload.name()),
        args.seed,
        args.seconds,
        args.trace,
        json_string(&placement.describe()),
        finite(calib.compute_msteps_per_s),
        finite(calib.handoff_pinned_us),
        finite(calib.handoff_unpinned_us),
        out.attempted,
        out.failed,
        failures.join(", "),
        metrics_json(&out.metrics),
    );
    std::fs::write(path, body)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\nusage: --workload <train|uds-hot|local-feedback> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

fn run(args: &Args) -> std::io::Result<bool> {
    let out_dir = PathBuf::from("perfbench/out");
    std::fs::create_dir_all(&out_dir)?;
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    // Stores and sockets of the run; removed at the end. The span file
    // sits beside it as `<stem>.spans.jsonl`.
    let scratch = out_dir.join(&stem);
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch)?;

    let allowed = calib::allowed_cpus()?;
    let pin_cpu = *allowed
        .last()
        .ok_or_else(|| std::io::Error::other("no CPU allowed"))?;
    let calibration = Calibration::measure(pin_cpu)?;
    let placement = if args.workload.pinned() {
        Placement::pin_process()?
    } else {
        Placement::unpinned()?
    };

    let result = match args.workload {
        Workload::Train => train::run(args.seed, args.seconds, args.trace, &scratch),
        Workload::UdsHot => serving::run_uds_hot(args.seed, args.seconds, args.trace, &scratch),
        Workload::LocalFeedback => {
            serving::run_local_feedback(args.seed, args.seconds, args.trace, &scratch)
        }
    };
    let _ = std::fs::remove_dir_all(&scratch);
    let mut out = result?;
    complete(&mut out, args.trace);

    println!(
        "workload {} seed {} ({})",
        args.workload.name(),
        args.seed,
        placement.describe()
    );
    println!(
        "calibration: compute {:.1} Msteps/s, handoff pinned {:.2} us, unpinned {:.2} us",
        calibration.compute_msteps_per_s,
        calibration.handoff_pinned_us,
        calibration.handoff_unpinned_us
    );
    for note in &out.notes {
        println!("{}", note.trim_end());
    }
    for m in &out.metrics {
        println!("  {:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("attempted {} failed {}", out.attempted, out.failed);
    for failure in &out.failures {
        println!("CHECK FAILED: {failure}");
    }
    record(
        &out_dir.join(format!("{stem}.json")),
        args,
        &placement,
        &calibration,
        &out,
    )?;
    println!("{}", out.result_line());
    Ok(out.correct())
}
