//! The repository benchmark: workloads driven through the public
//! APIs of the espresso crates, with raw-sample end-to-end metrics from
//! untraced runs and a per-layer ledger from traced runs.
//!
//! Run it from the repository root:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-cold --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is the result object; the line
//! before it is the run's context (host, seed, sample counts, phases).

pub mod corpus;
pub mod fleet_churn;
pub mod gen;
pub mod hot_mix;
pub mod ledger;
pub mod paper_cold;
pub mod pipeline;
pub mod stats;
pub mod trace;
pub mod train_churn;

use std::path::PathBuf;
use std::time::Instant;

/// End-to-end metrics every workload reports with `--trace 0`.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("fixed_work_s", "s"),
    ("plan_ratio_geomean", "ratio"),
    ("baseline_win_pct", "%"),
];

/// The paper's six zoo models, as named in requests.
pub const MODELS: [&str; 6] = ["VGG16", "ResNet101", "UGATIT", "BERT-base", "GPT2", "LSTM"];

/// Per-layer metrics every workload reports with `--trace 1` (a layer
/// the workload does not call reads 0).
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = [
        ("http.parse_us", "us"),
        ("json.parse_us", "us"),
        ("service.canonical_key_us", "us"),
        ("cache.get_us", "us"),
        ("cache.hit_ratio", "ratio"),
        ("service.encode_us", "us"),
        ("server.residual_ms", "ms"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    for (name, unit) in PLANNER_LAYERS {
        out.push((name.to_string(), unit));
        for model in MODELS {
            out.push((format!("{name}.{model}"), unit));
        }
    }
    for (n, u) in [
        ("robust.select_ms", "ms"),
        ("warm.hit_ratio", "ratio"),
        ("fleet.apply_health_ms", "ms"),
        ("fleet.replan_ms", "ms"),
        ("fleet.batch_size_mean", "jobs"),
        ("fleet.snapshot_ms", "ms"),
        ("fleet.snapshots_per_delta", "ratio"),
        ("fleet.register_us", "us"),
        ("journal.bytes_per_delta", "bytes"),
        ("training.step_ms", "ms"),
        ("mlp.grads_ms", "ms"),
        ("gc.sync_ms", "ms"),
        ("gc.sync_mb_per_s", "MB/s"),
        ("checkpoint.save_ms", "ms"),
        ("runtime.replan_ms", "ms"),
        ("loadgen.lag_p90_ms", "ms"),
        ("trace.overhead_ratio", "ratio"),
    ] {
        out.push((n.to_string(), u));
    }
    out
}

/// Planner-layer metrics, reported in total and per model.
pub const PLANNER_LAYERS: [(&str, &str); 9] = [
    ("strategy.space_ms", "ms"),
    ("gpu.alg1_ms", "ms"),
    ("gpu.alg1_sims", "count"),
    ("offload.alg2_ms", "ms"),
    ("offload.combinations", "count"),
    ("refine.backfill_ms", "ms"),
    ("refine.backfill_sims", "count"),
    ("refine.backfill_accept_ratio", "ratio"),
    ("sim.full_us", "us"),
];

/// Settings of one run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Input seed.
    pub seed: u64,
    /// Measurement window, seconds.
    pub seconds: f64,
    /// Working directory for this run (inside the checkout).
    pub work: PathBuf,
    /// Directory for results a build may re-use across its runs.
    pub cache: PathBuf,
    /// Where spans are written at the end of a traced run.
    pub spans_out: PathBuf,
}

/// Counts of one phase of a run.
#[derive(Debug, Clone, Default)]
pub struct Phase {
    /// Phase name.
    pub name: String,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed (errors and wrong outputs alike).
    pub failed: u64,
    /// The first failure seen.
    pub first_error: Option<String>,
}

impl Phase {
    /// Records one operation: `Ok` succeeded, `Err` failed with a reason.
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            if self.first_error.is_none() {
                eprintln!("perfbench: {} failed: {e}", self.name);
                self.first_error = Some(e);
            }
        }
    }
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Per-phase operation counts.
    pub phases: Vec<Phase>,
    /// Metrics in report order: name, value, unit.
    pub metrics: Vec<(String, f64, String)>,
    /// Context recorded next to the result (sample counts, levels).
    pub context: Vec<(String, String)>,
}

impl Outcome {
    /// The phase named `name`, created on first use.
    pub fn phase(&mut self, name: &str) -> &mut Phase {
        if let Some(i) = self.phases.iter().position(|p| p.name == name) {
            return &mut self.phases[i];
        }
        self.phases.push(Phase {
            name: name.to_string(),
            ..Phase::default()
        });
        self.phases.last_mut().expect("just pushed")
    }

    /// Records metric `name`.
    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics
            .push((name.to_string(), value, unit.to_string()));
    }

    /// Records a context entry.
    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.context.push((key.to_string(), value.to_string()));
    }
}

/// Peak resident set of this process so far, MB (`VmHWM`), or 0 when
/// unknown. Each workload reads it at one fixed point of its run.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Starts a default in-process decision server and opens one keep-alive
/// connection to it with `timeout`; a failure is recorded in the
/// `setup` phase.
pub fn start_server(
    timeout: std::time::Duration,
    out: &mut Outcome,
) -> Option<(espresso_serve::Server, espresso_serve::client::Connection)> {
    let started = espresso_serve::Server::start(espresso_serve::ServeConfig::default())
        .map_err(|e| e.to_string())
        .and_then(|server| {
            espresso_serve::client::Connection::open(server.addr(), timeout)
                .map(|conn| (server, conn))
                .map_err(|e| e.to_string())
        });
    match started {
        Ok(pair) => Some(pair),
        Err(e) => {
            out.phase("setup").record(Err(e));
            None
        }
    }
}

/// Seconds since `t0`.
pub fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// Best baseline iteration time ÷ Espresso's, for one decided job.
pub fn baseline_ratio(job: &espresso_sim::Job, espresso_time_s: f64) -> f64 {
    let esp = espresso::Espresso::new(job.clone());
    let best = espresso::Baseline::ALL
        .iter()
        .map(|b| esp.evaluate(&b.strategy(job)))
        .fold(f64::INFINITY, f64::min);
    best / espresso_time_s
}

/// The in-process `espresso::decide(..).response()` encoding of `spec`,
/// and the best-baseline ratio of its plan: the reference every served
/// body is compared with.
///
/// # Errors
///
/// The request or decision error, as text.
pub fn in_process_answer(spec: &corpus::Spec) -> Result<(Vec<u8>, f64), String> {
    let req = espresso::DecisionRequest::parse(&spec.doc.render()).map_err(|e| e.to_string())?;
    let d = espresso::decide(&req).map_err(|e| e.to_string())?;
    let ratio = baseline_ratio(&d.job, d.report.iteration_time);
    Ok((
        espresso_json::Json::encode(&d.response()).into_bytes(),
        ratio,
    ))
}

/// Relative slack under which Espresso counts as matching a baseline.
pub const WIN_TOLERANCE: f64 = 1e-9;

/// Records `plan_ratio_geomean` and `baseline_win_pct` from per-config
/// best-baseline ÷ Espresso ratios.
pub fn record_plan_quality(out: &mut Outcome, ratios: &[f64]) {
    let wins = ratios.iter().filter(|&&r| r >= 1.0 - WIN_TOLERANCE).count();
    out.metric("plan_ratio_geomean", stats::geomean(ratios), "ratio");
    out.metric(
        "baseline_win_pct",
        100.0 * wins as f64 / ratios.len().max(1) as f64,
        "%",
    );
    out.note("plan_configs", ratios.len());
    out.note("baseline_losses", ratios.len() - wins);
}
