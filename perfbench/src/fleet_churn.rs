//! `fleet-churn`: an in-process fleet controller on a fresh directory.
//! Jobs sharing a few cheap specifications are registered over eight
//! clusters, an open-loop, jittered stream of epoch-stamped deltas
//! (quantized inter-link degradation plus rank loss and re-join) is
//! applied, and the directory is reopened for recovery.
//!
//! The controller runs without background planners: the calling thread
//! plans each wave with `run_pending`, so a delta's latency is its own
//! journal, planning and commit work plus the wait behind earlier
//! deltas, free of thread-scheduling races on a small host.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use espresso::robust::RobustSelector;
use espresso::DecisionRequest;
use espresso_cluster::ClusterHealth;
use espresso_json::Json;
use espresso_serve::fleet::{FleetConfig, FleetController, HealthDelta, JobSpec};

use crate::corpus::request_doc;
use crate::gen::{delta_stream, DeltaDraw, Rng, DEGRADATION_LEVELS};
use crate::stats::{median, percentile, summarize};
use crate::trace::Tracer;
use crate::{record_plan_quality, secs, Outcome, RunArgs};

/// Registered jobs.
const JOBS: usize = 1200;
/// Named clusters the jobs are spread over.
const CLUSTERS: usize = 8;
/// Ranks per cluster.
const WORKERS: usize = 8;
/// Delta arrivals per second of the window: 140 deltas in 20 s.
const RATE: f64 = 7.0;
/// Chance that a delta also loses or re-joins a rank.
const CHURN: f64 = 0.3;
/// Rounds per run, each on a fresh controller with its share of the
/// window, so set-up and recovery samples are spread over the run.
const ROUNDS: usize = 5;
/// Reopens timed for recovery, per round.
const RECOVERIES: usize = 4;
/// Registrations timed together: one registration-rate sample.
const REGISTER_CHUNK: usize = 100;
/// Forced snapshots timed at the end of a traced run.
const SNAPSHOTS: usize = 5;

/// The shared job specifications.
fn specs() -> Vec<Json> {
    let randomk = r#"{"RandomK":{"density":0.01}}"#;
    vec![
        request_doc("LSTM", randomk, 1, 4, "Pcie", 25.0),
        request_doc("LSTM", r#"{"Dgc":{"density":0.01}}"#, 2, 4, "NvLink", 100.0),
        request_doc("VGG16", r#""EfSignSgd""#, 1, 4, "Pcie", 25.0),
        request_doc("VGG16", randomk, 2, 4, "NvLink", 100.0),
    ]
}

/// Seeded job table: job `i` on cluster `i % CLUSTERS`, specifications
/// dealt evenly in a seeded order.
fn jobs(seed: u64) -> Vec<JobSpec> {
    let specs = specs();
    let mut which: Vec<usize> = (0..JOBS).map(|i| i % specs.len()).collect();
    Rng::new(seed ^ 0x6a6f_6273).shuffle(&mut which);
    which
        .into_iter()
        .enumerate()
        .map(|(i, s)| JobSpec {
            id: format!("job-{i:04}"),
            cluster: format!("c{}", i % CLUSTERS),
            priority: 0,
            notify: None,
            request: DecisionRequest::parse(&specs[s].render()).expect("fleet specs parse"),
        })
        .collect()
}

fn config(dir: &Path) -> FleetConfig {
    FleetConfig {
        dir: dir.to_path_buf(),
        replan_workers: 0,
        ..FleetConfig::default()
    }
}

/// Plans every queued job on this thread; false when a re-plan failed.
fn plan_all(fleet: &FleetController) -> bool {
    let errors = || fleet.stats().replan_errors.load(Ordering::Relaxed);
    let before = errors();
    fleet.run_pending();
    fleet.pending_replans() == 0 && errors() == before
}

struct Setup {
    fleet: FleetController,
    epochs: Vec<u64>,
    setup_s: f64,
    /// Seconds to register each chunk of [`REGISTER_CHUNK`] jobs.
    register_s: Vec<f64>,
}

fn open_and_register(
    dir: &Path,
    jobs: &[JobSpec],
    t: &mut Tracer,
    out: &mut Outcome,
) -> Option<Setup> {
    let _ = std::fs::remove_dir_all(dir);
    let t0 = Instant::now();
    let fleet = match FleetController::open(config(dir)) {
        Ok(f) => f,
        Err(e) => {
            out.phase("setup").record(Err(e.to_string()));
            return None;
        }
    };
    let mut register_s = Vec::new();
    for (c, chunk) in jobs.chunks(REGISTER_CHUNK).enumerate() {
        let t1 = Instant::now();
        for (n, job) in chunk.iter().enumerate() {
            let id = (c * REGISTER_CHUNK + n) as u64;
            let r = t.span("fleet.register", id, |_| fleet.register(job.clone()));
            out.phase("register")
                .record(r.map(|_| ()).map_err(|e| e.to_string()));
        }
        register_s.push(secs(t1));
    }
    let mut drained = plan_all(&fleet);
    // Walk one cluster through every degraded level so the robust plans
    // the stream re-uses are computed before it starts.
    let mut epochs = vec![0u64; CLUSTERS];
    for &f in DEGRADATION_LEVELS.iter().filter(|&&f| f > 1.0) {
        epochs[0] += 1;
        let delta = HealthDelta {
            cluster: "c0".into(),
            epoch: epochs[0],
            workers: Some(WORKERS),
            health: ClusterHealth::inter_degraded(f),
            lost: Vec::new(),
            rejoined: Vec::new(),
        };
        let applied = fleet
            .apply_health(&delta)
            .map(|o| o.applied)
            .unwrap_or(false);
        drained &= applied && plan_all(&fleet);
    }
    out.phase("setup").record(if drained {
        Ok(())
    } else {
        Err("initial and priming plans did not drain".into())
    });
    Some(Setup {
        fleet,
        epochs,
        setup_s: secs(t0),
        register_s,
    })
}

/// Per-delta record: scheduled offset, apply start and the end of its
/// re-plans (seconds from the stream's start).
struct DeltaLog {
    due: f64,
    applied: f64,
    done: f64,
}

fn stream(
    fleet: &FleetController,
    draws: &[DeltaDraw],
    epochs: &mut [u64],
    t: &mut Tracer,
    out: &mut Outcome,
) -> Vec<DeltaLog> {
    let start = Instant::now();
    let mut log = Vec::with_capacity(draws.len());
    for (n, d) in draws.iter().enumerate() {
        let due = Duration::from_secs_f64(d.at);
        if let Some(wait) = due.checked_sub(start.elapsed()) {
            std::thread::sleep(wait);
        }
        epochs[d.cluster] += 1;
        let delta = HealthDelta {
            cluster: format!("c{}", d.cluster),
            epoch: epochs[d.cluster],
            workers: Some(WORKERS),
            health: if d.inter_factor > 1.0 {
                ClusterHealth::inter_degraded(d.inter_factor)
            } else {
                ClusterHealth::nominal()
            },
            lost: d.lost.into_iter().collect(),
            rejoined: d.rejoined.into_iter().collect(),
        };
        let applied = secs(start);
        let r = t.span("fleet.apply_health", n as u64, |_| {
            fleet.apply_health(&delta)
        });
        let drained = t.span("fleet.replan", n as u64, |_| plan_all(fleet));
        let done = secs(start);
        out.phase("delta").record(match r {
            Ok(o) if o.applied && drained => Ok(()),
            Ok(o) if !o.applied => Err(format!("delta {n} not applied")),
            Ok(_) => Err(format!("delta {n}: re-plans did not drain")),
            Err(e) => Err(e.to_string()),
        });
        log.push(DeltaLog {
            due: d.at,
            applied,
            done,
        });
    }
    log
}

/// Checks every job carries its cluster's final epoch and is fresh.
fn check_epochs(doc: &str, epochs: &[u64], out: &mut Outcome) {
    let Ok(Json::Arr(items)) = Json::parse(doc) else {
        out.phase("epochs")
            .record(Err("jobs document is not a JSON array".into()));
        return;
    };
    for item in &items {
        let cluster = match item.get("cluster") {
            Some(Json::Str(c)) => c.trim_start_matches('c').parse::<usize>().ok(),
            _ => None,
        };
        let epoch = match item.get("epoch") {
            Some(Json::Num(e)) => Some(*e as u64),
            _ => None,
        };
        let verdict = match (cluster, epoch) {
            (Some(c), Some(e)) if c < epochs.len() && epochs[c] == e => Ok(()),
            _ => Err(format!(
                "job not at its cluster's final epoch: {}",
                item.render()
            )),
        };
        out.phase("epochs").record(verdict);
    }
    if items.len() != JOBS {
        out.phase("epochs")
            .record(Err(format!("{} jobs listed, want {JOBS}", items.len())));
    }
}

/// Reopens the directory `RECOVERIES` times; each recovered table must
/// render byte-equal to `before`. Returns the reopen times.
fn recover(dir: &Path, before: &str, out: &mut Outcome) -> Vec<f64> {
    let mut times = Vec::new();
    for _ in 0..RECOVERIES {
        let t0 = Instant::now();
        match FleetController::open(config(dir)) {
            Ok(fleet) => {
                let drained = plan_all(&fleet);
                times.push(secs(t0));
                let after = fleet.jobs_doc();
                out.phase("recover").record(if !drained {
                    Err("recovered re-plans did not drain".into())
                } else if after != before {
                    Err("recovered jobs document differs from the pre-close one".into())
                } else {
                    Ok(())
                });
                fleet.shutdown();
            }
            Err(e) => out.phase("recover").record(Err(e.to_string())),
        }
    }
    times
}

/// Nominal plan quality of each distinct specification (planned in
/// process, outside the timed phases).
fn plan_quality(jobs: &[JobSpec], out: &mut Outcome) {
    let mut seen: BTreeMap<String, f64> = BTreeMap::new();
    for job in jobs {
        let key = job.request.canonical_key();
        if seen.contains_key(&key) {
            continue;
        }
        match espresso::decide(&job.request) {
            Ok(d) => {
                seen.insert(key, crate::baseline_ratio(&d.job, d.report.iteration_time));
            }
            Err(e) => out.phase("plan-quality").record(Err(e.to_string())),
        }
    }
    record_plan_quality(out, &seen.into_values().collect::<Vec<_>>());
}

fn metric_entry(fleet: &FleetController, name: &str) -> f64 {
    fleet
        .metric_entries()
        .into_iter()
        .find(|(n, _)| n == name)
        .map_or(0.0, |(_, v)| v)
}

/// Untraced run: end-to-end metrics.
pub fn run(args: &RunArgs, out: &mut Outcome) {
    let jobs = jobs(args.seed);
    plan_quality(&jobs, out);
    let mut off = Tracer::disabled();
    let window = args.seconds / ROUNDS as f64;
    let count = (RATE * window).round() as usize;
    let (mut setups, mut registers, mut recoveries, mut lat) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut round_p50 = Vec::new();
    for round in 0..ROUNDS {
        let dir = args.work.join(format!("fleet-{round}"));
        let Some(setup) = open_and_register(&dir, &jobs, &mut off, out) else {
            continue;
        };
        setups.push(setup.setup_s);
        registers.extend(&setup.register_s);
        let mut rng = Rng::new(
            args.seed
                .wrapping_mul(ROUNDS as u64)
                .wrapping_add(round as u64),
        );
        let draws = delta_stream(&mut rng, CLUSTERS, WORKERS, count, window, CHURN);
        let mut epochs = setup.epochs.clone();
        let log = stream(&setup.fleet, &draws, &mut epochs, &mut off, out);
        let round_lat: Vec<f64> = log.iter().map(|d| (d.done - d.due) * 1e3).collect();
        round_p50.push(median(&round_lat));
        lat.extend(round_lat);
        let before = setup.fleet.jobs_doc();
        check_epochs(&before, &epochs, out);
        // Two snapshots leave an empty journal suffix, so every round
        // reopens the same amount of state.
        for _ in 0..2 {
            out.phase("snapshot")
                .record(setup.fleet.snapshot_now().map_err(|e| e.to_string()));
        }
        setup.fleet.shutdown();
        drop(setup.fleet);
        recoveries.extend(recover(&dir, &before, out));
        let _ = std::fs::remove_dir_all(&dir);
        if round == 0 {
            // Later rounds repeat this work on fresh controllers; where
            // the allocator places their buffers varies run to run, so
            // the peak is read once the first round has done everything.
            out.metric("peak_rss_mb", crate::peak_rss_mb(), "MB");
        }
    }

    if let Some(s) = summarize(&lat) {
        out.metric("p50_ms", s.p50, "ms");
        out.metric("tail_ms", s.tail, "ms");
        out.note("latency_samples", s.count);
        out.note("tail_level", s.tail_level);
    }
    out.metric("setup_s", median(&setups), "s");
    out.metric(
        "ops_per_s",
        REGISTER_CHUNK as f64 / median(&registers),
        "1/s",
    );
    out.metric("fixed_work_s", median(&recoveries), "s");
    out.note("setup_samples", setups.len());
    out.note("recoveries", recoveries.len());
    out.note("round_p50_ms", format!("{round_p50:.3?}"));
}

/// Traced run: the stream twice on fresh controllers, spans off then on,
/// then forced snapshots and a cold replay of the robust selections the
/// stream needed.
pub fn run_traced(args: &RunArgs, out: &mut Outcome) {
    let jobs = jobs(args.seed);
    let count = (RATE * args.seconds / 2.0).round() as usize;
    let draws = delta_stream(
        &mut Rng::new(args.seed),
        CLUSTERS,
        WORKERS,
        count,
        args.seconds / 2.0,
        CHURN,
    );
    let mut p50 = Vec::new();
    let mut e2e_ms = 0.0;
    let mut t = Tracer::new();
    for (k, tracer) in [Tracer::disabled(), Tracer::new()].into_iter().enumerate() {
        t = tracer;
        let Some(setup) =
            open_and_register(&args.work.join(format!("fleet-t{k}")), &jobs, &mut t, out)
        else {
            return;
        };
        let fleet = &setup.fleet;
        let (seq0, snaps0) = (
            metric_entry(fleet, "fleet_seq"),
            metric_entry(fleet, "fleet_snapshots_taken"),
        );
        let mut epochs = setup.epochs.clone();
        let log = stream(fleet, &draws, &mut epochs, &mut t, out);
        check_epochs(&fleet.jobs_doc(), &epochs, out);
        let lat: Vec<f64> = log.iter().map(|d| (d.done - d.due) * 1e3).collect();
        p50.push(median(&lat));
        e2e_ms = lat.iter().sum();
        if k == 1 {
            let n = log.len().max(1) as f64;
            let records = metric_entry(fleet, "fleet_seq") - seq0;
            let bytes_per_record = metric_entry(fleet, "fleet_journal_bytes")
                / metric_entry(fleet, "fleet_journal_records").max(1.0);
            out.metric(
                "journal.bytes_per_delta",
                records * bytes_per_record / n,
                "bytes",
            );
            out.metric(
                "fleet.snapshots_per_delta",
                (metric_entry(fleet, "fleet_snapshots_taken") - snaps0) / n,
                "ratio",
            );
            out.metric(
                "fleet.batch_size_mean",
                metric_entry(fleet, "fleet_replan_batch_size_mean"),
                "jobs",
            );
            let (hits, misses) = (
                metric_entry(fleet, "fleet_warm_hits"),
                metric_entry(fleet, "fleet_warm_misses"),
            );
            out.metric("warm.hit_ratio", hits / (hits + misses).max(1.0), "ratio");
            let lag: Vec<f64> = log.iter().map(|d| (d.applied - d.due) * 1e3).collect();
            out.metric(
                "loadgen.lag_p90_ms",
                percentile(&lag, 0.9).unwrap_or(0.0),
                "ms",
            );
            for i in 0..SNAPSHOTS {
                let r = t.span("fleet.snapshot", i as u64, |_| fleet.snapshot_now());
                out.phase("snapshot").record(r.map_err(|e| e.to_string()));
            }
        }
        fleet.shutdown();
    }
    // The robust layer, cold: one selection per (specification, level)
    // the stream degraded a cluster to.
    let mut levels: Vec<f64> = draws
        .iter()
        .map(|d| d.inter_factor)
        .filter(|&f| f > 1.0)
        .collect();
    levels.sort_by(f64::total_cmp);
    levels.dedup();
    for (n, doc) in specs().iter().enumerate() {
        let req = DecisionRequest::parse(&doc.render()).expect("fleet specs parse");
        let job = espresso::config::build_job(&req.model, &req.gc, &req.system, None)
            .expect("fleet specs build");
        for &f in &levels {
            let sel = RobustSelector::new(job.clone(), ClusterHealth::inter_degraded(f));
            let r = t.span("robust.select", n as u64, |_| sel.select());
            out.phase("robust")
                .record(r.map(|_| ()).map_err(|e| e.to_string()));
        }
    }
    let spans = t.spans();
    let ms = |name: &str| crate::trace::durations_ms(spans, name);
    out.metric(
        "fleet.register_us",
        median(&ms("fleet.register")) * 1e3,
        "us",
    );
    out.metric(
        "fleet.apply_health_ms",
        median(&ms("fleet.apply_health")),
        "ms",
    );
    out.metric("fleet.replan_ms", median(&ms("fleet.replan")), "ms");
    out.metric("fleet.snapshot_ms", median(&ms("fleet.snapshot")), "ms");
    out.metric(
        "robust.select_ms",
        crate::stats::mean(&ms("robust.select")),
        "ms",
    );
    out.metric("trace.overhead_ratio", p50[1] / p50[0], "ratio");
    out.note("spans", spans.len());
    crate::ledger::note_ledger(out, spans, e2e_ms, &["fleet.apply_health", "fleet.replan"]);
    if let Err(e) = t.write(&args.spans_out) {
        eprintln!("perfbench: writing spans: {e}");
    }
}
