//! `train-churn`: a 64-worker `TrainingRuntime` (8 × 8, RandomK 1%)
//! under a seeded crash / re-join plan, checkpointing to a fresh
//! directory. The only workload that runs the GC kernels, error
//! feedback, the MLP and checkpoint I/O; the planner runs only when
//! membership changes.

use std::path::Path;
use std::time::Instant;

use espresso::config::build_job;
use espresso::{replan_with_context, DecisionRequest, Espresso, ReplanContext, Strategy};
use espresso_cluster::Membership;
use espresso_gc::aggregate::synchronize_masked;
use espresso_gc::{Compressor, ErrorFeedback};
use espresso_sim::{Job, SimConfig, Simulator};
use espresso_training::faults::{Crash, Rejoin};
use espresso_training::{
    CheckpointStore, Dataset, DistributedTrainer, Mlp, RuntimeConfig, RuntimeReport, SyncMode,
    TrainFaultPlan, TrainLog, TrainerState, TrainingRuntime,
};

use crate::corpus::request_doc;
use crate::gen::{churn_events, Rng};
use crate::stats::{mean, median, summarize};
use crate::trace::Tracer;
use crate::{record_plan_quality, secs, Outcome, RunArgs};

/// Machines of the modeled cluster.
const MACHINES: usize = 8;
/// Ranks per machine.
const PER_MACHINE: usize = 8;
/// Training steps per round.
const STEPS: usize = 250;
/// Steps between checkpoints.
const CHECKPOINT_EVERY: usize = 50;
/// Steps between evaluations.
const EVAL_EVERY: usize = 50;
/// Synthetic samples (three quarters train, sharded over the ranks).
const SAMPLES: usize = 4096;
/// Input features and classes of the substrate MLP.
const DIMS: usize = 8;
const CLASSES: usize = 3;
/// Measured rounds per second of `--seconds` (a round takes about half
/// a second on a 2-core host). A fixed count keeps the tail level fixed.
const ROUNDS_PER_SECOND: f64 = 2.0;
/// Replays per tracer state in a traced run.
const REPLAYS: usize = 3;

/// Everything one round is built from; a pure function of the seed.
struct Inputs {
    job: Job,
    plan: TrainFaultPlan,
    data: Dataset,
    eval: Dataset,
    model_seed: u64,
}

/// The modeled job: LSTM on 8 × 8 NVLink + 100G with RandomK 1%.
fn modeled_job() -> Job {
    let doc = request_doc(
        "LSTM",
        r#"{"RandomK":{"density":0.01}}"#,
        MACHINES,
        PER_MACHINE,
        "NvLink",
        100.0,
    );
    let req = DecisionRequest::parse(&doc.render()).expect("the modeled job parses");
    build_job(&req.model, &req.gc, &req.system, None).expect("the modeled job builds")
}

/// The seeded crash / re-join plan (no slowdowns, degradations or
/// dropped pushes: those would move the run into the FP32 fallback or
/// robust planning for a seed-dependent share of its steps).
pub fn fault_plan(seed: u64) -> TrainFaultPlan {
    let events = churn_events(
        &mut Rng::new(seed ^ 0x0063_6875_726e),
        MACHINES,
        PER_MACHINE,
        STEPS,
    );
    TrainFaultPlan {
        seed,
        crashes: events
            .iter()
            .filter(|e| !e.rejoin)
            .map(|e| Crash {
                step: e.step,
                worker: e.worker,
            })
            .collect(),
        rejoins: events
            .iter()
            .filter(|e| e.rejoin)
            .map(|e| Rejoin {
                step: e.step,
                worker: e.worker,
            })
            .collect(),
        ..TrainFaultPlan::default()
    }
}

fn inputs(seed: u64) -> Inputs {
    let (data, eval) = Dataset::blobs(SAMPLES, DIMS, CLASSES, 0.2, seed).split(0.25);
    Inputs {
        job: modeled_job(),
        plan: fault_plan(seed),
        data,
        eval,
        model_seed: seed ^ 0x006d_6f64_656c,
    }
}

fn config(inp: &Inputs) -> RuntimeConfig {
    let mut cfg = RuntimeConfig::for_job(inp.job.clone(), DIMS, CLASSES);
    cfg.steps = STEPS;
    cfg.eval_every = EVAL_EVERY;
    cfg.checkpoint_every = Some(CHECKPOINT_EVERY);
    cfg.model_seed = inp.model_seed;
    cfg.faults = inp.plan.clone();
    cfg
}

/// A runtime on a fresh checkpoint directory, with the time taken to
/// build its inputs and itself.
fn build(seed: u64, dir: &Path) -> Result<(Inputs, TrainingRuntime, f64), String> {
    let _ = std::fs::remove_dir_all(dir);
    let t0 = Instant::now();
    let inp = inputs(seed);
    let cfg = config(&inp);
    cfg.faults
        .validate(cfg.workers)
        .map_err(|e| e.to_string())?;
    let store = CheckpointStore::new(dir).map_err(|e| e.to_string())?;
    let runtime = TrainingRuntime::new(cfg).with_store(store);
    Ok((inp, runtime, secs(t0)))
}

/// Reopens `dir` as a restarted process would and resumes: the final
/// checkpoint covers every step, so this loads it, re-derives the
/// strategy and stops. Returns the time taken and the resumed report.
fn resume(inp: &Inputs, dir: &Path) -> Result<(f64, RuntimeReport), String> {
    let t0 = Instant::now();
    let mut cfg = config(inp);
    cfg.resume = true;
    let store = CheckpointStore::new(dir).map_err(|e| e.to_string())?;
    let report = TrainingRuntime::new(cfg)
        .with_store(store)
        .run(&inp.data, &inp.eval)
        .map_err(|e| e.to_string())?;
    Ok((secs(t0), report))
}

/// Untraced run: rounds of fresh runtimes, each trained, checked and
/// resumed, [`ROUNDS_PER_SECOND`] per second of the window after a
/// warm-up round.
pub fn run(args: &RunArgs, out: &mut Outcome) {
    let (mut setups, mut runs, mut resumes) = (Vec::new(), Vec::new(), Vec::new());
    let mut reference: Option<u64> = None;
    let measured = ((args.seconds * ROUNDS_PER_SECOND).round() as usize).max(1);
    let mut round = 0usize;
    while round <= measured {
        let dir = args.work.join(format!("train-{round}"));
        let (inp, mut runtime, setup_s) = match build(args.seed, &dir) {
            Ok(b) => b,
            Err(e) => {
                out.phase("setup").record(Err(e));
                break;
            }
        };
        out.phase("setup").record(Ok(()));
        let t0 = Instant::now();
        let report = runtime.run(&inp.data, &inp.eval);
        let run_s = secs(t0);
        let report = match report {
            Ok(r) => r,
            Err(e) => {
                out.phase("train").record(Err(e.to_string()));
                break;
            }
        };
        let fingerprint = report.state_fingerprint();
        let want = *reference.get_or_insert(fingerprint);
        out.phase("train")
            .record(if !report.completed || report.steps_run != STEPS {
                Err(format!(
                    "round {round} ran {} of {STEPS} steps",
                    report.steps_run
                ))
            } else if fingerprint != want {
                Err(format!(
                    "round {round}: state fingerprint differs from round 0's"
                ))
            } else {
                Ok(())
            });
        let resumed = resume(&inp, &dir);
        out.phase("resume").record(match &resumed {
            Ok((_, r)) if r.state_fingerprint() == fingerprint => Ok(()),
            Ok(_) => Err(format!(
                "round {round}: resumed state differs from the trained one"
            )),
            Err(e) => Err(e.clone()),
        });
        let _ = std::fs::remove_dir_all(&dir);
        if round == 0 {
            out.metric("peak_rss_mb", crate::peak_rss_mb(), "MB");
        } else {
            setups.push(setup_s);
            runs.push(run_s);
            if let Ok((s, _)) = resumed {
                resumes.push(s);
            }
        }
        round += 1;
    }

    let step_ms: Vec<f64> = runs.iter().map(|s| s * 1e3 / STEPS as f64).collect();
    if let Some(s) = summarize(&step_ms) {
        out.metric("p50_ms", s.p50, "ms");
        out.metric("tail_ms", s.tail, "ms");
        out.note("latency_samples", s.count);
        out.note("tail_level", s.tail_level);
    }
    out.metric("setup_s", median(&setups), "s");
    out.metric(
        "ops_per_s",
        (STEPS * runs.len()) as f64 / runs.iter().sum::<f64>(),
        "1/s",
    );
    out.metric("fixed_work_s", median(&resumes), "s");
    let job = modeled_job();
    let (_, report) = Espresso::new(job.clone()).select_strategy();
    record_plan_quality(out, &[crate::baseline_ratio(&job, report.iteration_time)]);
    out.note("rounds", round);
    out.note("steps_per_round", STEPS);
}

/// What a replay ends with, for comparison with the runtime's report.
struct Replayed {
    params: Vec<Vec<f32>>,
    ef: Vec<Vec<ErrorFeedback>>,
    wall_s: f64,
    /// Dense gradient bytes the synchronizations covered.
    sync_bytes: f64,
}

/// One data-parallel step from the layers' public calls: every rank's
/// gradients (`Mlp::loss_and_grads`), then each tensor synchronized with
/// error feedback (`synchronize_masked`), then the optimizer update —
/// what `DistributedTrainer::step` does, with the trainer holding the
/// error-feedback grid and optimizer between steps.
fn step_parts(
    t: &mut Tracer,
    step: usize,
    model: &mut Mlp,
    trainer: &mut DistributedTrainer,
    shards: &[Dataset],
    compressor: &dyn Compressor,
    batch: usize,
) -> f32 {
    let mut ef = trainer.ef_states().to_vec();
    let mut opt = trainer.optimizer().clone();
    let loss = t.span("training.step", step as u64, |t| {
        let (loss, grads) = t.span("mlp.grads", step as u64, |_| {
            let mut loss = 0.0f32;
            let grads: Vec<Vec<Vec<f32>>> = shards
                .iter()
                .enumerate()
                .map(|(w, shard)| {
                    let picks: Vec<usize> = (0..batch)
                        .map(|b| (step * batch + b + w * 13) % shard.len())
                        .collect();
                    let (l, g) = model.loss_and_grads(shard, &picks);
                    loss += l / shards.len() as f32;
                    g
                })
                .collect();
            (loss, grads)
        });
        let synced: Vec<Vec<f32>> = t.span("gc.sync", step as u64, |_| {
            (0..model.num_tensors())
                .map(|k| {
                    let per_worker: Vec<Vec<f32>> = grads.iter().map(|g| g[k].clone()).collect();
                    let mut taken: Vec<ErrorFeedback> =
                        ef.iter_mut().map(|w| std::mem::take(&mut w[k])).collect();
                    let synced = synchronize_masked(
                        compressor,
                        &per_worker,
                        &mut taken,
                        step as u64,
                        k as u64,
                        None,
                    );
                    for (w, state) in taken.into_iter().enumerate() {
                        ef[w][k] = state;
                    }
                    synced
                })
                .collect()
        });
        t.span("optimizer.apply", step as u64, |_| {
            let deltas = opt.step(&synced);
            model.apply(&deltas, 1.0);
        });
        loss
    });
    trainer.restore_ef(ef);
    trainer.set_optimizer(opt);
    loss
}

/// The runtime's loop replayed from the layers' public calls, one span
/// per call: initial plan, membership changes with their re-plans, the
/// step (gradients, synchronization, update), evaluations and
/// checkpoints. It must end where `TrainingRuntime::run` ends.
fn replay(inp: &Inputs, dir: &Path, t: &mut Tracer) -> Result<Replayed, String> {
    let _ = std::fs::remove_dir_all(dir);
    let cfg = config(inp);
    let SyncMode::Compressed(algo) = cfg.mode else {
        return Err("the replay covers compressed runs only".into());
    };
    let compressor = algo.build();
    let store = CheckpointStore::new(dir).map_err(|e| e.to_string())?;
    let t0 = Instant::now();
    let mut model = Mlp::new(DIMS, cfg.hidden, CLASSES, cfg.model_seed);
    let mut membership = Membership::new(cfg.workers);
    let mut trainer = DistributedTrainer::with_optimizer(
        cfg.workers,
        cfg.batch_per_worker,
        cfg.optimizer.clone(),
        cfg.mode,
    );
    trainer.begin(&model);
    let mut shards = inp.data.shards(cfg.workers);
    let mut ctx = ReplanContext::new();
    let mut current: Strategy = t.span("runtime.plan", 0, |_| {
        Espresso::new(cfg.job.clone()).select_strategy().0
    });
    let predict = |t: &mut Tracer, step: usize, job: Job, s: &Strategy| {
        t.span("runtime.predict", step as u64, |_| {
            Simulator::new(job, SimConfig::default()).iteration_time(s)
        })
    };
    predict(t, 0, cfg.job.clone(), &current);
    let mut log = TrainLog::default();
    let mut sync_bytes = 0.0;
    let tensor_floats: usize = (0..model.num_tensors()).map(|k| model.tensor_len(k)).sum();
    for step in 0..cfg.steps {
        let mut changed = false;
        for worker in cfg.faults.crashes_at(step) {
            if !membership.is_alive(worker) || membership.alive_count() == 1 {
                continue;
            }
            let local = membership.alive().iter().position(|&a| a == worker);
            membership.lose_worker(worker).map_err(|e| e.to_string())?;
            trainer.remove_worker(local.ok_or("alive rank without a local index")?);
            changed = true;
        }
        for worker in cfg.faults.rejoins_at(step) {
            if membership.is_alive(worker) {
                continue;
            }
            membership
                .rejoin_worker(worker)
                .map_err(|e| e.to_string())?;
            let local = membership.alive().iter().position(|&a| a == worker);
            trainer.insert_worker(local.ok_or("re-joined rank without a local index")?);
            changed = true;
        }
        if changed {
            shards = inp.data.shards(trainer.workers());
            let cluster = membership
                .effective_cluster(&cfg.job.cluster)
                .map_err(|e| e.to_string())?;
            let job = Job::new(cfg.job.model.clone(), cluster, cfg.job.algo);
            let r = t.span("runtime.replan", step as u64, |_| {
                replan_with_context(&mut ctx, &job, membership.health(), &current)
            });
            let r = r.map_err(|e| e.to_string())?;
            if r.changed {
                current = r.strategy;
            }
            predict(t, step, job, &current);
        }
        let loss = step_parts(
            t,
            step,
            &mut model,
            &mut trainer,
            &shards,
            compressor.as_ref(),
            cfg.batch_per_worker,
        );
        sync_bytes += (trainer.workers() * tensor_floats * 4) as f64;
        if (step + 1) % cfg.eval_every == 0 || step + 1 == cfg.steps {
            log.loss.push(loss);
            let acc = t.span("mlp.eval", step as u64, |_| model.accuracy(&inp.eval));
            log.accuracy.push(acc);
        }
        if (step + 1) % CHECKPOINT_EVERY == 0 {
            let state = TrainerState {
                step: step + 1,
                dims: DIMS,
                hidden: cfg.hidden,
                classes: CLASSES,
                params: model.params().to_vec(),
                optimizer: trainer.optimizer().clone(),
                ef: trainer.ef_states().to_vec(),
                mode: cfg.mode,
                log: log.clone(),
                membership: membership.clone(),
                monitor: None,
                fallback_active: false,
                healthy_streak: 0,
                redecide_attempted: false,
                fallback_trips: 0,
                replans: 0,
                controller: None,
            };
            t.span("checkpoint.save", step as u64, |_| store.save(&state))
                .map_err(|e| e.to_string())?;
        }
    }
    let wall_s = secs(t0);
    let _ = std::fs::remove_dir_all(dir);
    Ok(Replayed {
        params: model.params().to_vec(),
        ef: trainer.ef_states().to_vec(),
        wall_s,
        sync_bytes,
    })
}

/// Traced run: one runtime run as the reference, then the runtime's loop
/// replayed from the layers' calls with spans off and on, alternately;
/// each replay must end with the runtime's weights and error feedback.
pub fn run_traced(args: &RunArgs, out: &mut Outcome) {
    let dir = args.work.join("train-ref");
    let reference = build(args.seed, &dir).and_then(|(inp, mut rt, _)| {
        rt.run(&inp.data, &inp.eval)
            .map(|r| (inp, r))
            .map_err(|e| e.to_string())
    });
    let (inp, report) = match reference {
        Ok(r) => r,
        Err(e) => {
            out.phase("train").record(Err(e));
            return;
        }
    };
    out.phase("train").record(Ok(()));
    let _ = std::fs::remove_dir_all(&dir);

    let mut traced = Tracer::new();
    let mut off = Tracer::disabled();
    let (mut walls_off, mut walls_on, mut sync_bytes) = (Vec::new(), Vec::new(), 0.0);
    for k in 0..2 * REPLAYS {
        let on = k % 2 == 1;
        let t = if on { &mut traced } else { &mut off };
        let r = replay(&inp, &args.work.join(format!("train-replay-{k}")), t);
        out.phase("replay").record(match &r {
            Ok(r) if r.params == report.final_state.params && r.ef == report.final_state.ef => {
                Ok(())
            }
            Ok(_) => Err(format!("replay {k} does not end where the runtime ended")),
            Err(e) => Err(e.clone()),
        });
        if let Ok(r) = r {
            if on {
                walls_on.push(r.wall_s);
                sync_bytes += r.sync_bytes;
            } else {
                walls_off.push(r.wall_s);
            }
        }
    }
    let spans = traced.spans();
    let ms = |name: &str| crate::trace::durations_ms(spans, name);
    out.metric("training.step_ms", median(&ms("training.step")), "ms");
    out.metric("mlp.grads_ms", median(&ms("mlp.grads")), "ms");
    let sync = ms("gc.sync");
    out.metric("gc.sync_ms", median(&sync), "ms");
    out.metric(
        "gc.sync_mb_per_s",
        sync_bytes / 1e6 / (sync.iter().sum::<f64>() / 1e3),
        "MB/s",
    );
    out.metric("checkpoint.save_ms", median(&ms("checkpoint.save")), "ms");
    out.metric("runtime.replan_ms", mean(&ms("runtime.replan")), "ms");
    out.metric(
        "trace.overhead_ratio",
        median(&walls_on) / median(&walls_off),
        "ratio",
    );
    out.note("spans", spans.len());
    crate::ledger::note_ledger(
        out,
        spans,
        walls_on.iter().sum::<f64>() * 1e3,
        &[
            "runtime.plan",
            "runtime.predict",
            "runtime.replan",
            "training.step",
            "mlp.eval",
            "checkpoint.save",
        ],
    );
    if let Err(e) = traced.write(&args.spans_out) {
        eprintln!("perfbench: writing spans: {e}");
    }
}
