//! `paper-cold`: the 36 paper configurations, each sent once as a
//! never-seen `POST /decide` to a fresh in-process server by one
//! closed-loop client. The planner does almost all the work.

use std::time::{Duration, Instant};

use espresso::EvalPool;
use espresso_serve::client::Connection;
use espresso_serve::{Server, ShardedLru};
use std::path::{Path, PathBuf};

use crate::corpus::{paper_corpus, request_defaults, Spec};
use crate::gen::{respell, Rng};
use crate::pipeline::{http_bytes, replay, Replayed};
use crate::stats::{median, summarize};
use crate::trace::Tracer;
use crate::{record_plan_quality, secs, Outcome, RunArgs};

/// Fresh servers started to time set-up.
const SETUPS: usize = 25;
/// Client timeout: a single cold paper-scale plan takes seconds.
const TIMEOUT: Duration = Duration::from_secs(120);
/// Repeats of one full simulation per configuration.
const SIM_REPEATS: usize = 5;

/// One pass: every configuration once, in a seeded order and spelling.
fn pass_order(rng: &mut Rng, corpus: &[Spec]) -> Vec<(usize, String)> {
    let defaults = request_defaults();
    let mut order: Vec<usize> = (0..corpus.len()).collect();
    rng.shuffle(&mut order);
    order
        .into_iter()
        .map(|i| (i, respell(rng, &corpus[i].doc, &defaults)))
        .collect()
}

struct Pass {
    /// (config index, latency ms, status, body) in send order.
    answers: Vec<(usize, f64, u16, Vec<u8>)>,
    wall_s: f64,
}

/// A fresh server and connection, with the time they took.
fn start(out: &mut Outcome) -> Option<(Server, Connection, f64)> {
    let t0 = Instant::now();
    let (server, conn) = crate::start_server(TIMEOUT, out)?;
    let took = secs(t0);
    out.phase("setup").record(Ok(()));
    Some((server, conn, took))
}

fn send_pass(conn: &mut Connection, order: &[(usize, String)], out: &mut Outcome) -> Pass {
    let t0 = Instant::now();
    let mut answers = Vec::with_capacity(order.len());
    for (i, body) in order {
        let t = Instant::now();
        match conn.request("POST", "/decide", body.as_bytes()) {
            Ok(resp) => answers.push((*i, t.elapsed().as_secs_f64() * 1e3, resp.status, resp.body)),
            Err(e) => {
                out.phase("decide").record(Err(format!("transport: {e}")));
                answers.push((*i, t.elapsed().as_secs_f64() * 1e3, 0, Vec::new()));
            }
        }
    }
    Pass {
        answers,
        wall_s: secs(t0),
    }
}

/// Where this executable's reference answers are kept: decisions are
/// deterministic, so the in-process references are computed by the
/// first run of a build and re-read by later runs of the same build.
fn reference_path(dir: &Path) -> Option<PathBuf> {
    let meta = std::fs::metadata(std::env::current_exe().ok()?).ok()?;
    let mtime = meta
        .modified()
        .ok()?
        .duration_since(std::time::UNIX_EPOCH)
        .ok()?;
    Some(dir.join(format!(
        "paper-cold-ref-{}-{}.tsv",
        meta.len(),
        mtime.as_nanos()
    )))
}

/// The reference answers of the whole corpus, from this build's cache
/// or computed (and cached) now.
fn references(
    corpus: &[Spec],
    dir: &Path,
    out: &mut Outcome,
) -> Vec<Result<(Vec<u8>, f64), String>> {
    let path = reference_path(dir);
    if let Some(text) = path.as_ref().and_then(|p| std::fs::read_to_string(p).ok()) {
        let parsed: Vec<(Vec<u8>, f64)> = text
            .lines()
            .filter_map(|line| {
                let (ratio, body) = line.split_once('\t')?;
                Some((
                    body.as_bytes().to_vec(),
                    f64::from_bits(u64::from_str_radix(ratio, 16).ok()?),
                ))
            })
            .collect();
        if parsed.len() == corpus.len() {
            out.note("references", "cached");
            return parsed.into_iter().map(Ok).collect();
        }
    }
    out.note("references", "computed");
    let refs: Vec<_> = corpus.iter().map(crate::in_process_answer).collect();
    if let (Some(path), true) = (path, refs.iter().all(Result::is_ok)) {
        let text: String = refs
            .iter()
            .flatten()
            .map(|(body, ratio)| {
                format!(
                    "{:016x}\t{}\n",
                    ratio.to_bits(),
                    String::from_utf8_lossy(body)
                )
            })
            .collect();
        if let Err(e) = std::fs::write(&path, text) {
            eprintln!("perfbench: caching references: {e}");
        }
    }
    refs
}

/// Untraced run: end-to-end metrics.
pub fn run(args: &RunArgs, out: &mut Outcome) {
    let corpus = paper_corpus();
    let mut rng = Rng::new(args.seed);
    let mut setups = Vec::new();
    let mut live = None;
    for _ in 0..SETUPS {
        if let Some((server, conn, took)) = start(out) {
            setups.push(took);
            if let Some((old, _)) = live.replace((server, conn)) {
                Server::shutdown(old);
            }
        }
    }
    let Some(mut live) = live else { return };

    let t_measure = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    loop {
        let order = pass_order(&mut rng, &corpus);
        passes.push(send_pass(&mut live.1, &order, out));
        if secs(t_measure) >= args.seconds {
            break;
        }
        // Each pass gets a fresh server: the warm-start memo would answer
        // repeats.
        drop(live.1);
        live.0.shutdown();
        match start(out) {
            Some((server, conn, _)) => live = (server, conn),
            None => return,
        }
    }
    drop(live.1);
    live.0.shutdown();

    out.metric("peak_rss_mb", crate::peak_rss_mb(), "MB");
    // Correctness and plan quality, outside the timed passes.
    let t_check = Instant::now();
    let refs = references(&corpus, &args.cache, out);
    for pass in &passes {
        for (i, _, status, body) in &pass.answers {
            if *status == 0 {
                continue;
            }
            let verdict = match &refs[*i] {
                _ if *status != 200 => Err(format!("{}: status {status}", corpus[*i].label)),
                Ok((want, _)) if want == body => Ok(()),
                Ok(_) => Err(format!(
                    "{}: body differs from in-process decide",
                    corpus[*i].label
                )),
                Err(e) => Err(format!("{}: reference failed: {e}", corpus[*i].label)),
            };
            out.phase("decide").record(verdict);
        }
    }
    out.note("check_s", secs(t_check));
    let ratios: Vec<f64> = refs.iter().flatten().map(|(_, r)| *r).collect();

    let lat: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.answers.iter().map(|a| a.1))
        .collect();
    let total_s: f64 = passes.iter().map(|p| p.wall_s).sum();
    let corpus_s: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    if let Some(s) = summarize(&lat) {
        out.metric("p50_ms", s.p50, "ms");
        out.metric("tail_ms", s.tail, "ms");
        out.note("latency_samples", s.count);
        out.note("tail_level", s.tail_level);
    }
    out.metric("setup_s", median(&setups), "s");
    out.metric("ops_per_s", lat.len() as f64 / total_s, "1/s");
    out.metric("fixed_work_s", median(&corpus_s), "s");
    record_plan_quality(out, &ratios);
    out.note("setup_samples", setups.len());
    out.note("passes", passes.len());
}

/// A stage's span and the selector's report of it may differ by this
/// share of the request's planning time, or by [`STAGE_SLACK_S`],
/// whichever is larger: a span that timed another stage, or a part of
/// one, misses by far more in the configurations one stage dominates,
/// while a host stall of a few hundred milliseconds stays inside.
const STAGE_SHARE: f64 = 0.25;
/// Absolute slack of the stage cross-check, seconds.
const STAGE_SLACK_S: f64 = 0.5;

/// Traced run: one untraced server pass for the server's answers, then
/// each request replayed from the benchmark's code twice, spans off and
/// on. Both replays must reproduce the server's body; the untraced one
/// plans through `Espresso::select_strategy_with`, whose `Report` stage
/// seconds cross-check the traced stage spans.
pub fn run_traced(args: &RunArgs, out: &mut Outcome) {
    let corpus = paper_corpus();
    let mut rng = Rng::new(args.seed);
    let Some((server, mut conn, _)) = start(out) else {
        return;
    };
    let order = pass_order(&mut rng, &corpus);
    let pass = send_pass(&mut conn, &order, out);
    drop(conn);
    server.shutdown();

    let pool = EvalPool::from_env();
    let (cache_off, cache_on) = (ShardedLru::new(1024, 8), ShardedLru::new(1024, 8));
    let (mut off, mut t) = (Tracer::disabled(), Tracer::new());
    let mut untraced_ms = 0.0;
    let mut stage_ratios = Vec::new();
    let mut replayed = Vec::new();
    for (n, (i, body)) in order.iter().enumerate() {
        let label = &corpus[*i].label;
        let server_body = pass.answers[n].3.as_slice();
        let same = |r: &Result<Replayed, String>, how: &str| match r {
            Ok(rep) if rep.body.as_slice() == server_body => Ok(()),
            Ok(_) => Err(format!(
                "{label}: {how} replay differs from the server's answer"
            )),
            Err(e) => Err(format!("{label}: {e}")),
        };
        let wire = http_bytes(body);
        let t0 = Instant::now();
        let plain = replay(&mut off, n as u64, &wire, &cache_off, &pool);
        untraced_ms += secs(t0) * 1e3;
        out.phase("replay").record(same(&plain, "untraced"));
        let r = replay(&mut t, n as u64, &wire, &cache_on, &pool);
        out.phase("replay").record(same(&r, "traced"));
        let Ok(rep) = r else { continue };
        if let Some(report) = plain.ok().and_then(|p| p.plan).map(|p| p.report) {
            let stages = [
                ("gpu.alg1", report.gpu_decision_seconds),
                ("offload.alg2", report.offload_seconds),
                ("refine.backfill", report.backfill_seconds),
            ]
            .map(|(stage, want)| {
                let got: f64 = t
                    .spans()
                    .iter()
                    .filter(|s| s.request == n as u64 && s.name == stage)
                    .map(|s| s.duration() as f64 / 1e9)
                    .sum();
                (stage, got, want)
            });
            let span_total: f64 = stages.iter().map(|s| s.1).sum();
            let report_total: f64 = stages.iter().map(|s| s.2).sum();
            let slack = STAGE_SLACK_S.max(STAGE_SHARE * span_total.max(report_total));
            let verdict = stages.iter().try_for_each(|&(stage, got, want)| {
                stage_ratios.push(got / want.max(1e-9));
                if (got - want).abs() > slack {
                    Err(format!(
                        "{label}: span {stage} took {got:.3} s, the selector's report {want:.3} s"
                    ))
                } else {
                    Ok(())
                }
            });
            out.phase("stage-times").record(verdict);
        }
        if let Some(plan) = &rep.plan {
            for _ in 0..SIM_REPEATS {
                t.span("sim.full", n as u64, |_| {
                    std::hint::black_box(plan.sim.iteration_time(&plan.strategy))
                });
            }
        }
        replayed.push((n, rep));
    }
    crate::ledger::decision_layers(out, &t, &replayed, None, |n| corpus[order[n].0].model);
    let spans = t.spans();
    let request_ms: f64 = spans
        .iter()
        .filter(|s| s.name == "request")
        .map(|s| s.duration() as f64 / 1e6)
        .sum();
    out.metric("trace.overhead_ratio", request_ms / untraced_ms, "ratio");
    out.note(
        "stage_span_over_report_p50",
        crate::stats::median(&stage_ratios),
    );
    out.note("spans", spans.len());
    crate::ledger::note_ledger(
        out,
        spans,
        request_ms,
        &[
            "http.parse",
            "json.parse",
            "service.canonical_key",
            "cache.get",
            "planner",
            "service.encode",
            "cache.insert",
        ],
    );
    if let Err(e) = t.write(&args.spans_out) {
        eprintln!("perfbench: writing spans: {e}");
    }
}
