//! `hot-mix`: two keep-alive closed-loop clients drawing from a Zipf
//! over a primed pool of cheap specifications, each request re-spelled,
//! with a thin trickle of never-seen specifications. The serve path
//! does the work; the planner does little.

use std::sync::Arc;
use std::time::{Duration, Instant};

use espresso::{DecisionRequest, EvalPool};
use espresso_json::Json;
use espresso_serve::client::Connection;
use espresso_serve::{fnv1a64, Server, ShardedLru};

use crate::corpus::{cheap_pool, fresh_cheap, request_defaults, Spec};
use crate::gen::{respell, Rng, Zipf};
use crate::pipeline::{http_bytes, replay};
use crate::stats::{median, summarize};
use crate::trace::Tracer;
use crate::{in_process_answer, record_plan_quality, secs, Outcome, RunArgs};

/// Distinct primed specifications (under the server's 1024-entry cache).
const POOL: usize = 256;
/// Zipf exponent of the draw over the pool.
const ZIPF_S: f64 = 1.1;
/// One request in this many is a never-seen specification.
const TRICKLE_EVERY: u64 = 500;
/// Keep-alive client connections.
const CLIENTS: u64 = 2;
/// Rounds per run, each on a fresh primed server with its share of the
/// window, so set-up samples are spread over the run.
const ROUNDS: usize = 5;
/// Unmeasured warm-up before the window opens.
const WARMUP: Duration = Duration::from_millis(300);
/// Latency samples reserved per client up front, so the sample buffers
/// grow page by page instead of doubling (peak memory tracks the load).
const SAMPLE_CAPACITY: usize = 4_000_000;
/// Requests replayed in the traced run (bounds the span file).
const REPLAYS: usize = 20_000;
const TIMEOUT: Duration = Duration::from_secs(30);

/// The request generator of one client.
struct Draws {
    rng: Rng,
    zipf: Zipf,
    rank_to_spec: Arc<Vec<usize>>,
    defaults: Vec<(&'static str, Json)>,
    sent: u64,
    fresh_base: usize,
}

/// What to send next: a pool index or a fresh specification.
enum Draw {
    Pool(usize),
    Fresh(Spec),
}

impl Draws {
    /// Draws of stream `stream` (one per client and round).
    fn new(seed: u64, stream: u64, rank_to_spec: Arc<Vec<usize>>) -> Self {
        Draws {
            rng: Rng::new(seed.wrapping_mul(31).wrapping_add(stream + 1)),
            zipf: Zipf::new(rank_to_spec.len(), ZIPF_S),
            rank_to_spec,
            defaults: request_defaults(),
            sent: 0,
            fresh_base: (stream as usize + 1) * 1_000_000,
        }
    }

    fn next(&mut self, pool: &[Spec]) -> (Draw, String) {
        self.sent += 1;
        if self.sent.is_multiple_of(TRICKLE_EVERY) {
            let spec = fresh_cheap(self.fresh_base + (self.sent / TRICKLE_EVERY) as usize);
            let text = respell(&mut self.rng, &spec.doc, &self.defaults);
            return (Draw::Fresh(spec), text);
        }
        let i = self.rank_to_spec[self.zipf.sample(&mut self.rng)];
        let text = respell(&mut self.rng, &pool[i].doc, &self.defaults);
        (Draw::Pool(i), text)
    }
}

/// A server primed with every pool specification.
struct Primed {
    server: Server,
    bodies: Vec<Vec<u8>>,
    prime_s: f64,
    setup_s: f64,
}

fn prime(pool: &[Spec], out: &mut Outcome) -> Option<Primed> {
    let t0 = Instant::now();
    let (server, mut conn) = crate::start_server(TIMEOUT, out)?;
    let t1 = Instant::now();
    let mut bodies = Vec::with_capacity(pool.len());
    for spec in pool {
        let verdict = match conn.request("POST", "/decide", spec.doc.render().as_bytes()) {
            Ok(r) if r.status == 200 => {
                bodies.push(r.body);
                Ok(())
            }
            Ok(r) => Err(format!("{}: status {}", spec.label, r.status)),
            Err(e) => Err(format!("{}: {e}", spec.label)),
        };
        if verdict.is_err() {
            bodies.push(Vec::new());
        }
        out.phase("prime").record(verdict);
    }
    let prime_s = secs(t1);
    out.phase("setup").record(Ok(()));
    Some(Primed {
        server,
        bodies,
        prime_s,
        setup_s: secs(t0),
    })
}

/// One client's record: latencies (ms, in the window) and fresh answers.
#[derive(Default)]
struct ClientLog {
    lat_ms: Vec<f64>,
    attempted: u64,
    failures: Vec<String>,
    fresh: Vec<(Spec, Vec<u8>)>,
}

fn drive(
    primed: &Primed,
    pool: &Arc<Vec<Spec>>,
    rank_to_spec: &Arc<Vec<usize>>,
    seed: u64,
    round: u64,
    seconds: f64,
) -> Vec<ClientLog> {
    let addr = primed.server.addr();
    let bodies = &primed.bodies;
    let start = Instant::now();
    let open = start + WARMUP;
    let close = open + Duration::from_secs_f64(seconds);
    let logs = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let pool = Arc::clone(pool);
                let ranks = Arc::clone(rank_to_spec);
                s.spawn(move || {
                    let mut log = ClientLog {
                        lat_ms: Vec::with_capacity(SAMPLE_CAPACITY),
                        ..ClientLog::default()
                    };
                    let mut draws = Draws::new(seed, round * CLIENTS + c, ranks);
                    let mut conn = match Connection::open(addr, TIMEOUT) {
                        Ok(conn) => conn,
                        Err(e) => {
                            log.attempted += 1;
                            log.failures.push(format!("connect: {e}"));
                            return log;
                        }
                    };
                    loop {
                        let (draw, text) = draws.next(&pool);
                        let t = Instant::now();
                        if t >= close {
                            break;
                        }
                        let resp = conn.request("POST", "/decide", text.as_bytes());
                        let ms = t.elapsed().as_secs_f64() * 1e3;
                        log.attempted += 1;
                        if t >= open {
                            log.lat_ms.push(ms);
                        }
                        match (resp, draw) {
                            (Ok(r), Draw::Pool(i)) if r.status == 200 && r.body == bodies[i] => {}
                            (Ok(r), Draw::Fresh(spec)) if r.status == 200 => {
                                log.fresh.push((spec, r.body))
                            }
                            (Ok(r), _) => log
                                .failures
                                .push(format!("status {} or body mismatch", r.status)),
                            (Err(e), _) => {
                                log.failures.push(format!("transport: {e}"));
                                match Connection::open(addr, TIMEOUT) {
                                    Ok(c) => conn = c,
                                    Err(_) => break,
                                }
                            }
                        }
                    }
                    log
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_default())
            .collect::<Vec<_>>()
    });
    logs
}

fn tally(out: &mut Outcome, logs: &[ClientLog]) {
    for log in logs {
        let phase = out.phase("decide");
        for f in &log.failures {
            phase.record(Err(f.clone()));
        }
        for _ in 0..log.attempted.saturating_sub(log.failures.len() as u64) {
            phase.record(Ok(()));
        }
    }
    for log in logs {
        for (spec, body) in &log.fresh {
            let verdict = match in_process_answer(spec) {
                Ok((want, _)) if want == *body => Ok(()),
                Ok(_) => Err(format!(
                    "{}: body differs from in-process decide",
                    spec.label
                )),
                Err(e) => Err(e),
            };
            out.phase("fresh").record(verdict);
        }
    }
}

fn pool_setup(seed: u64) -> (Arc<Vec<Spec>>, Arc<Vec<usize>>) {
    let pool = Arc::new(cheap_pool(POOL));
    let mut ranks: Vec<usize> = (0..POOL).collect();
    Rng::new(seed).shuffle(&mut ranks);
    (pool, Arc::new(ranks))
}

/// Checks the primed bodies against in-process decisions and prices the
/// pool's plans against the baselines.
fn check_pool(out: &mut Outcome, pool: &[Spec], primed: &Primed) {
    let mut ratios = Vec::new();
    for (spec, body) in pool.iter().zip(&primed.bodies) {
        let verdict = match in_process_answer(spec) {
            Ok((want, ratio)) if want == *body => {
                ratios.push(ratio);
                Ok(())
            }
            Ok(_) => Err(format!(
                "{}: primed body differs from in-process decide",
                spec.label
            )),
            Err(e) => Err(e),
        };
        out.phase("prime-check").record(verdict);
    }
    record_plan_quality(out, &ratios);
}

/// Untraced run: end-to-end metrics.
pub fn run(args: &RunArgs, out: &mut Outcome) {
    let (pool, ranks) = pool_setup(args.seed);
    let window = args.seconds / ROUNDS as f64;
    let (mut setups, mut primes, mut lat, mut round_p50) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut first_bodies: Option<Vec<Vec<u8>>> = None;
    let mut fresh = 0;
    for round in 0..ROUNDS {
        let Some(primed) = prime(&pool, out) else {
            continue;
        };
        setups.push(primed.setup_s);
        primes.push(primed.prime_s);
        let logs = drive(&primed, &pool, &ranks, args.seed, round as u64, window);
        let round_lat: Vec<f64> = logs.iter().flat_map(|l| l.lat_ms.iter().copied()).collect();
        round_p50.push(median(&round_lat));
        lat.extend(round_lat);
        fresh += logs.iter().map(|l| l.fresh.len()).sum::<usize>();
        if round + 1 == ROUNDS {
            out.metric("peak_rss_mb", crate::peak_rss_mb(), "MB");
        }
        tally(out, &logs);
        match &first_bodies {
            None => {
                check_pool(out, &pool, &primed);
                first_bodies = Some(primed.bodies.clone());
            }
            Some(first) => out.phase("prime-check").record(if *first == primed.bodies {
                Ok(())
            } else {
                Err(format!("round {round}: primed bodies differ from round 0"))
            }),
        }
        primed.server.shutdown();
    }

    if let Some(s) = summarize(&lat) {
        out.metric("p50_ms", s.p50, "ms");
        out.metric("tail_ms", s.tail, "ms");
        out.note("latency_samples", s.count);
        out.note("tail_level", s.tail_level);
    }
    out.metric(
        "ops_per_s",
        lat.len() as f64 / (window * setups.len().max(1) as f64),
        "1/s",
    );
    out.metric("setup_s", median(&setups), "s");
    out.metric("fixed_work_s", median(&primes), "s");
    out.note("setup_samples", setups.len());
    out.note("round_p50_ms", format!("{round_p50:.4?}"));
    out.note("fresh_requests", fresh);
}

/// Traced run: an untraced HTTP window, then the same request mix
/// replayed through the layers twice, untraced and traced.
pub fn run_traced(args: &RunArgs, out: &mut Outcome) {
    let (pool, ranks) = pool_setup(args.seed);
    let Some(primed) = prime(&pool, out) else {
        return;
    };
    let logs = drive(&primed, &pool, &ranks, args.seed, 0, args.seconds / 2.0);
    let server_ms: Vec<f64> = logs.iter().flat_map(|l| l.lat_ms.iter().copied()).collect();
    tally(out, &logs);
    primed.server.shutdown();

    let mut draws = Draws::new(args.seed, 1000, Arc::clone(&ranks));
    let requests: Vec<(Draw, Vec<u8>)> = (0..REPLAYS)
        .map(|_| {
            let (d, text) = draws.next(&pool);
            (d, http_bytes(&text))
        })
        .collect();
    let primed_cache = || {
        let cache = ShardedLru::new(1024, 8);
        for (spec, body) in pool.iter().zip(&primed.bodies) {
            let req = DecisionRequest::parse(&spec.doc.render()).expect("pool specs parse");
            cache.insert(
                fnv1a64(req.canonical_key().as_bytes()),
                Arc::new(body.clone()),
            );
        }
        cache
    };
    let evals = EvalPool::from_env();
    let mut timings = Vec::new();
    let mut traced = Tracer::new();
    let mut replayed = Vec::new();
    for mut t in [Tracer::disabled(), Tracer::new()] {
        let cache = primed_cache();
        let t0 = Instant::now();
        let results: Vec<_> = requests
            .iter()
            .enumerate()
            .map(|(n, (_, wire))| replay(&mut t, n as u64, wire, &cache, &evals))
            .collect();
        timings.push(secs(t0));
        replayed = results.into_iter().enumerate().collect();
        traced = t;
    }
    for (n, r) in &replayed {
        let verdict = match (r, &requests[*n].0) {
            (Ok(rep), Draw::Pool(i)) if rep.body.as_slice() == primed.bodies[*i].as_slice() => {
                Ok(())
            }
            (Ok(rep), Draw::Fresh(spec)) => match in_process_answer(spec) {
                Ok((want, _)) if want == *rep.body => Ok(()),
                _ => Err(format!("{}: replay body differs", spec.label)),
            },
            (Ok(_), _) => Err("replay body differs from the primed body".into()),
            (Err(e), _) => Err(e.clone()),
        };
        out.phase("replay").record(verdict);
    }
    let replayed: Vec<_> = replayed
        .into_iter()
        .filter_map(|(n, r)| r.ok().map(|r| (n, r)))
        .collect();
    let model_of = |n: usize| match &requests.get(n).map(|r| &r.0) {
        Some(Draw::Pool(i)) => pool[*i].model,
        Some(Draw::Fresh(spec)) => spec.model,
        None => "",
    };
    crate::ledger::decision_layers(out, &traced, &replayed, Some(&server_ms), model_of);
    // The replayed requests never crossed HTTP: their end-to-end time is
    // taken at the window's median latency.
    let e2e_ms = median(&server_ms) * REPLAYS as f64;
    crate::ledger::note_ledger(out, traced.spans(), e2e_ms, &["request"]);
    out.metric("trace.overhead_ratio", timings[1] / timings[0], "ratio");
    out.note("replays", REPLAYS);
    out.note("spans", traced.spans().len());
    if let Err(e) = traced.write(&args.spans_out) {
        eprintln!("perfbench: writing spans: {e}");
    }
}
