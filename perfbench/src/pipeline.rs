//! The decision path replayed from the benchmark's own code, one layer
//! call per span: HTTP parse → request parse → canonical key → cache
//! lookup → planner stages → response encode → cache insert.

use espresso::config::build_job;
use espresso::decision::{gpu, offload, refine};
use espresso::{Decision, DecisionRequest, Espresso, EvalPool, PlannerMode, Report};
use espresso_json::Json;
use espresso_serve::http::{parse_request, Limits, Parsed};
use espresso_serve::{fnv1a64, ShardedLru};
use espresso_sim::Simulator;
use std::sync::Arc;

use crate::trace::Tracer;

/// Counts of one replayed cold plan.
#[derive(Debug, Clone)]
pub struct PlanCounts {
    /// Zoo model name of the planned job.
    pub model: String,
    /// Algorithm 1 simulations.
    pub gpu_sims: usize,
    /// Algorithm 2 combinations.
    pub combinations: usize,
    /// Backfill simulations.
    pub backfill_sims: usize,
    /// Tensors backfilled.
    pub backfilled: usize,
}

/// The outcome of one replayed request.
pub struct Replayed {
    /// The response body.
    pub body: Arc<Vec<u8>>,
    /// Whether the cache answered it.
    pub hit: bool,
    /// The plan, when it was planned cold.
    pub plan: Option<Plan>,
}

/// A cold plan of one replayed request.
pub struct Plan {
    /// Its counts.
    pub counts: PlanCounts,
    /// The simulator it was planned on.
    pub sim: Simulator,
    /// The selected strategy.
    pub strategy: espresso::Strategy,
    /// The selector's report; its stage seconds are measured only when
    /// the tracer is off (traced, the spans time the stages).
    pub report: Report,
}

/// The wire bytes a client sends for `POST /decide` with `body`.
pub fn http_bytes(body: &str) -> Vec<u8> {
    format!(
        "POST /decide HTTP/1.1\r\nHost: localhost\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Replays one request through the layers under span `request`.
///
/// # Errors
///
/// A description of the first layer that refused the request.
pub fn replay(
    t: &mut Tracer,
    id: u64,
    wire: &[u8],
    cache: &ShardedLru,
    pool: &EvalPool,
) -> Result<Replayed, String> {
    t.span("request", id, |t| {
        let request = t.span("http.parse", id, |_| {
            parse_request(wire, &Limits::default())
        });
        let request = match request {
            Ok(Parsed::Complete { request, .. }) => request,
            Ok(Parsed::Partial) => return Err("http: incomplete request".into()),
            Err(e) => return Err(format!("http: {}", e.message)),
        };
        let text = std::str::from_utf8(&request.body).map_err(|e| e.to_string())?;
        let req = t
            .span("json.parse", id, |_| DecisionRequest::parse(text))
            .map_err(|e| e.to_string())?;
        let key = t.span("service.canonical_key", id, |_| {
            fnv1a64(req.canonical_key().as_bytes())
        });
        if let Some(body) = t.span("cache.get", id, |_| cache.get(key)) {
            return Ok(Replayed {
                body,
                hit: true,
                plan: None,
            });
        }
        let (decision, counts, sim) = t.span("planner", id, |t| plan(t, id, &req, pool))?;
        let body = t.span("service.encode", id, |_| {
            Arc::new(Json::encode(&decision.response()).into_bytes())
        });
        t.span("cache.insert", id, |_| cache.insert(key, Arc::clone(&body)));
        Ok(Replayed {
            body,
            hit: false,
            plan: Some(Plan {
                counts,
                sim,
                strategy: decision.strategy,
                report: decision.report,
            }),
        })
    })
}

/// `Espresso::select_strategy` stage by stage, each stage in its own
/// span, with the pool the selector uses. With the tracer off the
/// selector itself makes the same three calls and times them, so an
/// untraced replay yields `Report` stage seconds to check the spans by.
fn plan(
    t: &mut Tracer,
    id: u64,
    req: &DecisionRequest,
    pool: &EvalPool,
) -> Result<(Decision, PlanCounts, Simulator), String> {
    if !req.health.is_nominal() || req.robust || req.faults.is_some() {
        return Err("the replay covers nominal requests only".into());
    }
    let job = build_job(&req.model, &req.gc, &req.system, None).map_err(|e| e.to_string())?;
    let esp = t.span("strategy.space", id, |_| Espresso::new(job.clone()));
    let sim = Simulator::new(job.clone(), *esp.config());
    if !t.enabled() {
        let (strategy, report) = esp.select_strategy_with(PlannerMode::Fast, pool);
        let counts = PlanCounts {
            model: job.model.name.clone(),
            gpu_sims: report.gpu_simulations,
            combinations: report.offload_combinations,
            backfill_sims: 0,
            backfilled: report.backfilled_tensors,
        };
        return Ok((decision(job, strategy, report), counts, sim));
    }
    let g = t.span("gpu.alg1", id, |_| {
        gpu::decide_fast(&sim, &esp.space().gpu_compressed(), pool)
    });
    let o = t.span("offload.alg2", id, |_| {
        offload::decide_fast(&sim, &g.strategy, esp.max_offload_combinations)
    });
    let r = t.span("refine.backfill", id, |_| {
        refine::cpu_backfill_fast(&sim, &o.strategy, &esp.space().compressed(), pool)
    });
    let counts = PlanCounts {
        model: job.model.name.clone(),
        gpu_sims: g.simulations,
        combinations: o.combinations,
        backfill_sims: r.simulations,
        backfilled: r.backfilled.len(),
    };
    // Stage seconds stay zero: the spans carry them, and the response
    // does not.
    let report = Report {
        iteration_time: r.iteration_time,
        gpu_stage_time: g.iteration_time,
        gpu_decision_seconds: 0.0,
        offload_seconds: 0.0,
        compressed_tensors: g.strategy.num_compressed(),
        offloaded_tensors: o.offloaded.len(),
        backfilled_tensors: r.backfilled.len(),
        backfill_seconds: 0.0,
        ruled_out_tensors: g.ruled_out.len(),
        gpu_simulations: g.simulations,
        offload_combinations: o.combinations,
    };
    Ok((decision(job, r.strategy, report), counts, sim))
}

fn decision(job: espresso_sim::Job, strategy: espresso::Strategy, report: Report) -> Decision {
    Decision {
        job,
        strategy,
        report,
        fault_plan: None,
        faulted_iteration_time: None,
        robust: None,
    }
}
