//! Per-layer metrics of the decision path, from replay spans.

use std::collections::BTreeMap;

use crate::pipeline::Replayed;
use crate::stats::{mean, median};
use crate::trace::{by_name, Span, Tracer};
use crate::{Outcome, MODELS};

fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration() as f64)
        .collect()
}

/// Notes the ledger of a traced run next to its metrics: each span
/// name's call count and total self time, and the part of the
/// end-to-end time `e2e_ms` that the spans named in `layers` (which do
/// not nest in one another) leave uncovered: waiting, transport, glue
/// and anything else no layer span attributes.
pub fn note_ledger(out: &mut Outcome, spans: &[Span], e2e_ms: f64, layers: &[&str]) {
    for (name, (calls, own)) in by_name(spans) {
        out.note(
            &format!("self_ms.{name}"),
            format!("{:.3} over {calls} calls", own as f64 / 1e6),
        );
    }
    let attributed: f64 = spans
        .iter()
        .filter(|s| layers.contains(&s.name))
        .map(|s| s.duration() as f64 / 1e6)
        .sum();
    out.note("e2e_ms", format!("{e2e_ms:.3}"));
    out.note("unattributed_ms", format!("{:.3}", e2e_ms - attributed));
}

/// Sum over each request span of its direct children (the attributed
/// layer time), ms, by request id.
fn attributed_ms(spans: &[Span]) -> BTreeMap<u64, f64> {
    let mut out = BTreeMap::new();
    for s in spans.iter() {
        if let Some(p) = s.parent {
            if spans[p].name == "request" {
                *out.entry(spans[p].request).or_insert(0.0) += s.duration() as f64 / 1e6;
            }
        }
    }
    out
}

/// Records the decision-path layer metrics. `server_ms`, when given,
/// are untraced HTTP latencies of the same request mix: their median
/// minus the median attributed layer time is `server.residual_ms`.
/// `model_of` maps a replay id to its model.
pub fn decision_layers<'a>(
    out: &mut Outcome,
    t: &Tracer,
    replayed: &[(usize, Replayed)],
    server_ms: Option<&[f64]>,
    model_of: impl Fn(usize) -> &'a str,
) {
    let spans = t.spans();
    let us = |name: &str| median(&durations(spans, name)) / 1e3;
    out.metric("http.parse_us", us("http.parse"), "us");
    out.metric("json.parse_us", us("json.parse"), "us");
    out.metric(
        "service.canonical_key_us",
        us("service.canonical_key"),
        "us",
    );
    out.metric("cache.get_us", us("cache.get"), "us");
    out.metric("service.encode_us", us("service.encode"), "us");
    let hits = replayed.iter().filter(|(_, r)| r.hit).count();
    out.metric(
        "cache.hit_ratio",
        hits as f64 / replayed.len().max(1) as f64,
        "ratio",
    );

    if let Some(server_ms) = server_ms {
        let attributed: Vec<f64> = attributed_ms(spans).into_values().collect();
        out.metric(
            "server.residual_ms",
            median(server_ms) - median(&attributed),
            "ms",
        );
    }

    // Planner layers: totals and per model.
    let mut per: BTreeMap<(&str, &str), f64> = BTreeMap::new();
    let stage = |s: &Span| match s.name {
        "strategy.space" => Some("strategy.space_ms"),
        "gpu.alg1" => Some("gpu.alg1_ms"),
        "offload.alg2" => Some("offload.alg2_ms"),
        "refine.backfill" => Some("refine.backfill_ms"),
        _ => None,
    };
    let mut sim_us: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for s in spans {
        let model = model_of(s.request as usize);
        if let Some(metric) = stage(s) {
            let ms = s.duration() as f64 / 1e6;
            *per.entry((metric, "")).or_default() += ms;
            *per.entry((metric, model)).or_default() += ms;
        } else if s.name == "sim.full" {
            let v = s.duration() as f64 / 1e3;
            sim_us.entry("").or_default().push(v);
            sim_us.entry(model).or_default().push(v);
        }
    }
    let mut backfilled: BTreeMap<&str, usize> = BTreeMap::new();
    for (n, r) in replayed {
        if let Some(plan) = &r.plan {
            let c = &plan.counts;
            let model = model_of(*n);
            for m in ["", model] {
                *per.entry(("gpu.alg1_sims", m)).or_default() += c.gpu_sims as f64;
                *per.entry(("offload.combinations", m)).or_default() += c.combinations as f64;
                *per.entry(("refine.backfill_sims", m)).or_default() += c.backfill_sims as f64;
                *backfilled.entry(m).or_default() += c.backfilled;
            }
        }
    }
    for m in std::iter::once("").chain(MODELS) {
        let sims = per
            .get(&("refine.backfill_sims", m))
            .copied()
            .unwrap_or(0.0);
        let accepted = backfilled.get(m).copied().unwrap_or(0) as f64;
        let ratio = if sims > 0.0 { accepted / sims } else { 0.0 };
        per.insert(("refine.backfill_accept_ratio", m), ratio);
        per.insert(
            ("sim.full_us", m),
            mean(sim_us.get(m).map_or(&[][..], |v| v)),
        );
    }
    for (name, unit) in crate::PLANNER_LAYERS {
        for m in std::iter::once("").chain(MODELS) {
            let key = if m.is_empty() {
                name.to_string()
            } else {
                format!("{name}.{m}")
            };
            out.metric(&key, per.get(&(name, m)).copied().unwrap_or(0.0), unit);
        }
    }
}
