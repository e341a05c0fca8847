//! Unit tests of the benchmark's own arithmetic and generators.

use espresso::DecisionRequest;
use espresso_json::Json;
use perfbench::corpus::{cheap_pool, fresh_cheap, paper_corpus, request_defaults};
use perfbench::gen::{churn_events, delta_stream, jittered_arrivals, respell, Rng, Zipf};
use perfbench::stats::{harrell_davis, percentile, summarize, tail_level};
use perfbench::trace::{self_times, Span, Tracer};

#[test]
fn percentile_is_nearest_rank_on_raw_samples() {
    let samples: Vec<f64> = (1..=100).rev().map(f64::from).collect();
    assert_eq!(percentile(&samples, 0.5), Some(50.0));
    assert_eq!(percentile(&samples, 0.99), Some(99.0));
    assert_eq!(percentile(&samples, 1.0), Some(100.0));
    assert_eq!(percentile(&samples, 0.0), Some(1.0));
    assert_eq!(percentile(&[7.0], 0.9), Some(7.0));
    assert_eq!(percentile(&[], 0.5), None);
    // Between bucket bounds: the answer is a sample, never an edge.
    assert_eq!(percentile(&[0.3, 0.1, 0.2, 0.4], 0.5), Some(0.2));
}

#[test]
fn tail_level_keeps_ten_samples_beyond() {
    assert_eq!(tail_level(1000), 0.99);
    assert_eq!(tail_level(999), 0.95);
    assert_eq!(tail_level(100), 0.9);
    assert_eq!(tail_level(36), 0.7);
    assert_eq!(tail_level(5), 0.5);
    for n in 20..3000 {
        let q = tail_level(n);
        let samples: Vec<f64> = (1..=n).map(|v| v as f64).collect();
        let at = percentile(&samples, q).unwrap() as usize;
        assert!(n - at >= 10, "n={n} q={q}");
    }
    let s = summarize(&(1..=36).map(f64::from).collect::<Vec<_>>()).unwrap();
    assert_eq!((s.count, s.tail_level), (36, 0.7));
    assert!((s.p50 - 18.5).abs() < 1e-9, "{}", s.p50);
    assert!(s.tail > 25.0 && s.tail < 27.0, "{}", s.tail);
}

#[test]
fn harrell_davis_weights_every_rank_by_its_beta_mass() {
    // Symmetric data: the median is the centre, whatever n.
    for n in [1usize, 2, 5, 36, 181, 5000] {
        let xs: Vec<f64> = (1..=n).map(|v| v as f64).collect();
        let m = harrell_davis(&xs, 0.5);
        assert!(
            (m - (n as f64 + 1.0) / 2.0).abs() < 1e-6 * n as f64,
            "n={n}: {m}"
        );
    }
    // A constant, and the weights summing to one.
    assert!((harrell_davis(&[4.0; 17], 0.9) - 4.0).abs() < 1e-12);
    // Two samples at q = 1/3: Beta(1, 2) puts I_{1/2}(1, 2) = 3/4 of its
    // mass on the first.
    let v = harrell_davis(&[0.0, 1.0], 1.0 / 3.0);
    assert!((v - 0.25).abs() < 1e-12, "{v}");
    // Monotone in q, within the sample range, and close to nearest rank
    // on many samples.
    let xs: Vec<f64> = (0..3000).map(|i| ((i * 7919) % 3001) as f64).collect();
    let mut sorted = xs.clone();
    sorted.sort_by(f64::total_cmp);
    let mut last = f64::MIN;
    for q in [0.1, 0.5, 0.7, 0.9, 0.99] {
        let hd = harrell_davis(&sorted, q);
        assert!(hd >= last && hd >= sorted[0] && hd <= sorted[2999]);
        let nr = percentile(&xs, q).unwrap();
        assert!((hd - nr).abs() < 15.0, "q={q}: {hd} vs {nr}");
        last = hd;
    }
}

#[test]
fn zipf_is_seeded_and_skewed() {
    let z = Zipf::new(256, 1.1);
    let draw = |seed| {
        let mut rng = Rng::new(seed);
        (0..20_000).map(|_| z.sample(&mut rng)).collect::<Vec<_>>()
    };
    let a = draw(5);
    assert_eq!(a, draw(5));
    assert_ne!(a, draw(6));
    let mut counts = vec![0usize; 256];
    for &k in &a {
        counts[k] += 1;
    }
    assert!(counts[0] > counts[1] && counts[1] > counts[10] && counts[10] > counts[200]);
    // Weight of rank 0 is 1 / H(256, 1.1).
    let h: f64 = (1..=256).map(|k| (k as f64).powf(-1.1)).sum();
    let share = counts[0] as f64 / a.len() as f64;
    assert!((share - 1.0 / h).abs() < 0.01, "{share} vs {}", 1.0 / h);
}

#[test]
fn jittered_arrivals_are_ordered_spaced_and_seeded() {
    let t = jittered_arrivals(&mut Rng::new(1), 4000, 40.0);
    assert_eq!(t, jittered_arrivals(&mut Rng::new(1), 4000, 40.0));
    assert_ne!(t, jittered_arrivals(&mut Rng::new(2), 4000, 40.0));
    assert_eq!(t.len(), 4000);
    // Arrival k lies in the middle half of slot k (0.01 s wide), so gaps
    // stay within 0.005..0.015 s and spread over that range.
    for (k, &x) in t.iter().enumerate() {
        let lo = (k as f64 + 0.25) * 0.01;
        assert!(
            x >= lo - 1e-12 && x <= lo + 0.005 + 1e-12,
            "arrival {k}: {x}"
        );
    }
    let gaps: Vec<f64> = t.windows(2).map(|w| w[1] - w[0]).collect();
    assert!(gaps
        .iter()
        .all(|&g| (0.005 - 1e-12..=0.015 + 1e-12).contains(&g)));
    let short = gaps.iter().filter(|&&g| g < 0.0075).count() as f64 / gaps.len() as f64;
    assert!((0.08..0.17).contains(&short), "{short}");
}

#[test]
fn delta_stream_keeps_membership_valid() {
    for seed in 0..20 {
        let d = delta_stream(&mut Rng::new(seed), 8, 4, 600, 20.0, 0.8);
        assert_eq!(d, delta_stream(&mut Rng::new(seed), 8, 4, 600, 20.0, 0.8));
        assert_eq!(d.len(), 600);
        let mut down: Vec<Vec<usize>> = vec![Vec::new(); 8];
        for x in &d {
            assert!(x.cluster < 8);
            assert!(perfbench::gen::DEGRADATION_LEVELS.contains(&x.inter_factor));
            assert!(x.lost.is_none() || x.rejoined.is_none());
            if let Some(w) = x.lost {
                assert!(w < 4 && !down[x.cluster].contains(&w));
                down[x.cluster].push(w);
            }
            if let Some(w) = x.rejoined {
                let at = down[x.cluster]
                    .iter()
                    .position(|&v| v == w)
                    .expect("rejoin of a lost rank");
                down[x.cluster].remove(at);
            }
            assert!(down[x.cluster].len() < 4, "a cluster keeps one live rank");
        }
    }
}

#[test]
fn churn_events_walk_the_same_cluster_shapes_for_every_seed() {
    let (machines, per_machine, steps) = (8, 8, 250);
    let mut seen = Vec::new();
    for seed in 0..50 {
        let events = churn_events(&mut Rng::new(seed), machines, per_machine, steps);
        assert_eq!(
            events,
            churn_events(&mut Rng::new(seed), machines, per_machine, steps)
        );
        assert!(events.windows(2).all(|w| w[0].step < w[1].step));
        assert!(events.iter().all(|e| e.step > 0 && e.step < steps));
        let mut lost: Vec<usize> = Vec::new();
        let mut shapes = Vec::new();
        for e in &events {
            if e.rejoin {
                let at = lost
                    .iter()
                    .position(|&w| w == e.worker)
                    .expect("re-join of a lost rank");
                lost.remove(at);
            } else {
                assert!(!lost.contains(&e.worker), "a lost rank crashes again");
                lost.push(e.worker);
            }
            let fewest = (0..machines)
                .map(|m| per_machine - lost.iter().filter(|&&w| w / per_machine == m).count())
                .min()
                .unwrap();
            shapes.push(fewest);
        }
        assert_eq!(shapes, [7, 6, 6, 7, 6, 6, 7, 8], "seed {seed}");
        seen.push(events);
    }
    seen.sort_by_key(|e| format!("{e:?}"));
    seen.dedup();
    assert!(seen.len() > 40, "seeds pick different ranks and steps");
}

#[test]
fn respelling_keeps_the_canonical_key() {
    let defaults = request_defaults();
    let mut rng = Rng::new(3);
    for spec in paper_corpus().iter().chain(&cheap_pool(40)) {
        let want = DecisionRequest::parse(&spec.doc.render())
            .unwrap()
            .canonical_key();
        let spellings: Vec<String> = (0..4)
            .map(|_| respell(&mut rng, &spec.doc, &defaults))
            .collect();
        for s in &spellings {
            assert_eq!(DecisionRequest::parse(s).unwrap().canonical_key(), want);
        }
        assert!(
            spellings.iter().any(|s| *s != spellings[0]),
            "{spellings:?}"
        );
    }
}

#[test]
fn corpora_are_distinct() {
    let keys = |specs: Vec<perfbench::corpus::Spec>| {
        let mut k: Vec<String> = specs
            .iter()
            .map(|s| {
                DecisionRequest::parse(&s.doc.render())
                    .unwrap()
                    .canonical_key()
            })
            .collect();
        k.sort();
        k.dedup();
        k.len()
    };
    assert_eq!(keys(paper_corpus()), 36);
    assert_eq!(keys(cheap_pool(256)), 256);
    let mut all = cheap_pool(256);
    all.extend((0..2000).map(fresh_cheap));
    assert_eq!(
        keys(all),
        2256,
        "fresh specifications never repeat the pool"
    );
}

fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
    Span {
        name,
        start,
        end,
        parent,
        request: 1,
    }
}

#[test]
fn self_time_subtracts_covered_child_time_once() {
    let spans = vec![
        span("request", 0, 100, None),
        span("a", 10, 30, Some(0)),
        span("b", 20, 50, Some(0)),  // overlaps a: 10..50 covered once
        span("c", 90, 120, Some(0)), // runs past its parent: clipped at 100
        span("a.inner", 12, 18, Some(1)),
    ];
    assert_eq!(self_times(&spans), vec![100 - 40 - 10, 20 - 6, 30, 30, 6]);
}

#[test]
fn tracer_nests_spans_and_the_disabled_one_records_nothing() {
    let mut t = Tracer::new();
    let v = t.span("outer", 7, |t| t.span("inner", 7, |_| 41) + 1);
    assert_eq!(v, 42);
    let s = t.spans();
    assert_eq!(s.len(), 2);
    assert_eq!(
        (s[0].name, s[0].parent, s[1].parent),
        ("outer", None, Some(0))
    );
    assert!(s[0].start <= s[1].start && s[1].end <= s[0].end);
    assert!(s.iter().all(|x| x.request == 7));
    let mut off = Tracer::disabled();
    assert_eq!(off.span("outer", 1, |t| t.span("inner", 1, |_| 3)), 3);
    assert!(off.spans().is_empty());
}

#[test]
fn benchmark_json_lists_exactly_the_reported_metrics() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let names = |key: &str| -> Vec<(String, String)> {
        match doc.get(key) {
            Some(Json::Arr(items)) => items
                .iter()
                .map(|m| match (m.get("name"), m.get("unit")) {
                    (Some(Json::Str(n)), Some(Json::Str(u))) => (n.clone(), u.clone()),
                    _ => panic!("metric without name/unit"),
                })
                .collect(),
            _ => panic!("{key} missing"),
        }
    };
    let e2e: Vec<(String, String)> = perfbench::END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(names("end_to_end"), e2e);
    let layers: Vec<(String, String)> = perfbench::per_layer()
        .into_iter()
        .map(|(n, u)| (n, u.to_string()))
        .collect();
    assert_eq!(names("per_layer"), layers);
    // A per-model entry points the same way as its total.
    let Some(Json::Arr(per_layer)) = doc.get("per_layer") else {
        panic!("per_layer missing")
    };
    let better = |name: &str| {
        per_layer
            .iter()
            .find(|m| m.get("name") == Some(&Json::Str(name.to_string())))
            .and_then(|m| m.get("better").cloned())
            .unwrap_or_else(|| panic!("{name} has no direction"))
    };
    for (layer, _) in perfbench::PLANNER_LAYERS {
        for model in perfbench::MODELS {
            assert_eq!(
                better(&format!("{layer}.{model}")),
                better(layer),
                "{layer}.{model}"
            );
        }
    }
}
