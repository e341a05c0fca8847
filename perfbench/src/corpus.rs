//! Request documents the workloads send.

use espresso_json::Json;

/// The paper's three compression settings as request `algorithm` JSON.
pub const PAPER_ALGOS: [(&str, &str); 3] = [
    ("RandomK", r#"{"RandomK":{"density":0.01}}"#),
    ("DGC", r#"{"Dgc":{"density":0.01}}"#),
    ("EFSignSGD", r#""EfSignSgd""#),
];

/// The paper's two testbeds: intra fabric and inter-machine Gbit/s.
pub const TESTBEDS: [(&str, f64); 2] = [("NvLink", 100.0), ("Pcie", 25.0)];

/// One request specification.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Short label, `model/algo/testbed`.
    pub label: String,
    /// Zoo model name.
    pub model: &'static str,
    /// The request document (only required fields).
    pub doc: Json,
}

/// A request document for `model` with the given algorithm JSON and
/// cluster shape.
pub fn request_doc(
    model: &str,
    algo_json: &str,
    machines: usize,
    gpus: usize,
    intra: &str,
    inter_gbps: f64,
) -> Json {
    let text = format!(
        r#"{{"model":{{"model":"{model}"}},"gc":{{"algorithm":{algo_json}}},"system":{{"machines":{machines},"gpus_per_machine":{gpus},"intra":"{intra}","inter_gbps":{inter_gbps:?}}}}}"#
    );
    Json::parse(&text).expect("corpus request documents are valid JSON")
}

/// The 36 paper configurations: 6 models × 3 algorithms × 2 testbeds at
/// 8 machines × 8 GPUs.
pub fn paper_corpus() -> Vec<Spec> {
    let mut out = Vec::new();
    for (intra, gbps) in TESTBEDS {
        for model in crate::MODELS {
            for (algo, algo_json) in PAPER_ALGOS {
                out.push(Spec {
                    label: format!("{model}/{algo}/{intra}"),
                    model,
                    doc: request_doc(model, algo_json, 8, 8, intra, gbps),
                });
            }
        }
    }
    out
}

/// Optional top-level request fields at their defaults, which a
/// re-spelled request may write out or omit.
pub fn request_defaults() -> Vec<(&'static str, Json)> {
    use espresso_json::ToJson;
    vec![
        (
            "health",
            espresso_cluster::ClusterHealth::nominal().to_json(),
        ),
        ("faults", Json::Null),
        ("robust", Json::Bool(false)),
    ]
}

/// Cheap specifications (LSTM and VGG16 on one machine of four GPUs):
/// `count` distinct documents, a pure function of `count`.
pub fn cheap_pool(count: usize) -> Vec<Spec> {
    let algos: Vec<String> = [0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1]
        .iter()
        .flat_map(|d| {
            [
                format!(r#"{{"RandomK":{{"density":{d:?}}}}}"#),
                format!(r#"{{"Dgc":{{"density":{d:?}}}}}"#),
            ]
        })
        .chain([r#""EfSignSgd""#.to_string(), r#""TernGrad""#.to_string()])
        .collect();
    let mut out = Vec::new();
    let mut gbps = 10.0;
    'fill: loop {
        for model in ["LSTM", "VGG16"] {
            for intra in ["Pcie", "NvLink"] {
                for algo in &algos {
                    if out.len() == count {
                        break 'fill;
                    }
                    out.push(Spec {
                        label: format!("{model}/{intra}/{gbps}/{algo}"),
                        model,
                        doc: request_doc(model, algo, 1, 4, intra, gbps),
                    });
                }
            }
        }
        gbps += 15.0;
    }
    out
}

/// A never-before-seen cheap specification, distinct for every `n`.
pub fn fresh_cheap(n: usize) -> Spec {
    let model = if n.is_multiple_of(2) { "LSTM" } else { "VGG16" };
    let gbps = 10.0625 + (n as f64) * 0.125;
    Spec {
        label: format!("fresh/{n}"),
        model,
        doc: request_doc(model, r#"{"RandomK":{"density":0.01}}"#, 1, 4, "Pcie", gbps),
    }
}
