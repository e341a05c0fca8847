//! Serve-path equivalence: a cached response and a forced recomputation
//! of the same `DecisionRequest` must be byte-identical.
//!
//! The decision service promises determinism — the canonical-JSON cache
//! key, the deterministic selector, and the byte-stable renderer together
//! mean there is exactly one valid body per request. This test exercises
//! that promise the hard way: compute a decision, *perturb* the observed
//! cluster health (computing a decision on a degraded cluster, which
//! exercises a different selector path and a different cache line), then
//! restore health and ask again — once via the cache, once with
//! `Cache-Control: no-cache` to force the server to recompute it (the
//! server keeps no planner memo, so a bypass re-runs the algorithms
//! cold). All three nominal bodies must match byte for byte.

use std::time::Duration;

use espresso_json::Json;
use espresso_serve::client::Connection;
use espresso_serve::{ServeConfig, Server};

fn test_server() -> Server {
    Server::start(ServeConfig {
        workers: 2,
        deadline: Duration::from_secs(10),
        ..ServeConfig::default()
    })
    .expect("server should start on an ephemeral port")
}

const REQUEST: &str = r#"{
    "model": { "model": "LSTM" },
    "gc": { "algorithm": { "RandomK": { "density": 0.01 } } },
    "system": { "machines": 2, "gpus_per_machine": 4,
                "intra": "Pcie", "inter_gbps": 25.0 }
}"#;

/// The same job observed on a degraded cluster — a different cache line
/// (the health is part of the canonical key) whose computation perturbs
/// every piece of shared server state between the nominal requests.
const DEGRADED: &str = r#"{
    "model": { "model": "LSTM" },
    "gc": { "algorithm": { "RandomK": { "density": 0.01 } } },
    "system": { "machines": 2, "gpus_per_machine": 4,
                "intra": "Pcie", "inter_gbps": 25.0 },
    "health": { "inter": { "Degraded": { "factor": 2.0 } } }
}"#;

#[test]
fn cache_hit_and_forced_recomputation_are_byte_identical() {
    let server = test_server();
    let mut conn = Connection::open(server.addr(), Duration::from_secs(30)).unwrap();

    // 1. Nominal request, computed fresh.
    let first = conn.request("POST", "/decide", REQUEST.as_bytes()).unwrap();
    assert_eq!(first.status, 200, "{}", String::from_utf8_lossy(&first.body));

    // 2. Perturb: same job under degraded health. Must be a *different*
    //    decision path (the robust selector engages) and a different
    //    cache line, so it cannot poison the nominal one.
    let degraded = conn.request("POST", "/decide", DEGRADED.as_bytes()).unwrap();
    assert_eq!(
        degraded.status,
        200,
        "{}",
        String::from_utf8_lossy(&degraded.body)
    );
    assert_ne!(
        first.body, degraded.body,
        "degraded health must not alias the nominal cache line"
    );

    // 3. Restore: the nominal request again — served from cache.
    let cached = conn.request("POST", "/decide", REQUEST.as_bytes()).unwrap();
    assert_eq!(cached.status, 200);
    assert_eq!(first.body, cached.body, "cache hit must be bit-identical");

    // 4. Same request with Cache-Control: no-cache — the server must
    //    re-run the planner cold and still produce the identical bytes.
    let recomputed = conn
        .request_with(
            "POST",
            "/decide",
            &[("Cache-Control", "no-cache")],
            REQUEST.as_bytes(),
        )
        .unwrap();
    assert_eq!(recomputed.status, 200);
    assert_eq!(
        first.body, recomputed.body,
        "forced recomputation must be bit-identical to the cached body"
    );

    // The metrics agree with the story: two nominal computations (first +
    // bypass), one degraded computation, one cache hit, one bypass.
    let metrics = conn.request("GET", "/metrics", b"").unwrap();
    let doc = Json::parse(std::str::from_utf8(&metrics.body).unwrap()).unwrap();
    assert_eq!(doc.req::<u64>("cache_bypass").unwrap(), 1);
    assert_eq!(doc.req::<u64>("cache_hits").unwrap(), 1);
    assert_eq!(doc.req::<u64>("decisions_computed").unwrap(), 3);
    server.shutdown();
}

#[test]
fn bypass_header_is_case_insensitive_and_refreshes_the_cache() {
    let server = test_server();
    let mut conn = Connection::open(server.addr(), Duration::from_secs(30)).unwrap();
    // Cold start straight into a bypass: computes and fills the cache.
    let first = conn
        .request_with(
            "POST",
            "/decide",
            &[("cache-control", "NO-CACHE")],
            REQUEST.as_bytes(),
        )
        .unwrap();
    assert_eq!(first.status, 200);
    // A plain request now hits the cache the bypass populated.
    let second = conn.request("POST", "/decide", REQUEST.as_bytes()).unwrap();
    assert_eq!(second.status, 200);
    assert_eq!(first.body, second.body);

    let metrics = conn.request("GET", "/metrics", b"").unwrap();
    let doc = Json::parse(std::str::from_utf8(&metrics.body).unwrap()).unwrap();
    assert_eq!(doc.req::<u64>("cache_bypass").unwrap(), 1);
    assert_eq!(doc.req::<u64>("cache_hits").unwrap(), 1);
    assert_eq!(doc.req::<u64>("decisions_computed").unwrap(), 1);
    server.shutdown();
}
