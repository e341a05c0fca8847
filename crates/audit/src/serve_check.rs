//! Serve-path determinism check.
//!
//! Boots an in-process decision server and verifies the caching layer
//! can never change an answer: the same `DecisionRequest` must produce
//! byte-identical bodies whether it is computed fresh, answered from
//! the cache, or forcibly recomputed with `Cache-Control: no-cache` (a
//! cold re-plan: the server memoizes bodies, never selections) —
//! even after the server has computed decisions for a *degraded* health
//! state in between (perturb-then-restore). The test-suite twin of this
//! check lives in `crates/serve/tests/equivalence.rs`; this one runs in
//! release builds from the `espresso-audit` CLI.

use std::time::Duration;

use espresso_serve::client::Connection;
use espresso_serve::{ServeConfig, Server};

const NOMINAL: &str = r#"{
    "model": { "model": "LSTM" },
    "gc": { "algorithm": { "RandomK": { "density": 0.01 } } },
    "system": { "machines": 2, "gpus_per_machine": 4,
                "intra": "Pcie", "inter_gbps": 25.0 }
}"#;

const DEGRADED: &str = r#"{
    "model": { "model": "LSTM" },
    "gc": { "algorithm": { "RandomK": { "density": 0.01 } } },
    "system": { "machines": 2, "gpus_per_machine": 4,
                "intra": "Pcie", "inter_gbps": 25.0 },
    "health": { "inter": { "Degraded": { "factor": 2.0 } } }
}"#;

/// What the check observed.
#[derive(Debug)]
pub struct ServeCheckReport {
    /// Bytes of the nominal response body.
    pub body_len: usize,
    /// Whether the degraded body differed from the nominal one.
    pub degraded_differs: bool,
}

/// Runs the perturb-then-restore equivalence check.
///
/// # Errors
///
/// A printable description of the first divergence (HTTP failure,
/// unexpected status, or a byte mismatch between the three nominal
/// bodies).
pub fn run() -> Result<ServeCheckReport, String> {
    let server = Server::start(ServeConfig {
        workers: 2,
        deadline: Duration::from_secs(30),
        ..ServeConfig::default()
    })
    .map_err(|e| format!("server failed to start: {e}"))?;
    let result = drive(&server);
    server.shutdown();
    result
}

fn drive(server: &Server) -> Result<ServeCheckReport, String> {
    let mut conn = Connection::open(server.addr(), Duration::from_secs(30))
        .map_err(|e| format!("connect: {e}"))?;
    let post = |conn: &mut Connection, headers: &[(&str, &str)], body: &str, what: &str| {
        let resp = conn
            .request_with("POST", "/decide", headers, body.as_bytes())
            .map_err(|e| format!("{what}: {e}"))?;
        if resp.status != 200 {
            return Err(format!(
                "{what}: status {} body {}",
                resp.status,
                String::from_utf8_lossy(&resp.body)
            ));
        }
        Ok(resp.body)
    };

    let fresh = post(&mut conn, &[], NOMINAL, "nominal (fresh)")?;
    let degraded = post(&mut conn, &[], DEGRADED, "degraded (perturb)")?;
    let cached = post(&mut conn, &[], NOMINAL, "nominal (cached)")?;
    let recomputed = post(
        &mut conn,
        &[("Cache-Control", "no-cache")],
        NOMINAL,
        "nominal (no-cache)",
    )?;

    if cached != fresh {
        return Err("cache hit returned different bytes than the fresh computation".into());
    }
    if recomputed != fresh {
        return Err(
            "forced recomputation returned different bytes than the fresh computation".into(),
        );
    }
    Ok(ServeCheckReport {
        body_len: fresh.len(),
        degraded_differs: degraded != fresh,
    })
}

#[cfg(test)]
mod tests {
    #[test]
    fn serve_equivalence_holds() {
        let report = super::run().expect("serve equivalence check failed");
        assert!(report.body_len > 0);
        assert!(
            report.degraded_differs,
            "degraded health unexpectedly produced the nominal body"
        );
    }
}
