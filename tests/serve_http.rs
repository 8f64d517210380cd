//! End-to-end coverage of `hetero-serve` over real sockets: the same
//! accept loop, router and wire format the binary runs, exercised
//! through `http::spawn` on an OS-assigned port.

use hetero_serve::http;
use hetero_serve::service::SweepService;
use simkit::json::{parse, Json};
use std::sync::Arc;

fn spawn_server() -> std::net::SocketAddr {
    let service = Arc::new(SweepService::new(None, 2).expect("in-memory service"));
    http::spawn(service, "127.0.0.1:0").expect("server spawns")
}

/// One engine batch: enough simulation that the cold run is orders of
/// magnitude above HTTP framing cost.
const BATCH: &str = r#"{"jobs": [{
    "preset": "hetero-phy-full",
    "geom": [2, 2, 2, 2],
    "rates": [0.02, 0.03, 0.04, 0.05, 0.06, 0.07],
    "spec": "quick",
    "seed": 42
}]}"#;

/// The serve-cache contract over the wire: submitting the identical
/// batch twice serves the second response entirely from cache, ≥ 10×
/// faster by the server's own `elapsed_ms` clock (server-side timing,
/// so TCP setup noise is out of the comparison), with bit-identical
/// physics in the payload.
#[test]
fn repeated_batch_is_ten_times_faster_and_all_hits() {
    let addr = spawn_server();
    let (status, cold_body) = http::request(addr, "POST", "/v1/batch", BATCH).expect("cold batch");
    assert_eq!(status, 200, "{cold_body}");
    let (status, hot_body) = http::request(addr, "POST", "/v1/batch", BATCH).expect("hot batch");
    assert_eq!(status, 200, "{hot_body}");

    let cold = parse(&cold_body).expect("cold response is JSON");
    let hot = parse(&hot_body).expect("hot response is JSON");

    let cache = |resp: &Json, field: &str| {
        resp.get("cache")
            .and_then(|c| c.get(field).and_then(Json::as_f64))
            .unwrap_or_else(|| panic!("cache.{field} present"))
    };
    assert_eq!(cache(&cold, "hit_rate"), 0.0);
    assert_eq!(cache(&cold, "computed"), 6.0);
    assert_eq!(cache(&hot, "hit_rate"), 1.0, "second batch is 100% hits");
    assert_eq!(cache(&hot, "computed"), 0.0);

    let elapsed = |resp: &Json| {
        resp.get("elapsed_ms")
            .and_then(Json::as_f64)
            .expect("elapsed_ms present")
    };
    let (cold_ms, hot_ms) = (elapsed(&cold), elapsed(&hot));
    assert!(
        cold_ms >= hot_ms * 10.0,
        "cached batch must be >=10x faster: cold {cold_ms:.2}ms vs hot {hot_ms:.3}ms"
    );

    // Identical physics, point by point; only the source labels differ.
    let points = |resp: &Json| -> Vec<Json> {
        resp.get("jobs").unwrap().as_arr().unwrap()[0]
            .get("points")
            .unwrap()
            .as_arr()
            .unwrap()
            .to_vec()
    };
    for (c, h) in points(&cold).iter().zip(points(&hot).iter()) {
        for field in [
            "rate",
            "packets",
            "avg_latency",
            "p99_latency",
            "throughput",
            "avg_energy_pj",
        ] {
            assert_eq!(
                c.get(field).map(Json::render),
                h.get(field).map(Json::render),
                "{field} must round-trip the cache bit-identically"
            );
        }
        assert_eq!(c.get("source").and_then(Json::as_str), Some("computed"));
        assert_eq!(h.get("source").and_then(Json::as_str), Some("memory"));
    }
}

/// The Prometheus endpoint reflects the serve counters after traffic.
#[test]
fn metrics_endpoint_counts_cache_hits() {
    let addr = spawn_server();
    let body = r#"{"jobs": [{"preset": "uni-parallel-mesh", "rates": [0.02], "spec": "smoke"}]}"#;
    for _ in 0..2 {
        let (status, _) = http::request(addr, "POST", "/v1/batch", body).expect("batch");
        assert_eq!(status, 200);
    }
    let (status, metrics) = http::request(addr, "GET", "/metrics", "").expect("metrics");
    assert_eq!(status, 200);
    assert!(metrics.contains("serve_points_total 2"), "{metrics}");
    assert!(
        metrics.contains("serve_cache_hits_total{level=\"memory\"} 1"),
        "{metrics}"
    );
}

/// Geometries a preset cannot build are a 400 on either backend, and a
/// rejected request leaves the server answering.
#[test]
fn unbuildable_geometries_are_a_400_and_do_not_wedge_the_server() {
    let addr = spawn_server();
    for backend in ["engine", "analytical"] {
        for (preset, geom) in [
            ("uni-parallel-mesh", "[1, 1, 1, 1]"),
            ("hetero-channel-full", "[3, 3, 2, 2]"),
            ("uni-serial-hypercube", "[3, 1, 2, 2]"),
        ] {
            let body = format!(
                r#"{{"jobs": [{{"preset": "{preset}", "geom": {geom}, "rates": [0.02], "backend": "{backend}"}}]}}"#
            );
            let (status, resp) = http::request(addr, "POST", "/v1/batch", &body).expect("batch");
            assert_eq!(status, 400, "{body}: {resp}");
            assert!(resp.contains(preset), "{resp}");
        }
    }
    let body = r#"{"jobs": [{"preset": "uni-parallel-mesh", "rates": [0.02], "spec": "smoke"}]}"#;
    let (status, resp) = http::request(addr, "POST", "/v1/batch", body).expect("batch");
    assert_eq!(status, 200, "{resp}");
}
