//! Error-path coverage for the wire protocol: every malformed input gets a
//! named JSON error on the right status code, rejections reclaim their
//! resources atomically, and a client vanishing mid-stream leaves the
//! worker pool and the shard store untouched.

use ldsim_server::wire::request;
use ldsim_system::{run_sweep, SweepConfig};
use std::io::{Read, Write};
use std::net::TcpStream;

mod common;
use common::{boot, tmp};

/// Fire raw bytes at the server and return the whole reply, for requests
/// `wire::request` refuses to produce (malformed lines, lying lengths).
fn raw(port: u16, payload: &str) -> String {
    let mut s = TcpStream::connect(("127.0.0.1", port)).unwrap();
    s.write_all(payload.as_bytes()).unwrap();
    s.shutdown(std::net::Shutdown::Write).unwrap();
    let mut reply = String::new();
    s.read_to_string(&mut reply).unwrap();
    reply
}

#[test]
fn named_errors_cover_every_malformed_request() {
    let cache = tmp("named");
    let srv = boot(&cache, |_| {});
    let p = srv.port;

    // Each malformed request gets its named error on the right status:
    // bad bodies and scales, an unknown figure, unknown endpoints and
    // wrong methods, and bad or unknown job ids.
    for (method, path, body, status, name) in [
        ("POST", "/v1/jobs", "not json at all", 400, "bad_job_json"),
        (
            "POST",
            "/v1/jobs",
            "{\"scale\":\"galactic\"}",
            400,
            "bad_scale",
        ),
        ("POST", "/v1/jobs", "{}", 400, "bad_scale"),
        (
            "POST",
            "/v1/jobs",
            "{\"scale\":\"tiny\",\"figures\":\"fig02,fig99\"}",
            400,
            "unknown_figure",
        ),
        ("GET", "/v2/jobs", "", 404, "unknown_endpoint"),
        ("DELETE", "/v1/health", "", 405, "method_not_allowed"),
        ("POST", "/v1/jobs/7/stream", "", 405, "method_not_allowed"),
        ("GET", "/v1/jobs/banana", "", 400, "bad_job_id"),
        ("GET", "/v1/jobs/424242", "", 404, "unknown_job"),
        ("GET", "/v1/jobs/424242/stream", "", 404, "unknown_job"),
    ] {
        let (s, b) = request("127.0.0.1", p, method, path, body).unwrap();
        let named = b.contains(&format!("\"error\":\"{name}\""));
        assert_eq!((s, named), (status, true), "{method} {path} {body}: {b}");
        if name == "unknown_figure" {
            assert!(b.contains("fig99"), "detail names the bad figure: {b}");
        }
    }
    let (_, h) = request("127.0.0.1", p, "GET", "/v1/health", "").unwrap();
    assert!(
        h.contains("\"pending\":0"),
        "rejected submits must enqueue nothing: {h}"
    );

    // A Content-Length over the cap is refused before the body is read.
    let reply = raw(
        p,
        "POST /v1/jobs HTTP/1.1\r\nContent-Length: 104857600\r\n\r\n",
    );
    assert!(reply.starts_with("HTTP/1.1 413"), "{reply}");
    assert!(reply.contains("\"error\":\"too_large\""), "{reply}");

    // A garbage request line is a named 400, not a hang or a crash.
    let reply = raw(p, "TOTAL GARBAGE\r\n\r\n");
    assert!(reply.starts_with("HTTP/1.1 400"), "{reply}");
    assert!(reply.contains("\"error\":\"bad_request\""), "{reply}");

    // And after all of that abuse the server still serves.
    let (s, h) = request("127.0.0.1", p, "GET", "/v1/health", "").unwrap();
    assert_eq!(s, 200);
    assert!(h.contains("\"ok\":true"), "{h}");
    srv.exec.shutdown();
    let _ = std::fs::remove_dir_all(&cache);
}

#[test]
fn capacity_rejections_are_atomic_and_named() {
    // max_inflight 1: fig02's multi-cell grid trips the global cap on the
    // very first submit, before anything is committed. queue_cap 1 with a
    // roomy global cap: the per-client queue rejects instead, with its own
    // name and the client named in the detail.
    for (name, max_inflight, queue_cap, error) in [
        ("cap", 1, usize::MAX, "over_capacity"),
        ("queue", usize::MAX, 1, "client_queue_full"),
    ] {
        let cache = tmp(name);
        let srv = boot(&cache, |c| {
            (c.max_inflight, c.queue_cap) = (max_inflight, queue_cap)
        });
        let job = "{\"client\":\"greedy\",\"scale\":\"tiny\",\"figures\":\"fig02\"}";
        let (s, b) = request("127.0.0.1", srv.port, "POST", "/v1/jobs", job).unwrap();
        let named = b.contains(&format!("\"error\":\"{error}\""));
        assert_eq!((s, named), (429, true), "{b}");
        assert!(error != "client_queue_full" || b.contains("greedy"), "{b}");
        let (_, h) = request("127.0.0.1", srv.port, "GET", "/v1/health", "").unwrap();
        assert!(
            h.contains("\"pending\":0") && h.contains("\"jobs\":0"),
            "rejection must commit nothing, not even a job record: {h}"
        );
        srv.exec.shutdown();
        let _ = std::fs::remove_dir_all(&cache);
    }
}

#[test]
fn client_disconnect_mid_stream_leaves_the_farm_healthy() {
    let cache = tmp("hangup");
    let srv = boot(&cache, |_| {});
    let p = srv.port;
    let (s, reply) = request(
        "127.0.0.1",
        p,
        "POST",
        "/v1/jobs",
        "{\"scale\":\"tiny\",\"figures\":\"fig02\"}",
    )
    .unwrap();
    assert_eq!(s, 200, "{reply}");
    let job = ldsim_util::parse_object(&reply)
        .unwrap()
        .req_u64("job")
        .unwrap();

    // Open the stream, read only the header, then hang up while the
    // workers are still busy.
    {
        let (s, mut reader) =
            ldsim_server::wire::open_stream("127.0.0.1", p, &format!("/v1/jobs/{job}/stream"))
                .unwrap();
        assert_eq!(s, 200);
        let mut line = String::new();
        std::io::BufRead::read_line(&mut reader, &mut line).unwrap();
        assert!(line.contains("\"job\""), "{line}");
    } // dropped: TCP reset mid-stream

    // The farm shrugs: the job still runs to completion and a second
    // stream delivers the full framed body.
    loop {
        let (s, body) = request("127.0.0.1", p, "GET", &format!("/v1/jobs/{job}"), "").unwrap();
        assert_eq!(s, 200);
        assert!(!body.contains("\"state\":\"failed\""), "{body}");
        if body.contains("\"state\":\"done\"") {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    let (s, mut reader) =
        ldsim_server::wire::open_stream("127.0.0.1", p, &format!("/v1/jobs/{job}/stream")).unwrap();
    assert_eq!(s, 200);
    let mut body = String::new();
    reader.read_to_string(&mut body).unwrap();
    assert!(
        body.trim_end()
            .lines()
            .last()
            .unwrap()
            .contains("\"done\":true"),
        "{body}"
    );
    srv.exec.shutdown();

    // The shard store the interrupted job wrote is intact: a warm
    // in-process sweep over the same cells simulates nothing.
    let specs: Vec<_> = ldsim_bench::figures::registry(ldsim_workloads::Scale::Tiny, 1)
        .into_iter()
        .filter(|f| f.name == "fig02")
        .collect();
    let cells: Vec<_> = specs.iter().flat_map(|f| f.cells.iter().copied()).collect();
    let cfg = SweepConfig {
        cache_path: Some(&cache),
        shards: 4,
        ..SweepConfig::default()
    };
    let (_, stats) = run_sweep(&cells, &cfg);
    assert_eq!(
        stats.simulated, 0,
        "store must be uncorrupted after the hangup"
    );
    assert_eq!(stats.from_cache, stats.unique);
    let _ = std::fs::remove_dir_all(&cache);
}
