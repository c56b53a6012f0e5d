//! End-to-end wire tests: a real `ldsim-server` exec behind a real TCP
//! listener, spoken to through the same `wire` helpers the `ldsim-client`
//! binary uses. The contract under test is the ISSUE's acceptance
//! criterion: rows streamed off the farm are byte-identical to what the
//! in-process sweep renders, and the shard store a job leaves behind
//! warm-reloads bit-exact.

use ldsim_bench::figures::registry;
use ldsim_system::{run_sweep, SweepConfig};
use ldsim_util::parse_object;
use ldsim_workloads::Scale;
use std::io::BufRead;
use std::path::Path;

mod common;
use common::{boot, tmp};

fn post_job(port: u16, body: &str) -> (u16, String) {
    ldsim_server::wire::request("127.0.0.1", port, "POST", "/v1/jobs", body).unwrap()
}

/// Render the named figures exactly as `repro tiny` would: one in-process
/// sweep over the union grid (no cache), rendered into `dir`.
fn render_local(names: &[&str], dir: &Path) {
    let specs: Vec<_> = registry(Scale::Tiny, 1)
        .into_iter()
        .filter(|s| names.contains(&s.name))
        .collect();
    let cells: Vec<_> = specs.iter().flat_map(|s| s.cells.iter().copied()).collect();
    let (store, _) = run_sweep(&cells, &SweepConfig::default());
    std::fs::create_dir_all(dir).unwrap();
    for spec in &specs {
        (spec.render)(&store, dir);
    }
}

/// Demux one stream body into (file name → bytes), asserting the framing
/// (header, per-record row counts, done trailer) along the way.
fn demux(port: u16, job: u64) -> Vec<(String, String)> {
    let (status, mut reader) =
        ldsim_server::wire::open_stream("127.0.0.1", port, &format!("/v1/jobs/{job}/stream"))
            .unwrap();
    assert_eq!(status, 200);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let header = parse_object(line.trim_end()).unwrap();
    assert_eq!(header.req_u64("job").unwrap(), job);
    let mut out: Vec<(String, String)> = Vec::new();
    let (mut files, mut rows) = (0u64, 0u64);
    loop {
        line.clear();
        assert_ne!(reader.read_line(&mut line).unwrap(), 0, "truncated stream");
        let rec = parse_object(line.trim_end()).unwrap();
        if rec.req_bool("done").ok() == Some(true) {
            assert_eq!(rec.req_u64("files").unwrap(), files, "trailer file count");
            assert_eq!(rec.req_u64("rows").unwrap(), rows, "trailer row count");
            // After the trailer the server closes the connection.
            line.clear();
            assert_eq!(reader.read_line(&mut line).unwrap(), 0);
            return out;
        }
        let Ok(file) = rec.req_str("file") else {
            continue; // no-file figure note
        };
        let n = rec.req_u64("rows").unwrap();
        let mut content = String::new();
        for _ in 0..n {
            line.clear();
            assert_ne!(
                reader.read_line(&mut line).unwrap(),
                0,
                "truncated file body"
            );
            content.push_str(&line);
        }
        out.push((file.to_string(), content));
        files += 1;
        rows += n;
    }
}

#[test]
fn streamed_rows_are_byte_identical_to_the_local_render() {
    // Three figures covering the three stream shapes: a plain grid dump
    // (fig02), a no-file analytic figure (fig05), and a second dump whose
    // cells overlap fig02's (fig03 — same grid, proving dedupe).
    let names = ["fig02", "fig03", "fig05"];
    let cache = tmp("e2e");
    let srv = boot(&cache, |_| {});
    let (status, reply) = post_job(
        srv.port,
        "{\"client\":\"t\",\"scale\":\"tiny\",\"seed\":1,\"figures\":\"fig02,fig03,fig05\"}",
    );
    assert_eq!(status, 200, "{reply}");
    let r = parse_object(&reply).unwrap();
    let job = r.req_u64("job").unwrap();
    assert_eq!(
        r.req_u64("unique").unwrap(),
        r.req_u64("queued").unwrap(),
        "cold farm: every unique cell queues"
    );
    assert!(
        r.req_u64("declared").unwrap() > r.req_u64("unique").unwrap(),
        "fig02 and fig03 share their grid"
    );

    // Poll to completion over the wire (what the CI job's loop does).
    loop {
        let (s, body) = ldsim_server::wire::request(
            "127.0.0.1",
            srv.port,
            "GET",
            &format!("/v1/jobs/{job}"),
            "",
        )
        .unwrap();
        assert_eq!(s, 200);
        assert!(!body.contains("\"state\":\"failed\""), "{body}");
        if body.contains("\"state\":\"done\"") {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }

    let streamed = demux(srv.port, job);
    let local = tmp("e2e-local");
    render_local(&names, &local);
    assert_eq!(
        streamed.len(),
        2,
        "fig02 + fig03 write files, fig05 does not"
    );
    for (file, content) in &streamed {
        let expect = std::fs::read_to_string(local.join(file)).unwrap();
        assert_eq!(
            content, &expect,
            "{file}: farm-streamed rows must be byte-identical to the local render"
        );
    }

    // Resubmitting the identical job costs nothing: all cells resolve as
    // cached, nothing queues, and the stream still matches.
    let (status, reply) = post_job(
        srv.port,
        "{\"client\":\"t2\",\"scale\":\"tiny\",\"seed\":1,\"figures\":\"fig02,fig03,fig05\"}",
    );
    assert_eq!(status, 200);
    let r = parse_object(&reply).unwrap();
    assert_eq!(r.req_u64("queued").unwrap(), 0, "{reply}");
    assert_eq!(r.req_u64("cached").unwrap(), r.req_u64("unique").unwrap());
    let again = demux(srv.port, r.req_u64("job").unwrap());
    assert_eq!(
        again, streamed,
        "warm resubmission must stream the same bytes"
    );

    // The shard store the job left behind is a valid warm sweep cache:
    // an in-process run over the same cells simulates nothing and the
    // renders agree byte-for-byte with the farm stream.
    let specs: Vec<_> = registry(Scale::Tiny, 1)
        .into_iter()
        .filter(|s| names.contains(&s.name))
        .collect();
    let cells: Vec<_> = specs.iter().flat_map(|s| s.cells.iter().copied()).collect();
    let cfg = SweepConfig {
        cache_path: Some(&cache),
        shards: 4,
        ..SweepConfig::default()
    };
    let (warm_store, stats) = run_sweep(&cells, &cfg);
    assert_eq!(stats.simulated, 0, "farm rows must warm-start the sweep");
    assert_eq!(stats.from_cache, stats.unique);
    let warm = tmp("e2e-warm");
    std::fs::create_dir_all(&warm).unwrap();
    for spec in &specs {
        (spec.render)(&warm_store, &warm);
    }
    for (file, content) in &streamed {
        let got = std::fs::read_to_string(warm.join(file)).unwrap();
        assert_eq!(&got, content, "{file}: warm reload must be byte-exact");
    }

    // A server restart over the same store indexes the rows and serves
    // the whole job from disk — no simulation.
    srv.exec.shutdown();
    let srv2 = boot(&cache, |_| {});
    assert!(srv2.exec.indexed_rows() > 0, "restart must index disk rows");
    let (status, reply) = post_job(
        srv2.port,
        "{\"client\":\"t3\",\"scale\":\"tiny\",\"seed\":1,\"figures\":\"fig02,fig03,fig05\"}",
    );
    assert_eq!(status, 200);
    let r = parse_object(&reply).unwrap();
    assert_eq!(r.req_u64("queued").unwrap(), 0, "{reply}");
    let restreamed = demux(srv2.port, r.req_u64("job").unwrap());
    assert_eq!(restreamed, streamed, "disk-served rows must match");
    srv2.exec.shutdown();

    for d in [&cache, &local, &warm] {
        let _ = std::fs::remove_dir_all(d);
    }
}

#[test]
fn health_compact_and_status_round_trip() {
    let cache = tmp("health");
    let srv = boot(&cache, |_| {});
    let (s, body) =
        ldsim_server::wire::request("127.0.0.1", srv.port, "GET", "/v1/health", "").unwrap();
    assert_eq!(s, 200);
    let h = parse_object(&body).unwrap();
    assert!(h.req_bool("ok").unwrap());
    assert_eq!(h.req_str("salt").unwrap(), ldsim_system::ENGINE_SALT);

    // fig05 declares zero cells: submit-to-done is immediate, and the
    // stream is a note plus trailer.
    let (s, reply) = post_job(srv.port, "{\"scale\":\"tiny\",\"figures\":\"fig05\"}");
    assert_eq!(s, 200, "{reply}");
    let job = parse_object(&reply).unwrap().req_u64("job").unwrap();
    let (s, body) =
        ldsim_server::wire::request("127.0.0.1", srv.port, "GET", &format!("/v1/jobs/{job}"), "")
            .unwrap();
    assert_eq!(s, 200);
    assert!(body.contains("\"state\":\"done\""), "{body}");
    assert!(body.contains("\"total\":0"), "{body}");
    assert!(demux(srv.port, job).is_empty(), "fig05 writes no file");

    // Online compaction of the (empty) store answers with stats.
    let (s, body) =
        ldsim_server::wire::request("127.0.0.1", srv.port, "POST", "/v1/compact", "").unwrap();
    assert_eq!(s, 200);
    assert!(body.contains("\"rows_kept\":0"), "{body}");
    srv.exec.shutdown();
    let _ = std::fs::remove_dir_all(&cache);
}

#[test]
fn forged_instruction_count_fails_the_figure_and_the_job() {
    // Warm a Tiny fig08 store, then add 1 to one bfs row's instruction
    // count. Its key, salt, config fingerprint and benchmark stay valid,
    // so the row is served; the cross-scheduler check must catch it.
    let cache = tmp("forged");
    let fig08 = registry(Scale::Tiny, 1)
        .into_iter()
        .find(|s| s.name == "fig08")
        .unwrap();
    let cfg = SweepConfig {
        cache_path: Some(&cache),
        shards: 4,
        ..SweepConfig::default()
    };
    run_sweep(&fig08.cells, &cfg);
    let (shard, text) = std::fs::read_dir(&cache)
        .unwrap()
        .map(|e| e.unwrap().path())
        .map(|p| (p.clone(), std::fs::read_to_string(p).unwrap()))
        .find(|(_, t)| t.contains("\"benchmark\":\"bfs\""))
        .unwrap();
    let row = text.lines().find(|l| l.contains("\"bfs\"")).unwrap();
    let n = parse_object(row).unwrap().req_u64("instructions").unwrap();
    let forged = row.replace(
        &format!("\"instructions\":{n},"),
        &format!("\"instructions\":{},", n + 1),
    );
    std::fs::write(&shard, text.replace(row, &forged)).unwrap();

    let srv = boot(&cache, |_| {});
    let (_, reply) = post_job(srv.port, "{\"scale\":\"tiny\",\"figures\":\"fig08\"}");
    let r = parse_object(&reply).unwrap();
    assert_eq!(r.req_u64("queued").unwrap(), 0, "every cell is on disk");
    let job = r.req_u64("job").unwrap();
    let path = format!("/v1/jobs/{job}");
    let (_, mut stream) =
        ldsim_server::wire::open_stream("127.0.0.1", srv.port, &format!("{path}/stream")).unwrap();
    let mut body = String::new();
    std::io::Read::read_to_string(&mut stream, &mut body).unwrap();
    let last = parse_object(body.lines().last().unwrap()).unwrap();
    assert_eq!(last.req_str("error"), Ok("figure_failed"), "{body}");
    assert_eq!(last.req_str("figure"), Ok("fig08"));
    let detail = last.req_str("detail").unwrap();
    assert!(
        detail.starts_with("bfs: ") && detail.contains("different instruction count"),
        "{detail}"
    );
    let (_, status) = ldsim_server::wire::request("127.0.0.1", srv.port, "GET", &path, "").unwrap();
    let st = parse_object(&status).unwrap();
    assert_eq!(st.req_str("state"), Ok("failed"), "{status}");
    assert!(
        st.req_str("job_error").unwrap().starts_with("bfs: "),
        "{status}"
    );
    srv.exec.shutdown();
    let _ = std::fs::remove_dir_all(&cache);
}
