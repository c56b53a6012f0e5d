//! `ldsim-server`: the sweep farm service (DESIGN.md §19).
//!
//! A long-running process that accepts sweep jobs over a hand-rolled
//! HTTP/1.1 subset ([`http`]), dedupes the submitted cells against every
//! in-flight and cached result by content-addressed cellkey ([`exec`]),
//! runs the remainder on a worker pool, and streams each figure's rendered
//! rows back as JSONL the moment its cells resolve. The disk half is the
//! same sharded cell store the `repro` binary writes
//! ([`ldsim_system::ShardMap`]), so farm results and local results are one
//! cache — byte-identical rows, one compaction policy.
//!
//! ## Endpoints
//!
//! | method & path            | reply                                        |
//! |--------------------------|----------------------------------------------|
//! | `POST /v1/jobs`          | `{"job":N,...}` or a named `4xx`/`429`       |
//! | `GET  /v1/jobs/<id>`     | `{"state":"running"\|"done"\|"failed",...}`  |
//! | `GET  /v1/jobs/<id>/stream` | JSONL: header, per-figure records, trailer |
//! | `POST /v1/compact`       | compaction stats                             |
//! | `GET  /v1/health`        | liveness + counters                          |
//!
//! Every error path answers with a named JSON error (`bad_job_json`,
//! `unknown_figure`, `over_capacity`, …) — see DESIGN.md §19 for the full
//! grammar and the framing of the stream body.

#![forbid(unsafe_code)]

pub mod exec;
pub mod http;
pub mod wire;

pub use exec::{
    parse_scale, Exec, ExecConfig, FigureOutput, JobRequest, JobStatus, Rejection, SubmitReply,
};

use ldsim_util::JsonObject;
use std::io::Write as _;
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;

/// A running listener: the bound port (useful with `--port 0`) and the
/// exec it serves.
pub struct ServeHandle {
    pub port: u16,
    pub exec: Arc<Exec>,
}

/// Bind `127.0.0.1:port` (0 = ephemeral) and serve `exec` on a background
/// accept loop. Returns once the socket is listening — callers print the
/// "listening" line themselves so tests and the binary share this path.
pub fn spawn_server(exec: Arc<Exec>, port: u16) -> std::io::Result<ServeHandle> {
    let listener = TcpListener::bind(("127.0.0.1", port))?;
    let port = listener.local_addr()?.port();
    let accept_exec = exec.clone();
    std::thread::spawn(move || {
        for conn in listener.incoming() {
            let Ok(stream) = conn else { continue };
            let e = accept_exec.clone();
            // Thread-per-connection: connections are few (clients, CI) and
            // the real concurrency lives in the worker pool.
            std::thread::spawn(move || handle_conn(stream, e));
        }
    });
    Ok(ServeHandle { port, exec })
}

fn error_body(name: &str, detail: &str) -> String {
    JsonObject::new()
        .str("error", name)
        .str("detail", detail)
        .build()
}

fn handle_conn(mut stream: TcpStream, exec: Arc<Exec>) {
    let req = match http::read_request(&stream) {
        Ok(r) => r,
        Err(http::RequestError::BadRequest(d)) => {
            let _ = http::respond_json(
                &mut stream,
                400,
                "Bad Request",
                &error_body("bad_request", &d),
            );
            return;
        }
        Err(http::RequestError::TooLarge(d)) => {
            let _ = http::respond_json(
                &mut stream,
                413,
                "Payload Too Large",
                &error_body("too_large", &d),
            );
            return;
        }
        // The socket died mid-request: nobody is listening for a reply.
        Err(http::RequestError::Io(_)) => return,
    };
    // Every handler returns io::Result so a vanished client unwinds this
    // connection thread cleanly without touching the worker pool.
    let _ = route(&mut stream, &exec, &req);
}

fn route(stream: &mut TcpStream, exec: &Exec, req: &http::Request) -> std::io::Result<()> {
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/v1/jobs") => post_job(stream, exec, &req.body),
        ("GET", "/v1/health") => {
            let (pending, completed, failed, jobs) = exec.health();
            let body = JsonObject::new()
                .bool("ok", true)
                .u64("pending", pending as u64)
                .u64("completed", completed as u64)
                .u64("failed", failed as u64)
                .u64("jobs", jobs as u64)
                .u64("indexed_rows", exec.indexed_rows() as u64)
                .str("salt", ldsim_system::ENGINE_SALT)
                .build();
            http::respond_json(stream, 200, "OK", &body)
        }
        ("POST", "/v1/compact") => {
            let s = exec.compact();
            let body = JsonObject::new()
                .u64("rows_kept", s.rows_kept as u64)
                .u64("rows_stale", s.rows_stale as u64)
                .u64("rows_torn", s.rows_torn as u64)
                .u64("rows_superseded", s.rows_superseded as u64)
                .u64("rows_misplaced", s.rows_misplaced as u64)
                .u64("bytes_before", s.bytes_before)
                .u64("bytes_after", s.bytes_after)
                .build();
            http::respond_json(stream, 200, "OK", &body)
        }
        (method, path) => {
            if let Some(rest) = path.strip_prefix("/v1/jobs/") {
                let (id_str, is_stream) = match rest.strip_suffix("/stream") {
                    Some(id) => (id, true),
                    None => (rest, false),
                };
                let Ok(job) = id_str.parse::<u64>() else {
                    return http::respond_json(
                        stream,
                        400,
                        "Bad Request",
                        &error_body("bad_job_id", &format!("not a job id: '{id_str}'")),
                    );
                };
                if method != "GET" {
                    return method_not_allowed(stream, method, path);
                }
                if is_stream {
                    return stream_job(stream, exec, job);
                }
                return job_status(stream, exec, job);
            }
            if matches!(path, "/v1/jobs" | "/v1/health" | "/v1/compact") {
                return method_not_allowed(stream, method, path);
            }
            http::respond_json(
                stream,
                404,
                "Not Found",
                &error_body("unknown_endpoint", &format!("no endpoint at {path}")),
            )
        }
    }
}

fn method_not_allowed(stream: &mut TcpStream, method: &str, path: &str) -> std::io::Result<()> {
    http::respond_json(
        stream,
        405,
        "Method Not Allowed",
        &error_body(
            "method_not_allowed",
            &format!("{method} is not valid on {path}"),
        ),
    )
}

fn post_job(stream: &mut TcpStream, exec: &Exec, body: &str) -> std::io::Result<()> {
    let Ok(p) = ldsim_util::parse_object(body) else {
        return http::respond_json(
            stream,
            400,
            "Bad Request",
            &error_body("bad_job_json", "request body is not a flat JSON object"),
        );
    };
    let scale = match p.req_str("scale").ok().and_then(parse_scale) {
        Some(s) => s,
        None => {
            return http::respond_json(
                stream,
                400,
                "Bad Request",
                &error_body("bad_scale", "'scale' must be tiny, small, or full"),
            )
        }
    };
    let req = JobRequest {
        client: p.req_str("client").unwrap_or("anon").to_string(),
        scale,
        seed: p.req_u64("seed").unwrap_or(1),
        figures: p.req_str("figures").ok().and_then(|f| {
            let names: Vec<String> = f
                .split(',')
                .map(|s| s.trim().to_string())
                .filter(|s| !s.is_empty())
                .collect();
            // "all" (or an empty list) means the whole registry.
            if names.is_empty() || names == ["all"] {
                None
            } else {
                Some(names)
            }
        }),
    };
    match exec.submit(&req) {
        Ok(r) => {
            let body = JsonObject::new()
                .u64("job", r.job)
                .u64("declared", r.declared as u64)
                .u64("unique", r.unique as u64)
                .u64("cached", r.cached as u64)
                .u64("shared", r.shared as u64)
                .u64("queued", r.queued as u64)
                .build();
            http::respond_json(stream, 200, "OK", &body)
        }
        Err(rej) => {
            let (status, reason) = match rej {
                Rejection::UnknownFigure(_) => (400, "Bad Request"),
                _ => (429, "Too Many Requests"),
            };
            http::respond_json(
                stream,
                status,
                reason,
                &error_body(rej.name(), &rej.detail()),
            )
        }
    }
}

fn job_status(stream: &mut TcpStream, exec: &Exec, job: u64) -> std::io::Result<()> {
    let Some(s) = exec.status(job) else {
        return http::respond_json(
            stream,
            404,
            "Not Found",
            &error_body("unknown_job", &format!("no job {job}")),
        );
    };
    let mut b = JsonObject::new();
    b.u64("job", job)
        .str("state", s.state)
        .u64("total", s.total as u64)
        .u64("done", s.done as u64);
    if let Some(e) = &s.error {
        b.str("job_error", e);
    }
    http::respond_json(stream, 200, "OK", &b.build())
}

/// Stream a job's figures as framed JSONL (DESIGN.md §19): one header
/// record, then per figure either a `{"file":...,"rows":N}` record
/// followed by exactly N verbatim row lines or a no-file note, and a
/// `{"done":true,...}` trailer. A write error at any point means the
/// client hung up — the connection drops cleanly and the worker pool never
/// notices.
fn stream_job(stream: &mut TcpStream, exec: &Exec, job: u64) -> std::io::Result<()> {
    let Some(figures) = exec.figure_count(job) else {
        return http::respond_json(
            stream,
            404,
            "Not Found",
            &error_body("unknown_job", &format!("no job {job}")),
        );
    };
    http::stream_head(stream)?;
    let header = JsonObject::new()
        .u64("job", job)
        .u64("figures", figures as u64)
        .build();
    writeln!(stream, "{header}")?;
    let (mut files, mut rows) = (0u64, 0u64);
    for idx in 0..figures {
        // figure_count succeeded, so the job exists; per-figure None is
        // unreachable, but a vanished job must not kill the thread.
        let Some((name, output)) = exec.wait_figure(job, idx) else {
            break;
        };
        match output {
            FigureOutput::File { file, content } => {
                let n = content.lines().count() as u64;
                let rec = JsonObject::new().str("file", &file).u64("rows", n).build();
                writeln!(stream, "{rec}")?;
                stream.write_all(content.as_bytes())?;
                files += 1;
                rows += n;
            }
            FigureOutput::NoFile => {
                let rec = JsonObject::new().str("figure", name).u64("rows", 0).build();
                writeln!(stream, "{rec}")?;
            }
            FigureOutput::Failed { error } => {
                // Close without a trailer: the client reports truncation
                // with the reason in hand.
                let rec = JsonObject::new()
                    .str("error", "figure_failed")
                    .str("figure", name)
                    .str("detail", &error)
                    .build();
                writeln!(stream, "{rec}")?;
                return stream.flush();
            }
        }
        stream.flush()?;
    }
    let trailer = JsonObject::new()
        .bool("done", true)
        .u64("files", files)
        .u64("rows", rows)
        .build();
    writeln!(stream, "{trailer}")?;
    stream.flush()
}
