//! A minimal, dependency-free HTTP/1.1 front end over [`std::net`].
//!
//! The server speaks just enough HTTP for a local job API: one request
//! per connection (`Connection: close`), bodies sized by
//! `Content-Length`, JSON in and JSON out. Routes:
//!
//! | Method | Path            | Behavior                                      |
//! |--------|-----------------|-----------------------------------------------|
//! | POST   | `/v1/batch`     | Run a batch synchronously; body is the result |
//! | POST   | `/v1/jobs`      | Submit a batch; returns `{"job": <id>}` (202) |
//! | GET    | `/v1/jobs/<id>` | Poll an async job (`running` / result)        |
//! | GET    | `/metrics`      | Prometheus text exposition                    |
//! | GET    | `/healthz`      | Liveness (`ok`)                               |
//!
//! Connections are handled on one thread each — request concurrency maps
//! directly onto the service's dedup table, which is exactly the contract
//! the "identical in-flight jobs compute once" tests pin down.

use crate::api::BatchRequest;
use crate::service::SweepService;
use simkit::json::Json;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// Largest accepted request body (a batch of thousands of points fits in
/// a fraction of this; anything bigger is a client error, not a job).
const MAX_BODY: usize = 8 * 1024 * 1024;

/// Longest accepted request or header line, newline included. Reading
/// stops one byte past it, so a longer line is refused without being
/// buffered.
const MAX_LINE: usize = 8 * 1024;

/// Most header lines accepted in one request.
const MAX_HEADERS: usize = 100;

/// How long a read may wait for the client before the connection is
/// dropped, so a stalled client cannot hold its handler thread forever.
const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// How long a write may wait for the client to drain its receive buffer,
/// so a client that never reads its response cannot pin the handler
/// thread either.
const WRITE_TIMEOUT: Duration = Duration::from_secs(30);

/// Arms both socket timeouts on an accepted connection.
fn configure_stream(stream: &TcpStream) -> std::io::Result<()> {
    stream.set_read_timeout(Some(READ_TIMEOUT))?;
    stream.set_write_timeout(Some(WRITE_TIMEOUT))
}

/// One parsed request.
#[derive(Debug)]
struct Request {
    method: String,
    path: String,
    body: String,
}

/// Reads one line of at most [`MAX_LINE`] bytes; `None` for a longer
/// line, a read error or a timeout.
fn read_line(reader: &mut impl BufRead) -> Option<String> {
    let mut line = Vec::new();
    reader
        .take(MAX_LINE as u64 + 1)
        .read_until(b'\n', &mut line)
        .ok()?;
    if line.len() > MAX_LINE {
        return None;
    }
    String::from_utf8(line).ok()
}

/// Reads one HTTP/1.1 request from the stream. `None` means the client
/// hung up, stalled past [`READ_TIMEOUT`], sent an over-long line or too
/// many headers, or sent something unparseable.
fn read_request(stream: &mut TcpStream) -> Option<Request> {
    let mut reader = BufReader::new(stream);
    let line = read_line(&mut reader)?;
    let mut parts = line.split_whitespace();
    let method = parts.next()?.to_string();
    let path = parts.next()?.to_string();
    let mut content_length = 0usize;
    let mut headers = 0;
    loop {
        let header = read_line(&mut reader)?;
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        headers += 1;
        if headers > MAX_HEADERS {
            return None;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().ok()?;
            }
        }
    }
    if content_length > MAX_BODY {
        return None;
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).ok()?;
    Some(Request {
        method,
        path,
        body: String::from_utf8(body).ok()?,
    })
}

fn respond(stream: &mut TcpStream, status: &str, content_type: &str, body: &str) {
    let head = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    // A client that hung up mid-response is its own problem.
    let _ = stream.write_all(head.as_bytes());
    let _ = stream.write_all(body.as_bytes());
    let _ = stream.flush();
}

fn error_body(msg: &str) -> String {
    let mut j = Json::obj();
    j.set("error", Json::from(msg));
    j.render()
}

/// Routes one request.
fn handle(service: &Arc<SweepService>, req: &Request, stream: &mut TcpStream) {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => respond(stream, "200 OK", "text/plain", "ok\n"),
        ("GET", "/metrics") => respond(
            stream,
            "200 OK",
            "text/plain; version=0.0.4",
            &service.prometheus(),
        ),
        ("POST", "/v1/batch") => match BatchRequest::parse(&req.body) {
            Ok(batch) => {
                let resp = service.run_batch(&batch);
                respond(stream, "200 OK", "application/json", &resp.render());
            }
            Err(e) => respond(
                stream,
                "400 Bad Request",
                "application/json",
                &error_body(&e.0),
            ),
        },
        ("POST", "/v1/jobs") => match BatchRequest::parse(&req.body) {
            Ok(batch) => {
                let id = service.submit(batch);
                let mut j = Json::obj();
                j.set("job", Json::from(id))
                    .set("poll", Json::from(format!("/v1/jobs/{id}")));
                respond(stream, "202 Accepted", "application/json", &j.render());
            }
            Err(e) => respond(
                stream,
                "400 Bad Request",
                "application/json",
                &error_body(&e.0),
            ),
        },
        ("GET", path) if path.starts_with("/v1/jobs/") => {
            let id = path["/v1/jobs/".len()..].parse::<u64>().ok();
            match id.and_then(|id| service.job_result(id)) {
                Some(Some(body)) => respond(stream, "200 OK", "application/json", &body),
                Some(None) => {
                    let mut j = Json::obj();
                    j.set("state", Json::from("running"));
                    respond(stream, "200 OK", "application/json", &j.render());
                }
                None => respond(
                    stream,
                    "404 Not Found",
                    "application/json",
                    &error_body("unknown job id"),
                ),
            }
        }
        _ => respond(
            stream,
            "404 Not Found",
            "application/json",
            &error_body("unknown route"),
        ),
    }
}

/// Accepts connections forever, one handler thread per connection.
pub fn serve(service: Arc<SweepService>, listener: TcpListener) -> ! {
    loop {
        let Ok((mut stream, _)) = listener.accept() else {
            continue;
        };
        if configure_stream(&stream).is_err() {
            continue;
        }
        let service = Arc::clone(&service);
        std::thread::spawn(move || {
            if let Some(req) = read_request(&mut stream) {
                handle(&service, &req, &mut stream);
            }
        });
    }
}

/// Binds `addr`, spawns the accept loop on a background thread and
/// returns the bound address (port 0 resolves to the real port). Used by
/// the in-process tests; the binary calls [`serve`] directly.
pub fn spawn(service: Arc<SweepService>, addr: &str) -> std::io::Result<std::net::SocketAddr> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    std::thread::spawn(move || serve(service, listener));
    Ok(local)
}

/// A tiny blocking HTTP client for tests and the bench harness: sends
/// one request, returns `(status_code, body)`.
pub fn request(
    addr: std::net::SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    let req = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(req.as_bytes())?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let status = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "bad status line"))?;
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok((status, body))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_server() -> (Arc<SweepService>, std::net::SocketAddr) {
        let service = Arc::new(SweepService::new(None, 2).expect("service"));
        let addr = spawn(Arc::clone(&service), "127.0.0.1:0").expect("bind");
        (service, addr)
    }

    #[test]
    fn accepted_streams_carry_read_and_write_timeouts() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let _client = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (stream, _) = listener.accept().expect("accept");
        configure_stream(&stream).expect("configure");
        assert_eq!(stream.read_timeout().expect("read"), Some(READ_TIMEOUT));
        assert_eq!(stream.write_timeout().expect("write"), Some(WRITE_TIMEOUT));
    }

    #[test]
    fn healthz_and_unknown_routes() {
        let (_service, addr) = test_server();
        let (status, body) = request(addr, "GET", "/healthz", "").expect("request");
        assert_eq!((status, body.as_str()), (200, "ok\n"));
        let (status, _) = request(addr, "GET", "/nope", "").expect("request");
        assert_eq!(status, 404);
    }

    #[test]
    fn batch_round_trip_and_metrics() {
        let (_service, addr) = test_server();
        let body = r#"{"jobs": [{"preset": "uni-parallel-mesh", "rates": [0.02]}]}"#;
        let (status, resp) = request(addr, "POST", "/v1/batch", body).expect("request");
        assert_eq!(status, 200, "{resp}");
        let parsed = simkit::json::parse(&resp).expect("response is JSON");
        let points = parsed.get("jobs").unwrap().as_arr().unwrap()[0]
            .get("points")
            .unwrap()
            .as_arr()
            .unwrap();
        assert_eq!(points.len(), 1);
        assert_eq!(
            points[0].get("source").and_then(Json::as_str),
            Some("computed")
        );
        let (status, metrics) = request(addr, "GET", "/metrics", "").expect("request");
        assert_eq!(status, 200);
        assert!(metrics.contains("serve_points_total 1"));
    }

    #[test]
    fn over_long_header_line_is_refused_without_buffering_it() {
        let (_service, addr) = test_server();
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(READ_TIMEOUT / 2))
            .expect("client timeout");
        // A header line twice the bound, never terminated: a server that
        // buffered until the newline would wait for more bytes until its
        // read timeout.
        let mut req = b"POST /v1/batch HTTP/1.1\r\nX-Filler: ".to_vec();
        req.resize(req.len() + 2 * MAX_LINE, b'a');
        let started = std::time::Instant::now();
        // The server may close (and reset) the connection mid-write.
        let _ = stream.write_all(&req);
        let mut reply = Vec::new();
        let _ = stream.read_to_end(&mut reply);
        assert!(
            started.elapsed() < READ_TIMEOUT / 2,
            "the server waited for the rest of the line"
        );
        assert!(reply.is_empty(), "no response to a refused request");
        // The server still answers well-formed requests.
        let (status, _) = request(addr, "GET", "/healthz", "").expect("request");
        assert_eq!(status, 200);
    }

    #[test]
    fn malformed_batch_is_a_400() {
        let (_service, addr) = test_server();
        let (status, resp) = request(addr, "POST", "/v1/batch", "{}").expect("request");
        assert_eq!(status, 400);
        assert!(resp.contains("jobs"));
    }

    #[test]
    fn async_job_lifecycle_over_http() {
        let (_service, addr) = test_server();
        let body = r#"{"jobs": [{"preset": "uni-parallel-mesh", "rates": [0.02]}]}"#;
        let (status, resp) = request(addr, "POST", "/v1/jobs", body).expect("submit");
        assert_eq!(status, 202, "{resp}");
        let parsed = simkit::json::parse(&resp).expect("submit response is JSON");
        let poll = parsed
            .get("poll")
            .and_then(Json::as_str)
            .expect("poll path")
            .to_string();
        let mut tries = 0;
        loop {
            let (status, resp) = request(addr, "GET", &poll, "").expect("poll");
            assert_eq!(status, 200);
            let parsed = simkit::json::parse(&resp).expect("poll response is JSON");
            if parsed.get("state").and_then(Json::as_str) == Some("running") {
                tries += 1;
                assert!(tries < 600, "async job never finished");
                std::thread::sleep(std::time::Duration::from_millis(10));
                continue;
            }
            assert!(parsed.get("jobs").is_some(), "{resp}");
            break;
        }
        let (status, _) = request(addr, "GET", "/v1/jobs/424242", "").expect("poll unknown");
        assert_eq!(status, 404);
    }
}
