//! Minimal HTTP/1.1 plumbing over `std::net`.
//!
//! The serving layer deliberately has **zero external dependencies**: the
//! build environments this workspace targets include offline sandboxes
//! where crates.io is unreachable (see `tools/offline-check.sh`), so an
//! async stack (tokio/hyper) is not available to depend on. A
//! thread-per-connection `std::net` server is entirely adequate here —
//! request handling is either trivial (status lookups) or dominated by
//! simulation work that runs on the job executor's own worker pool, not
//! on connection threads.
//!
//! Every response closes its connection (`Connection: close`), which
//! lets the streaming endpoints (JSON-lines results, SSE events) write
//! unbounded bodies without chunked framing: the body simply ends when
//! the connection does.

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Default upper bound on accepted request bodies (a full 4096-point
/// sweep request is far below this). Override per server with
/// [`crate::Server::with_body_limit`].
pub const DEFAULT_MAX_BODY: usize = 4 << 20;

/// Upper bound on the request line plus all headers, in bytes.
const MAX_HEAD: u64 = 16 << 10;

/// Longest a connection may sit silent while its request is being read.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(10);

/// A request-parse failure carrying the HTTP status it should produce:
/// `408` for a client that stops sending mid-request, `411` for a
/// body-bearing method without `Content-Length`, `413` for a body over
/// the configured limit, `431` for a request line plus headers over
/// 16 KiB, `400` for everything else.
#[derive(Debug, PartialEq, Eq)]
pub struct HttpError {
    /// HTTP status code for the error response.
    pub status: u16,
    /// Human-readable message (goes into the `{"error": …}` body).
    pub message: String,
}

impl HttpError {
    fn bad_request(message: impl Into<String>) -> Self {
        Self {
            status: 400,
            message: message.into(),
        }
    }

    /// A failed socket read: `408` when the read timeout expired (which
    /// the platform reports as `WouldBlock` or `TimedOut`), else `400`.
    fn read_failed(e: &std::io::Error) -> Self {
        match e.kind() {
            ErrorKind::WouldBlock | ErrorKind::TimedOut => Self {
                status: 408,
                message: "timed out waiting for the request".to_owned(),
            },
            _ => Self::bad_request(e.to_string()),
        }
    }
}

/// A parsed HTTP request.
#[derive(Debug)]
pub struct Request {
    /// Request method (`GET`, `POST`, …).
    pub method: String,
    /// Request path, query string stripped.
    pub path: String,
    /// Request body (empty when none was sent).
    pub body: String,
}

impl Request {
    /// The `/`-separated path segments, empties elided.
    pub fn segments(&self) -> Vec<&str> {
        self.path.split('/').filter(|s| !s.is_empty()).collect()
    }
}

/// Reads and parses one request from `stream`, accepting bodies up to
/// `max_body` bytes.
///
/// # Errors
///
/// Returns an [`HttpError`] on malformed request lines/headers (`400`),
/// a client silent for 10 s before the request is complete (`408` — it
/// would otherwise pin its connection thread forever), a `POST`/`PUT`
/// without `Content-Length` (`411` — previously the body was silently
/// treated as empty), a declared body over `max_body` (`413` — rejected
/// before allocating, so a hostile `Content-Length` cannot reserve
/// memory), or a request line plus headers over 16 KiB (`431` — a line
/// that never ends cannot grow a buffer without limit).
pub fn read_request(stream: &mut TcpStream, max_body: usize) -> Result<Request, HttpError> {
    read_request_within(stream, max_body, REQUEST_TIMEOUT)
}

/// [`read_request`] with an explicit read timeout, which stays on the
/// socket (responses only write).
fn read_request_within(
    stream: &mut TcpStream,
    max_body: usize,
    timeout: Duration,
) -> Result<Request, HttpError> {
    let io_error = |e: std::io::Error| HttpError::bad_request(e.to_string());
    stream.set_read_timeout(Some(timeout)).map_err(io_error)?;
    let mut reader = BufReader::new(stream.try_clone().map_err(io_error)?);
    // The head is read through a byte budget; a line cut short by it has
    // no terminator.
    let mut head = reader.by_ref().take(MAX_HEAD);
    let mut read_head_line = |line: &mut String| {
        let n = head
            .read_line(line)
            .map_err(|e| HttpError::read_failed(&e))?;
        if head.limit() == 0 && !line.ends_with('\n') {
            return Err(HttpError {
                status: 431,
                message: format!("request line and headers exceed {MAX_HEAD} bytes"),
            });
        }
        Ok(n)
    };
    let mut line = String::new();
    read_head_line(&mut line)?;
    let mut parts = line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| HttpError::bad_request("empty request line"))?
        .to_owned();
    let target = parts
        .next()
        .ok_or_else(|| HttpError::bad_request("request line has no target"))?;
    let path = target.split('?').next().unwrap_or(target).to_owned();

    let mut content_length: Option<usize> = None;
    loop {
        let mut header = String::new();
        let n = read_head_line(&mut header)?;
        let header = header.trim_end();
        if n == 0 || header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = Some(value.trim().parse().map_err(|_| {
                    HttpError::bad_request(format!("bad content-length `{}`", value.trim()))
                })?);
            }
        }
    }
    let content_length = match content_length {
        Some(n) => n,
        // A body-bearing method must declare its length; guessing
        // "empty" silently drops the body the client is sending.
        None if matches!(method.as_str(), "POST" | "PUT") => {
            return Err(HttpError {
                status: 411,
                message: format!("{method} requires a Content-Length header"),
            })
        }
        None => 0,
    };
    if content_length > max_body {
        return Err(HttpError {
            status: 413,
            message: format!("body of {content_length} bytes exceeds limit of {max_body}"),
        });
    }
    let mut body = vec![0u8; content_length];
    reader
        .read_exact(&mut body)
        .map_err(|e| HttpError::read_failed(&e))?;
    Ok(Request {
        method,
        path,
        body: String::from_utf8_lossy(&body).into_owned(),
    })
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        411 => "Length Required",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        _ => "Internal Server Error",
    }
}

/// Writes a complete response with a known body and closes the exchange.
///
/// # Errors
///
/// Returns the I/O error when the client hung up mid-write.
pub fn respond(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    write!(
        stream,
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        reason(status),
        body.len(),
    )?;
    stream.flush()
}

/// Writes a JSON response.
///
/// # Errors
///
/// Returns the I/O error when the client hung up mid-write.
pub fn respond_json(stream: &mut TcpStream, status: u16, body: &str) -> std::io::Result<()> {
    respond(stream, status, "application/json", body)
}

/// Writes an error response as `{"error": …}`.
///
/// # Errors
///
/// Returns the I/O error when the client hung up mid-write.
pub fn respond_error(stream: &mut TcpStream, status: u16, message: &str) -> std::io::Result<()> {
    respond_json(
        stream,
        status,
        &format!("{{\"error\":{}}}", json_string(message)),
    )
}

/// Starts a streamed (connection-delimited) response body: status line
/// and headers only; the caller then writes the body incrementally and
/// closes the connection to end it.
///
/// # Errors
///
/// Returns the I/O error when the client hung up mid-write.
pub fn start_stream(stream: &mut TcpStream, content_type: &str) -> std::io::Result<()> {
    write!(
        stream,
        "HTTP/1.1 200 OK\r\nContent-Type: {content_type}\r\nCache-Control: no-store\r\nConnection: close\r\n\r\n"
    )?;
    stream.flush()
}

/// Writes one Server-Sent-Events record (`event:`/`data:` lines plus the
/// blank-line terminator) and flushes so the client sees it immediately.
///
/// # Errors
///
/// Returns the I/O error when the client hung up mid-write.
pub fn write_sse_event(stream: &mut TcpStream, event: &str, data: &str) -> std::io::Result<()> {
    write!(stream, "event: {event}\ndata: {data}\n\n")?;
    stream.flush()
}

/// Renders a JSON string literal (quotes and escapes included).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn parse_raw(raw: &str, max_body: usize) -> Result<Request, HttpError> {
        parse_raw_within(raw, max_body, REQUEST_TIMEOUT)
    }

    /// Parses `raw` as sent by a client that then keeps its connection
    /// open, silent, until the server side has returned.
    fn parse_raw_within(
        raw: &str,
        max_body: usize,
        timeout: Duration,
    ) -> Result<Request, HttpError> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let t = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            read_request_within(&mut stream, max_body, timeout)
        });
        let mut client = TcpStream::connect(addr).unwrap();
        client.write_all(raw.as_bytes()).unwrap();
        t.join().unwrap()
    }

    #[test]
    fn parses_a_post_with_body() {
        let req = parse_raw(
            "POST /v1/sweeps?x=1 HTTP/1.1\r\nHost: t\r\nContent-Length: 7\r\n\r\n{\"a\":1}",
            DEFAULT_MAX_BODY,
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/sweeps");
        assert_eq!(req.segments(), vec!["v1", "sweeps"]);
        assert_eq!(req.body, "{\"a\":1}");
    }

    #[test]
    fn get_without_content_length_is_fine() {
        let req = parse_raw("GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n", DEFAULT_MAX_BODY).unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.body, "");
    }

    #[test]
    fn post_without_content_length_is_411() {
        let err = parse_raw(
            "POST /v1/sweeps HTTP/1.1\r\nHost: t\r\n\r\n",
            DEFAULT_MAX_BODY,
        )
        .unwrap_err();
        assert_eq!(err.status, 411);
    }

    #[test]
    fn oversized_body_is_413() {
        let err =
            parse_raw("POST /v1/sweeps HTTP/1.1\r\nContent-Length: 64\r\n\r\n", 16).unwrap_err();
        assert_eq!(err.status, 413);
        assert!(err.message.contains("64"), "{}", err.message);
    }

    #[test]
    fn bad_content_length_is_400() {
        let err = parse_raw(
            "POST /v1/sweeps HTTP/1.1\r\nContent-Length: lots\r\n\r\n",
            DEFAULT_MAX_BODY,
        )
        .unwrap_err();
        assert_eq!(err.status, 400);
    }

    #[test]
    fn silent_client_is_408() {
        let timeout = Duration::from_millis(50);
        // Nothing at all, half a request line, headers that never end, a
        // body shorter than declared.
        for raw in [
            "",
            "GET /heal",
            "GET /healthz HTTP/1.1\r\nHost: t\r\n",
            "POST /v1/sweeps HTTP/1.1\r\nContent-Length: 7\r\n\r\n{\"a\"",
        ] {
            let err = parse_raw_within(raw, DEFAULT_MAX_BODY, timeout).unwrap_err();
            assert_eq!(err.status, 408, "{raw:?}: {}", err.message);
        }
    }

    #[test]
    fn oversized_head_is_431() {
        let limit = MAX_HEAD as usize;
        // A request line that never ends, and headers that add up.
        let endless = format!("GET /{}", "a".repeat(limit));
        let headers = format!(
            "GET /healthz HTTP/1.1\r\n{}\r\n",
            "X-Padding: 0123456789abcdef\r\n".repeat(limit / 28 + 1)
        );
        for raw in [endless, headers] {
            let err = parse_raw(&raw, DEFAULT_MAX_BODY).unwrap_err();
            assert_eq!(err.status, 431, "{}", err.message);
        }
        // A head of exactly the limit passes.
        let line = "GET /healthz HTTP/1.1\r\n";
        let fits = format!("{line}X: {}\r\n\r\n", "a".repeat(limit - line.len() - 7));
        assert_eq!(fits.len(), limit);
        assert_eq!(parse_raw(&fits, DEFAULT_MAX_BODY).unwrap().path, "/healthz");
    }

    /// Neither a connection that never speaks nor one that never stops
    /// keeps a live server from answering the next client.
    #[test]
    fn server_outlives_silent_and_endless_clients() {
        let manager = crate::job::JobManager::new(1, None);
        let handle = crate::server::Server::bind("127.0.0.1:0", manager)
            .and_then(crate::server::Server::start)
            .unwrap();
        let _silent = TcpStream::connect(handle.addr()).unwrap();
        // Exactly the head budget, so the server leaves nothing unread
        // and its reply is not cut off by a connection reset.
        let mut endless = TcpStream::connect(handle.addr()).unwrap();
        endless
            .write_all("a".repeat(MAX_HEAD as usize).as_bytes())
            .unwrap();
        let mut reply = String::new();
        endless.read_to_string(&mut reply).unwrap();
        assert!(reply.starts_with("HTTP/1.1 431 Request Header"), "{reply}");
        let client = crate::client::Client::new(&handle.addr().to_string());
        assert!(client.get("/healthz").unwrap().contains("\"ok\":true"));
        handle.shutdown();
    }

    #[test]
    fn json_string_escapes() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_string("plain"), "\"plain\"");
    }
}
