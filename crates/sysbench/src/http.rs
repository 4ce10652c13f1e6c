//! A small `std::net` HTTP/1.1 client for the sweep drivers.
//!
//! Deliberately not `stonne_serve::client`: the sweep workloads are a
//! black box over the `stonne-serve` binary, so the only contract they
//! may rely on is the wire — one request per connection,
//! `Connection: close`, bodies delimited by EOF. Every socket carries
//! connect, read and write timeouts, so a hung server becomes a failed
//! op instead of a hung benchmark.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Longest the client waits for a connect, a write, or the next byte of
/// a response. The slowest legitimate wait is the first result line of a
/// cold sweep (about a second); the driver's own limit is 180 s per run.
pub const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// A client bound to one server address.
#[derive(Debug, Clone, Copy)]
pub struct Client {
    addr: SocketAddr,
}

/// A complete response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// The whole body, read to EOF.
    pub body: Vec<u8>,
}

impl Response {
    /// The body as text (lossy on invalid UTF-8).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

impl Client {
    /// A client for the server listening on `addr`.
    pub fn new(addr: SocketAddr) -> Self {
        Self { addr }
    }

    /// Sends one request and reads the status line and headers; the
    /// returned reader is positioned at the first body byte.
    fn open(
        &self,
        method: &str,
        path: &str,
        body: &str,
    ) -> io::Result<(u16, BufReader<TcpStream>)> {
        let mut stream = TcpStream::connect_timeout(&self.addr, IO_TIMEOUT)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        stream.set_nodelay(true)?;
        stream.write_all(
            format!(
                "{method} {path} HTTP/1.1\r\nHost: {}\r\nContent-Type: application/json\r\n\
                 Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
                self.addr,
                body.len()
            )
            .as_bytes(),
        )?;
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        reader.read_line(&mut line)?;
        let status = line
            .split_whitespace()
            .nth(1)
            .and_then(|code| code.parse().ok())
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("bad status line {line:?}"),
                )
            })?;
        loop {
            line.clear();
            if reader.read_line(&mut line)? == 0 || line == "\r\n" || line == "\n" {
                return Ok((status, reader));
            }
        }
    }

    /// One request, body read to EOF.
    ///
    /// # Errors
    ///
    /// Returns connection, timeout and protocol errors.
    pub fn request(&self, method: &str, path: &str, body: &str) -> io::Result<Response> {
        let (status, mut reader) = self.open(method, path, body)?;
        let mut body = Vec::new();
        reader.read_to_end(&mut body)?;
        Ok(Response { status, body })
    }

    /// A GET whose body is a line stream: `on_line` sees the arrival
    /// instant of every complete line. Returns the whole body too.
    ///
    /// # Errors
    ///
    /// Returns connection, timeout and protocol errors.
    pub fn get_lines(&self, path: &str, mut on_line: impl FnMut(Instant)) -> io::Result<Response> {
        let (status, mut reader) = self.open("GET", path, "")?;
        let mut body = Vec::new();
        loop {
            let before = body.len();
            if reader.read_until(b'\n', &mut body)? == 0 {
                return Ok(Response { status, body });
            }
            if body.len() > before && body.last() == Some(&b'\n') {
                on_line(Instant::now());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// Serves one canned response per accepted connection.
    fn canned_server(responses: Vec<&'static [u8]>) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            for response in responses {
                let (mut stream, _) = listener.accept().unwrap();
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let mut line = String::new();
                let mut length = 0;
                loop {
                    line.clear();
                    reader.read_line(&mut line).unwrap();
                    if let Some(v) = line.strip_prefix("Content-Length: ") {
                        length = v.trim().parse().unwrap();
                    }
                    if line == "\r\n" {
                        break;
                    }
                }
                let mut body = vec![0; length];
                reader.read_exact(&mut body).unwrap();
                stream.write_all(response).unwrap();
            }
        });
        addr
    }

    #[test]
    fn request_parses_status_and_reads_body_to_eof() {
        let addr = canned_server(vec![
            b"HTTP/1.1 202 Accepted\r\nContent-Type: application/json\r\n\r\n{\"job\":\"job-0001\"}",
        ]);
        let response = Client::new(addr)
            .request("POST", "/v1/sweeps", "{}")
            .unwrap();
        assert_eq!(response.status, 202);
        assert_eq!(response.text(), "{\"job\":\"job-0001\"}");
    }

    #[test]
    fn get_lines_reports_each_complete_line_and_keeps_the_bytes() {
        let addr = canned_server(vec![b"HTTP/1.1 200 OK\r\n\r\n{\"a\":1}\n{\"a\":2}\ntail"]);
        let mut lines = 0;
        let response = Client::new(addr).get_lines("/x", |_| lines += 1).unwrap();
        assert_eq!(lines, 2, "an unterminated tail is not a line");
        assert_eq!(response.body, b"{\"a\":1}\n{\"a\":2}\ntail");
    }

    #[test]
    fn a_closed_port_is_an_error_not_a_hang() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        drop(listener);
        assert!(Client::new(addr).request("GET", "/healthz", "").is_err());
    }
}
