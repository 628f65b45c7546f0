//! A minimal HTTP/1.1 client over a raw `TcpStream`: one keep-alive
//! connection, one request outstanding, `Content-Length` framing.

use crate::trace::Tracer;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A response's status and where its body lies in the client's buffer.
pub struct Response {
    pub status: u16,
    body_start: usize,
    body_end: usize,
}

pub struct Connection {
    stream: TcpStream,
    buffer: Vec<u8>,
}

/// An infer request for `model`, head and body in one buffer so that it goes
/// out in one write.
pub fn post(path: &str, body: &[u8]) -> Vec<u8> {
    let mut request = format!(
        "POST {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    request.extend_from_slice(body);
    request
}

pub fn get(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nHost: perfbench\r\n\r\n").into_bytes()
}

fn invalid(message: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

impl Connection {
    pub fn open(addr: SocketAddr) -> io::Result<Connection> {
        let stream = TcpStream::connect(addr)?;
        // A stuck server fails the op instead of hanging the benchmark.
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        stream.set_write_timeout(Some(Duration::from_secs(30)))?;
        Ok(Connection {
            stream,
            buffer: Vec::with_capacity(64 * 1024),
        })
    }

    /// Send `request` and read the whole response.
    pub fn round_trip(&mut self, request: &[u8], tracer: &mut Tracer) -> io::Result<Response> {
        tracer.span("http.write", |_| self.stream.write_all(request))?;
        tracer.span("http.read", |_| self.read_response())
    }

    pub fn body(&self, response: &Response) -> &[u8] {
        &self.buffer[response.body_start..response.body_end]
    }

    fn read_response(&mut self) -> io::Result<Response> {
        self.buffer.clear();
        let mut chunk = [0u8; 16 * 1024];
        let head_end = loop {
            if let Some(at) = self.buffer.windows(4).position(|w| w == b"\r\n\r\n") {
                break at + 4;
            }
            if self.buffer.len() > 64 * 1024 {
                return Err(invalid("response head exceeds 64 KiB"));
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            self.buffer.extend_from_slice(&chunk[..n]);
        };
        let head = std::str::from_utf8(&self.buffer[..head_end])
            .map_err(|_| invalid("response head is not UTF-8"))?;
        let status = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| invalid("no status code"))?;
        let length: usize = head
            .lines()
            .find_map(|line| {
                let (name, value) = line.split_once(':')?;
                name.eq_ignore_ascii_case("content-length")
                    .then(|| value.trim().parse().ok())?
            })
            .ok_or_else(|| invalid("no content-length"))?;
        if length > 64 << 20 {
            return Err(invalid("response body exceeds 64 MiB"));
        }
        while self.buffer.len() < head_end + length {
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            self.buffer.extend_from_slice(&chunk[..n]);
        }
        Ok(Response {
            status,
            body_start: head_end,
            body_end: head_end + length,
        })
    }
}
