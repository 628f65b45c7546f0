//! Incremental HTTP/1.1 request parsing.
//!
//! [`RequestParser`] is fed raw bytes as they arrive from a socket —
//! split across *arbitrary* read boundaries — and yields complete
//! [`HttpRequest`]s. It understands request lines, header fields,
//! `Content-Length` bodies, keep-alive semantics (HTTP/1.1 and 1.0) and
//! pipelined requests. Malformed input yields a [`ParseError`] carrying the
//! HTTP status to answer with (`400` for malformed syntax, `431` for
//! oversized header sections, `413` for oversized bodies, `505` for unknown
//! protocol versions, `501` for `Transfer-Encoding`) — **never** a panic;
//! the fuzz suite in `tests/parser_fuzz.rs` locks that in.

use std::fmt;

/// Default bound on the request head (request line + headers), bytes.
pub const DEFAULT_MAX_HEADER_BYTES: usize = 16 * 1024;
/// Default bound on a request body, bytes. Large enough for a
/// 224×224×3 f32 image rendered as JSON text with full float precision.
pub const DEFAULT_MAX_BODY_BYTES: usize = 64 * 1024 * 1024;
/// Maximum number of header fields accepted in one request.
pub const MAX_HEADER_COUNT: usize = 100;

/// A parse failure: the HTTP status to answer with and a diagnostic message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// HTTP status code describing the failure (400, 413, 431, 501 or 505).
    pub status: u16,
    /// Human-readable diagnostic, returned in the error response body.
    pub message: String,
}

impl ParseError {
    fn new(status: u16, message: impl Into<String>) -> Self {
        ParseError {
            status,
            message: message.into(),
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.status, self.message)
    }
}

impl std::error::Error for ParseError {}

/// One fully received HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpRequest {
    /// Request method, uppercased (`GET`, `POST`, …).
    pub method: String,
    /// Request path without the query string (e.g. `/v1/models`).
    pub path: String,
    /// The query string after `?`, if any (not decoded).
    pub query: Option<String>,
    /// Header fields in arrival order; names are lowercased, values trimmed.
    pub headers: Vec<(String, String)>,
    /// The request body (`Content-Length` bytes; empty without the header).
    pub body: Vec<u8>,
    /// Whether the connection should stay open after responding, per the
    /// request's HTTP version and `Connection` header.
    pub keep_alive: bool,
}

impl HttpRequest {
    /// First value of the named header (lowercase lookup).
    pub fn header(&self, name: &str) -> Option<&str> {
        let lower = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == lower)
            .map(|(_, v)| v.as_str())
    }
}

/// Result of one [`RequestParser::next_request`] call.
#[derive(Debug)]
pub enum ParseOutcome {
    /// The buffered bytes do not yet hold a complete request; feed more.
    NeedMore,
    /// One complete request was extracted from the buffer.
    Request(HttpRequest),
    /// The byte stream is malformed; answer with the error's status and close
    /// the connection. The parser stays failed for this connection.
    Error(ParseError),
}

/// Incremental parser for one connection's request byte stream.
pub struct RequestParser {
    buffer: Vec<u8>,
    max_header_bytes: usize,
    max_body_bytes: usize,
    failed: Option<ParseError>,
}

impl Default for RequestParser {
    fn default() -> Self {
        Self::new()
    }
}

impl RequestParser {
    /// A parser with the default header/body limits.
    pub fn new() -> Self {
        Self::with_limits(DEFAULT_MAX_HEADER_BYTES, DEFAULT_MAX_BODY_BYTES)
    }

    /// A parser with explicit bounds on the header section and the body.
    pub fn with_limits(max_header_bytes: usize, max_body_bytes: usize) -> Self {
        RequestParser {
            buffer: Vec::new(),
            max_header_bytes,
            max_body_bytes,
            failed: None,
        }
    }

    /// Append bytes read from the socket.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buffer.extend_from_slice(bytes);
    }

    /// Whether the buffer holds the beginning of an unfinished request —
    /// i.e. closing the connection now would drop a request in flight.
    pub fn has_partial(&self) -> bool {
        !self.buffer.is_empty() && self.failed.is_none()
    }

    /// Try to extract the next complete request from the buffered bytes.
    pub fn next_request(&mut self) -> ParseOutcome {
        if let Some(err) = &self.failed {
            return ParseOutcome::Error(err.clone());
        }
        match self.parse_one() {
            Ok(Some(request)) => ParseOutcome::Request(request),
            Ok(None) => ParseOutcome::NeedMore,
            Err(err) => {
                self.failed = Some(err.clone());
                ParseOutcome::Error(err)
            }
        }
    }

    /// Parse one request off the front of the buffer, if complete.
    fn parse_one(&mut self) -> Result<Option<HttpRequest>, ParseError> {
        let Some((head_end, body_start)) = find_head_end(&self.buffer) else {
            if self.buffer.len() > self.max_header_bytes {
                return Err(ParseError::new(
                    431,
                    format!(
                        "header section exceeds {} bytes without terminating",
                        self.max_header_bytes
                    ),
                ));
            }
            return Ok(None);
        };
        if head_end > self.max_header_bytes {
            return Err(ParseError::new(
                431,
                format!("header section exceeds {} bytes", self.max_header_bytes),
            ));
        }

        let head = Head::parse(&self.buffer[..head_end])?;
        let content_length = head.content_length(self.max_body_bytes)?;
        let total = body_start + content_length;
        if self.buffer.len() < total {
            return Ok(None);
        }

        let body = self.buffer[body_start..total].to_vec();
        // Keep any pipelined follow-up request buffered.
        self.buffer.drain(..total);
        Ok(Some(HttpRequest {
            method: head.method,
            path: head.path,
            query: head.query,
            headers: head.headers,
            body,
            keep_alive: head.keep_alive,
        }))
    }
}

/// Locate the end of the request head. Returns `(head_len, body_start)`.
/// Accepts both CRLF (`\r\n\r\n`) and bare-LF (`\n\n`) terminators, like
/// mainstream servers do.
fn find_head_end(buffer: &[u8]) -> Option<(usize, usize)> {
    let mut i = 0;
    while i < buffer.len() {
        match buffer[i] {
            b'\n' if buffer[i + 1..].first() == Some(&b'\n') => return Some((i + 1, i + 2)),
            b'\n' if buffer[i + 1..].starts_with(b"\r\n") => return Some((i + 1, i + 3)),
            _ => {}
        }
        i += 1;
    }
    None
}

/// The parsed request head (everything before the body).
struct Head {
    method: String,
    path: String,
    query: Option<String>,
    headers: Vec<(String, String)>,
    keep_alive: bool,
}

impl Head {
    fn parse(head: &[u8]) -> Result<Head, ParseError> {
        let text = std::str::from_utf8(head)
            .map_err(|_| ParseError::new(400, "request head is not valid UTF-8"))?;
        let mut lines = text
            .split('\n')
            .map(|line| line.strip_suffix('\r').unwrap_or(line));

        let request_line = lines
            .next()
            .ok_or_else(|| ParseError::new(400, "empty request head"))?;
        let mut parts = request_line.split(' ').filter(|part| !part.is_empty());
        let method = parts
            .next()
            .ok_or_else(|| ParseError::new(400, "missing request method"))?;
        let target = parts
            .next()
            .ok_or_else(|| ParseError::new(400, "missing request target"))?;
        let version = parts
            .next()
            .ok_or_else(|| ParseError::new(400, "missing HTTP version"))?;
        if parts.next().is_some() {
            return Err(ParseError::new(400, "malformed request line"));
        }
        if method.is_empty() || !method.bytes().all(is_token_byte) {
            return Err(ParseError::new(400, "malformed request method"));
        }
        if !target.starts_with('/') && target != "*" {
            return Err(ParseError::new(400, "request target must be absolute"));
        }
        let http11 = match version {
            "HTTP/1.1" => true,
            "HTTP/1.0" => false,
            v if v.starts_with("HTTP/") => {
                return Err(ParseError::new(505, format!("unsupported version {v}")))
            }
            _ => return Err(ParseError::new(400, "malformed HTTP version")),
        };

        let mut headers: Vec<(String, String)> = Vec::new();
        for line in lines {
            if line.is_empty() {
                continue; // the terminating blank line
            }
            if headers.len() >= MAX_HEADER_COUNT {
                return Err(ParseError::new(
                    431,
                    format!("more than {MAX_HEADER_COUNT} header fields"),
                ));
            }
            let (name, value) = line
                .split_once(':')
                .ok_or_else(|| ParseError::new(400, "header field without a colon"))?;
            // Whitespace between the field name and the colon enables request
            // smuggling; RFC 9112 requires rejection.
            if name.is_empty() || !name.bytes().all(is_token_byte) {
                return Err(ParseError::new(400, "malformed header field name"));
            }
            headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
        }

        if headers.iter().any(|(n, _)| n == "transfer-encoding") {
            return Err(ParseError::new(501, "transfer-encoding is not supported"));
        }

        let keep_alive = connection_keep_alive(&headers, http11);
        let (path, query) = match target.split_once('?') {
            Some((p, q)) => (p.to_string(), Some(q.to_string())),
            None => (target.to_string(), None),
        };
        Ok(Head {
            method: method.to_ascii_uppercase(),
            path,
            query,
            headers,
            keep_alive,
        })
    }

    /// Validate and read the `Content-Length` header (0 when absent).
    fn content_length(&self, max_body_bytes: usize) -> Result<usize, ParseError> {
        let mut values = self
            .headers
            .iter()
            .filter(|(n, _)| n == "content-length")
            .map(|(_, v)| v.as_str());
        let Some(first) = values.next() else {
            return Ok(0);
        };
        // Repeated Content-Length headers are a smuggling vector unless all
        // agree (RFC 9110 §8.6).
        if values.any(|v| v != first) {
            return Err(ParseError::new(400, "conflicting Content-Length headers"));
        }
        if first.is_empty() || !first.bytes().all(|b| b.is_ascii_digit()) {
            return Err(ParseError::new(
                400,
                format!("invalid Content-Length '{first}'"),
            ));
        }
        let length: usize = first
            .parse()
            .map_err(|_| ParseError::new(400, format!("Content-Length '{first}' overflows")))?;
        if length > max_body_bytes {
            return Err(ParseError::new(
                413,
                format!("body of {length} bytes exceeds the {max_body_bytes}-byte limit"),
            ));
        }
        Ok(length)
    }
}

/// RFC 9110 token characters, the legal alphabet for methods and header names.
fn is_token_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b"!#$%&'*+-.^_`|~".contains(&b)
}

/// Keep-alive decision: HTTP/1.1 defaults to persistent unless `close`;
/// HTTP/1.0 defaults to close unless `keep-alive`.
fn connection_keep_alive(headers: &[(String, String)], http11: bool) -> bool {
    let connection = headers
        .iter()
        .find(|(n, _)| n == "connection")
        .map(|(_, v)| v.to_ascii_lowercase());
    let has_option = |option: &str| {
        connection
            .as_deref()
            .is_some_and(|v| v.split(',').any(|token| token.trim() == option))
    };
    if http11 {
        !has_option("close")
    } else {
        has_option("keep-alive")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_all(bytes: &[u8]) -> (Vec<HttpRequest>, Option<ParseError>) {
        let mut parser = RequestParser::new();
        parser.feed(bytes);
        let mut requests = Vec::new();
        loop {
            match parser.next_request() {
                ParseOutcome::Request(r) => requests.push(r),
                ParseOutcome::NeedMore => return (requests, None),
                ParseOutcome::Error(e) => return (requests, Some(e)),
            }
        }
    }

    #[test]
    fn parses_a_simple_get() {
        let (requests, err) = parse_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
        assert_eq!(err, None);
        assert_eq!(requests.len(), 1);
        let r = &requests[0];
        assert_eq!(r.method, "GET");
        assert_eq!(r.path, "/healthz");
        assert_eq!(r.query, None);
        assert_eq!(r.header("host"), Some("x"));
        assert!(r.body.is_empty());
        assert!(r.keep_alive);
    }

    #[test]
    fn parses_post_with_body_and_query() {
        let (requests, err) =
            parse_all(b"POST /infer?debug=1 HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcdGET");
        assert_eq!(err, None);
        assert_eq!(requests.len(), 1);
        assert_eq!(requests[0].body, b"abcd");
        assert_eq!(requests[0].query.as_deref(), Some("debug=1"));
    }

    #[test]
    fn single_byte_feeding_reaches_the_same_result() {
        let stream = b"POST /a HTTP/1.1\r\nContent-Length: 3\r\nX-Tag: v\r\n\r\nxyz";
        let mut parser = RequestParser::new();
        let mut parsed = None;
        for &b in stream.iter() {
            parser.feed(&[b]);
            if let ParseOutcome::Request(r) = parser.next_request() {
                parsed = Some(r);
            }
        }
        let r = parsed.expect("request completes on the final byte");
        assert_eq!(r.body, b"xyz");
        assert_eq!(r.header("x-tag"), Some("v"));
    }

    #[test]
    fn pipelined_requests_come_out_in_order() {
        let (requests, err) = parse_all(
            b"GET /a HTTP/1.1\r\n\r\nPOST /b HTTP/1.1\r\nContent-Length: 2\r\n\r\nhiGET /c HTTP/1.1\r\n\r\n",
        );
        assert_eq!(err, None);
        let paths: Vec<&str> = requests.iter().map(|r| r.path.as_str()).collect();
        assert_eq!(paths, ["/a", "/b", "/c"]);
        assert_eq!(requests[1].body, b"hi");
    }

    #[test]
    fn bare_lf_line_endings_are_accepted() {
        let (requests, err) = parse_all(b"GET /x HTTP/1.1\nHost: y\n\n");
        assert_eq!(err, None);
        assert_eq!(requests[0].path, "/x");
    }

    #[test]
    fn http10_defaults_to_close_and_honors_keep_alive() {
        let (r, _) = parse_all(b"GET / HTTP/1.0\r\n\r\n");
        assert!(!r[0].keep_alive);
        let (r, _) = parse_all(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n");
        assert!(r[0].keep_alive);
        let (r, _) = parse_all(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert!(!r[0].keep_alive);
    }

    #[test]
    fn malformed_inputs_yield_400_family_errors() {
        for (bytes, status) in [
            (b"GARBAGE\r\n\r\n".as_slice(), 400),
            (b"GET /x HTTP/2.0\r\n\r\n".as_slice(), 505),
            (b"GET /x FTP/1.1\r\n\r\n".as_slice(), 400),
            (b"GET x HTTP/1.1\r\n\r\n".as_slice(), 400),
            (b"GET /x HTTP/1.1\r\nbad header\r\n\r\n".as_slice(), 400),
            (b"GET /x HTTP/1.1\r\nname : v\r\n\r\n".as_slice(), 400),
            (
                b"POST /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n".as_slice(),
                400,
            ),
            (
                b"POST /x HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 6\r\n\r\n".as_slice(),
                400,
            ),
            (
                b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n".as_slice(),
                501,
            ),
            (b"\xff\xfe /x HTTP/1.1\r\n\r\n".as_slice(), 400),
        ] {
            let (_, err) = parse_all(bytes);
            let err = err.unwrap_or_else(|| panic!("{bytes:?} must fail"));
            assert_eq!(err.status, status, "{bytes:?}: {err}");
        }
    }

    #[test]
    fn agreeing_duplicate_content_lengths_are_tolerated() {
        let (requests, err) =
            parse_all(b"POST /x HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\nok");
        assert_eq!(err, None);
        assert_eq!(requests[0].body, b"ok");
    }

    #[test]
    fn oversized_header_section_is_431_even_unterminated() {
        let mut parser = RequestParser::with_limits(64, 1024);
        parser.feed(b"GET /x HTTP/1.1\r\n");
        parser.feed(&[b'a'; 128]);
        match parser.next_request() {
            ParseOutcome::Error(e) => assert_eq!(e.status, 431),
            other => panic!("expected 431, got {other:?}"),
        }
    }

    #[test]
    fn oversized_body_is_413_before_the_body_arrives() {
        let mut parser = RequestParser::with_limits(1024, 16);
        parser.feed(b"POST /x HTTP/1.1\r\nContent-Length: 17\r\n\r\n");
        match parser.next_request() {
            ParseOutcome::Error(e) => assert_eq!(e.status, 413),
            other => panic!("expected 413, got {other:?}"),
        }
    }

    #[test]
    fn parser_stays_failed_after_an_error() {
        let mut parser = RequestParser::new();
        parser.feed(b"NOT HTTP AT ALL\r\n\r\n");
        assert!(matches!(parser.next_request(), ParseOutcome::Error(_)));
        parser.feed(b"GET /fine HTTP/1.1\r\n\r\n");
        assert!(matches!(parser.next_request(), ParseOutcome::Error(_)));
    }

    #[test]
    fn incomplete_body_reports_need_more_and_partial() {
        let mut parser = RequestParser::new();
        parser.feed(b"POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nhalf");
        assert!(matches!(parser.next_request(), ParseOutcome::NeedMore));
        assert!(parser.has_partial());
        parser.feed(b"isdone");
        match parser.next_request() {
            ParseOutcome::Request(r) => assert_eq!(r.body, b"halfisdone"),
            other => panic!("expected request, got {other:?}"),
        }
        assert!(!parser.has_partial());
    }
}
