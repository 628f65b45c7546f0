//! HTTP/1.1 response construction and serialization.

use serde::Serialize;
use std::io::{self, Write};

/// An HTTP response ready to be written to a socket.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpResponse {
    /// Status code (200, 404, 429, …).
    pub status: u16,
    /// `Content-Type` of the body (defaults to `application/json`).
    pub content_type: String,
    /// Extra header fields beyond the automatic `Content-Type`,
    /// `Content-Length` and `Connection`.
    pub headers: Vec<(String, String)>,
    /// Response body bytes.
    pub body: Vec<u8>,
}

impl HttpResponse {
    /// A JSON response: serializes `value` and sets `Content-Type`.
    pub fn json<T: Serialize>(status: u16, value: &T) -> HttpResponse {
        let body = serde_json::to_string(value)
            .unwrap_or_else(|e| format!("{{\"error\":\"serialization failed: {e}\"}}"));
        HttpResponse {
            status,
            content_type: "application/json".to_string(),
            headers: Vec::new(),
            body: body.into_bytes(),
        }
    }

    /// A plain-text response with an explicit `Content-Type` (e.g. the
    /// Prometheus exposition format of `GET /metrics`).
    pub fn text(status: u16, content_type: impl Into<String>, body: impl Into<Vec<u8>>) -> Self {
        HttpResponse {
            status,
            content_type: content_type.into(),
            headers: Vec::new(),
            body: body.into(),
        }
    }

    /// An error response with a `{"error": message}` JSON body.
    pub fn error(status: u16, message: impl AsRef<str>) -> HttpResponse {
        #[derive(Serialize)]
        struct ErrorBody {
            error: String,
        }
        HttpResponse::json(
            status,
            &ErrorBody {
                error: message.as_ref().to_string(),
            },
        )
    }

    /// Add a header field.
    pub fn with_header(mut self, name: impl Into<String>, value: impl Into<String>) -> Self {
        self.headers.push((name.into(), value.into()));
        self
    }

    /// Serialize the response to `writer`, stamping `Connection: keep-alive`
    /// or `Connection: close` according to `keep_alive`.
    ///
    /// # Errors
    ///
    /// Propagates writer I/O errors.
    pub fn write_to(&self, writer: &mut impl Write, keep_alive: bool) -> io::Result<()> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\nconnection: {}\r\n",
            self.status,
            status_text(self.status),
            self.content_type,
            self.body.len(),
            if keep_alive { "keep-alive" } else { "close" },
        );
        for (name, value) in &self.headers {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        head.push_str("\r\n");
        // One write for head and body: two writes on a socket leave the body
        // queued behind Nagle until the client's delayed ACK of the head.
        let mut wire = head.into_bytes();
        wire.extend_from_slice(&self.body);
        writer.write_all(&wire)?;
        writer.flush()
    }
}

/// Reason phrase for the status codes this server emits.
pub fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        505 => "HTTP Version Not Supported",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_a_complete_json_response() {
        #[derive(Serialize)]
        struct Body {
            ok: bool,
        }
        let response = HttpResponse::json(200, &Body { ok: true });
        let mut out = Vec::new();
        response.write_to(&mut out, true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("content-type: application/json\r\n"));
        assert!(text.contains("content-length: 11\r\n"));
        assert!(text.contains("connection: keep-alive\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"ok\":true}"));
    }

    #[test]
    fn text_responses_carry_their_content_type() {
        let response = HttpResponse::text(
            200,
            "text/plain; version=0.0.4; charset=utf-8",
            "m_total 1\n",
        );
        let mut out = Vec::new();
        response.write_to(&mut out, true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(
            text.contains("content-type: text/plain; version=0.0.4; charset=utf-8\r\n"),
            "{text}"
        );
        assert!(text.ends_with("\r\n\r\nm_total 1\n"));
    }

    #[test]
    fn error_body_and_extra_headers() {
        let response = HttpResponse::error(429, "queue full").with_header("retry-after", "1");
        let mut out = Vec::new();
        response.write_to(&mut out, false).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(text.contains("retry-after: 1\r\n"));
        assert!(text.contains("connection: close\r\n"));
        assert!(text.ends_with("{\"error\":\"queue full\"}"));
    }
}
