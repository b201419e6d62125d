//! A minimal, hardened HTTP/1.1 request parser and response writer.
//!
//! The parser is a pure function over a byte buffer — no sockets, no
//! allocation beyond the parsed request — so the fuzz suite
//! (`tests/parser_fuzz.rs`) can drive it with arbitrary bytes and assert
//! the contract: every input maps to a [`Request`] plus a consumed byte
//! count, or a typed [`ParseError`]. Never a panic.
//!
//! Limits are enforced *during* parsing, not after: a request line or
//! header block larger than [`Limits::max_header_bytes`] is rejected as
//! soon as the budget is exceeded, even when the terminator has not
//! arrived yet (that is what defeats a slow-loris client that dribbles an
//! unbounded header forever), and a declared or chunked body larger than
//! [`Limits::max_body_bytes`] is rejected before the bytes are buffered.

use std::fmt;

/// Byte budgets enforced while parsing a request.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Maximum bytes of request line + headers (terminator included).
    pub max_header_bytes: usize,
    /// Maximum bytes of decoded body.
    pub max_body_bytes: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Limits { max_header_bytes: 8 * 1024, max_body_bytes: 64 * 1024 }
    }
}

/// A parsed HTTP/1.1 request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request method, uppercase token (`GET`, `POST`, ...).
    pub method: String,
    /// Request target as sent (path + optional query).
    pub target: String,
    /// Header (name, value) pairs in arrival order; names lowercased.
    pub headers: Vec<(String, String)>,
    /// Decoded body bytes (chunked bodies are de-chunked).
    pub body: Vec<u8>,
}

impl Request {
    /// The target's path component (query string stripped).
    #[must_use]
    pub fn path(&self) -> &str {
        self.target.split('?').next().unwrap_or(&self.target)
    }
}

/// Why a byte buffer is not (yet) a valid request.
///
/// [`ParseError::Incomplete`] is the only non-fatal variant: the
/// connection loop keeps reading and re-parses. Every other variant maps
/// to an HTTP status via [`ParseError::status`] and closes the
/// connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// More bytes are needed; nothing is wrong so far.
    Incomplete,
    /// The request line is not `METHOD SP TARGET SP HTTP/1.x`.
    BadRequestLine(String),
    /// The version is not `HTTP/1.0` or `HTTP/1.1`.
    BadVersion(String),
    /// A header line is malformed (missing colon, bad name byte, NUL).
    BadHeader(String),
    /// Request line + headers exceed [`Limits::max_header_bytes`].
    HeadersTooLarge {
        /// The configured budget that was exceeded.
        limit: usize,
    },
    /// Declared or decoded body exceeds [`Limits::max_body_bytes`].
    BodyTooLarge {
        /// The configured budget that was exceeded.
        limit: usize,
    },
    /// `Content-Length` is missing digits, non-numeric, or conflicting.
    BadContentLength(String),
    /// A chunk-size line is not valid hex or is malformed.
    BadChunkSize(String),
    /// A `Transfer-Encoding` other than `chunked` was requested.
    UnsupportedTransferEncoding(String),
}

impl ParseError {
    /// The HTTP status this parse failure maps to (`Incomplete` maps to
    /// 408: it only surfaces as a response when the read loop gave up
    /// waiting, which is precisely a request timeout).
    #[must_use]
    pub fn status(&self) -> u16 {
        match self {
            ParseError::Incomplete => 408,
            ParseError::HeadersTooLarge { .. } | ParseError::BodyTooLarge { .. } => 413,
            ParseError::UnsupportedTransferEncoding(_) => 501,
            _ => 400,
        }
    }

    /// Short machine-readable code for error-response bodies.
    #[must_use]
    pub fn code(&self) -> &'static str {
        match self {
            ParseError::Incomplete => "request_timeout",
            ParseError::BadRequestLine(_) => "bad_request_line",
            ParseError::BadVersion(_) => "bad_version",
            ParseError::BadHeader(_) => "bad_header",
            ParseError::HeadersTooLarge { .. } => "headers_too_large",
            ParseError::BodyTooLarge { .. } => "body_too_large",
            ParseError::BadContentLength(_) => "bad_content_length",
            ParseError::BadChunkSize(_) => "bad_chunk_size",
            ParseError::UnsupportedTransferEncoding(_) => "unsupported_transfer_encoding",
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Incomplete => write!(f, "incomplete request"),
            ParseError::BadRequestLine(l) => write!(f, "malformed request line {l:?}"),
            ParseError::BadVersion(v) => write!(f, "unsupported HTTP version {v:?}"),
            ParseError::BadHeader(h) => write!(f, "malformed header {h:?}"),
            ParseError::HeadersTooLarge { limit } => {
                write!(f, "request headers exceed {limit} bytes")
            }
            ParseError::BodyTooLarge { limit } => write!(f, "request body exceeds {limit} bytes"),
            ParseError::BadContentLength(v) => write!(f, "bad Content-Length {v:?}"),
            ParseError::BadChunkSize(v) => write!(f, "bad chunk size {v:?}"),
            ParseError::UnsupportedTransferEncoding(v) => {
                write!(f, "unsupported Transfer-Encoding {v:?}")
            }
        }
    }
}

/// Escape-hatch cap on a single escaped debug string inside errors so a
/// hostile request can't echo megabytes back at itself.
fn clip(s: &[u8]) -> String {
    let printable: String = s
        .iter()
        .take(48)
        .map(|&b| if (0x20..0x7f).contains(&b) { b as char } else { '.' })
        .collect();
    if s.len() > 48 {
        format!("{printable}…")
    } else {
        printable
    }
}

/// `true` for bytes legal in an HTTP token (method and header names).
fn is_token_byte(b: u8) -> bool {
    matches!(b,
        b'!' | b'#' | b'$' | b'%' | b'&' | b'\'' | b'*' | b'+' | b'-' | b'.' | b'^' | b'_'
        | b'`' | b'|' | b'~')
        || b.is_ascii_alphanumeric()
}

/// Finds `\r\n\r\n` in `buf`, returning the offset *after* it.
fn find_header_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n").map(|p| p + 4)
}

/// Parses one request from the front of `buf`.
///
/// On success returns the request and the number of bytes consumed
/// (header block + body), so a caller could in principle pipeline; this
/// server closes after one response but the contract keeps the parser
/// honest about body framing.
///
/// # Errors
///
/// [`ParseError::Incomplete`] when `buf` is a valid prefix that needs
/// more bytes; any other variant when the bytes can never become a valid
/// request under `limits`.
pub fn parse_request(buf: &[u8], limits: &Limits) -> Result<(Request, usize), ParseError> {
    let header_end = match find_header_end(buf) {
        Some(end) => {
            if end > limits.max_header_bytes {
                return Err(ParseError::HeadersTooLarge { limit: limits.max_header_bytes });
            }
            end
        }
        None => {
            // No terminator yet: fatal once the budget is already blown,
            // otherwise ask for more bytes.
            if buf.len() > limits.max_header_bytes {
                return Err(ParseError::HeadersTooLarge { limit: limits.max_header_bytes });
            }
            return Err(ParseError::Incomplete);
        }
    };
    let head = buf.get(..header_end.saturating_sub(4)).unwrap_or_default();
    let mut lines = head.split(|&b| b == b'\n').map(|l| l.strip_suffix(b"\r").unwrap_or(l));

    let request_line = lines.next().unwrap_or_default();
    let (method, target) = parse_request_line(request_line)?;

    let mut headers = Vec::new();
    for line in lines {
        headers.push(parse_header_line(line)?);
    }

    let (body, consumed) = parse_body(buf, header_end, &headers, limits)?;
    Ok((Request { method, target, headers, body }, consumed))
}

/// Splits and validates `METHOD SP TARGET SP HTTP/1.x`.
fn parse_request_line(line: &[u8]) -> Result<(String, String), ParseError> {
    let mut parts = line.split(|&b| b == b' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next())
    {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => return Err(ParseError::BadRequestLine(clip(line))),
    };
    if !method.iter().copied().all(is_token_byte) {
        return Err(ParseError::BadRequestLine(clip(line)));
    }
    if target.iter().any(|&b| b < 0x21 || b == 0x7f) {
        return Err(ParseError::BadRequestLine(clip(line)));
    }
    if version != b"HTTP/1.1" && version != b"HTTP/1.0" {
        return Err(ParseError::BadVersion(clip(version)));
    }
    let method = String::from_utf8_lossy(method).into_owned();
    let target = String::from_utf8_lossy(target).into_owned();
    Ok((method, target))
}

/// Splits and validates one `Name: value` header line.
fn parse_header_line(line: &[u8]) -> Result<(String, String), ParseError> {
    let colon = line
        .iter()
        .position(|&b| b == b':')
        .ok_or_else(|| ParseError::BadHeader(clip(line)))?;
    let (name, rest) = line.split_at(colon);
    let value = rest.get(1..).unwrap_or_default();
    if name.is_empty() || !name.iter().copied().all(is_token_byte) {
        return Err(ParseError::BadHeader(clip(line)));
    }
    // Field values may not contain NUL/CR/LF (CR/LF can't appear here by
    // construction) or other control bytes except HTAB.
    if value.iter().any(|&b| (b < 0x20 && b != b'\t') || b == 0x7f) {
        return Err(ParseError::BadHeader(clip(line)));
    }
    let name = String::from_utf8_lossy(name).to_ascii_lowercase();
    let value = String::from_utf8_lossy(value).trim().to_string();
    Ok((name, value))
}

/// Frames and decodes the body per the parsed headers.
fn parse_body(
    buf: &[u8],
    header_end: usize,
    headers: &[(String, String)],
    limits: &Limits,
) -> Result<(Vec<u8>, usize), ParseError> {
    let te = headers.iter().find(|(n, _)| n == "transfer-encoding").map(|(_, v)| v.as_str());
    if let Some(te) = te {
        if !te.eq_ignore_ascii_case("chunked") {
            return Err(ParseError::UnsupportedTransferEncoding(te.to_string()));
        }
        return parse_chunked(buf, header_end, limits);
    }

    let mut lengths = headers.iter().filter(|(n, _)| n == "content-length").map(|(_, v)| v);
    let Some(first) = lengths.next() else {
        return Ok((Vec::new(), header_end));
    };
    if lengths.any(|v| v != first) {
        return Err(ParseError::BadContentLength(first.clone()));
    }
    if first.is_empty() || !first.bytes().all(|b| b.is_ascii_digit()) {
        return Err(ParseError::BadContentLength(first.clone()));
    }
    let len: usize = first
        .parse()
        .map_err(|_| ParseError::BadContentLength(first.clone()))?;
    if len > limits.max_body_bytes {
        return Err(ParseError::BodyTooLarge { limit: limits.max_body_bytes });
    }
    let end = header_end.saturating_add(len);
    match buf.get(header_end..end) {
        Some(body) => Ok((body.to_vec(), end)),
        None => Err(ParseError::Incomplete),
    }
}

/// Decodes a `Transfer-Encoding: chunked` body starting at `pos`.
fn parse_chunked(
    buf: &[u8],
    header_end: usize,
    limits: &Limits,
) -> Result<(Vec<u8>, usize), ParseError> {
    let mut pos = header_end;
    let mut body = Vec::new();
    loop {
        let line_end = match buf.get(pos..).and_then(|r| r.windows(2).position(|w| w == b"\r\n"))
        {
            Some(rel) => pos + rel,
            None => {
                // A size line can't legally exceed 16 hex digits + a few
                // extension bytes; anything longer is garbage, not
                // patience-worthy.
                if buf.len().saturating_sub(pos) > 64 {
                    return Err(ParseError::BadChunkSize(clip(
                        buf.get(pos..).unwrap_or_default(),
                    )));
                }
                return Err(ParseError::Incomplete);
            }
        };
        let size_line = buf.get(pos..line_end).unwrap_or_default();
        // Chunk extensions (";ext=val") are tolerated and ignored.
        let hex = size_line.split(|&b| b == b';').next().unwrap_or_default();
        let hex_str = std::str::from_utf8(hex)
            .map_err(|_| ParseError::BadChunkSize(clip(size_line)))?
            .trim();
        if hex_str.is_empty() || hex_str.len() > 16 {
            return Err(ParseError::BadChunkSize(clip(size_line)));
        }
        let size = usize::from_str_radix(hex_str, 16)
            .map_err(|_| ParseError::BadChunkSize(clip(size_line)))?;
        pos = line_end + 2;
        if size == 0 {
            // Final chunk: require the terminating CRLF (trailers are not
            // supported — a trailer line is a malformed terminator here).
            return match buf.get(pos..pos + 2) {
                Some(b"\r\n") => Ok((body, pos + 2)),
                Some(other) => Err(ParseError::BadChunkSize(clip(other))),
                None => Err(ParseError::Incomplete),
            };
        }
        if body.len().saturating_add(size) > limits.max_body_bytes {
            return Err(ParseError::BodyTooLarge { limit: limits.max_body_bytes });
        }
        match buf.get(pos..pos + size) {
            Some(chunk) => body.extend_from_slice(chunk),
            None => return Err(ParseError::Incomplete),
        }
        pos += size;
        match buf.get(pos..pos + 2) {
            Some(b"\r\n") => pos += 2,
            Some(other) => return Err(ParseError::BadChunkSize(clip(other))),
            None => return Err(ParseError::Incomplete),
        }
    }
}

/// Canonical reason phrase for the statuses this server emits.
#[must_use]
pub fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// An HTTP response ready to serialize onto a stream.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// `Content-Type` value.
    pub content_type: &'static str,
    /// Extra headers (name, value) appended verbatim.
    pub extra_headers: Vec<(String, String)>,
    /// Response body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response.
    #[must_use]
    pub fn json(status: u16, body: impl Into<Vec<u8>>) -> Self {
        Response {
            status,
            content_type: "application/json",
            extra_headers: Vec::new(),
            body: body.into(),
        }
    }

    /// A plain-text response.
    #[must_use]
    pub fn text(status: u16, body: impl Into<Vec<u8>>) -> Self {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            extra_headers: Vec::new(),
            body: body.into(),
        }
    }

    /// Adds one extra header.
    #[must_use]
    pub fn with_header(mut self, name: &str, value: impl fmt::Display) -> Self {
        self.extra_headers.push((name.to_string(), value.to_string()));
        self
    }

    /// Serializes status line + headers + body. The connection is always
    /// single-use (`Connection: close`), which keeps draining trivially
    /// correct: no idle keep-alive sockets to account for.
    ///
    /// # Errors
    ///
    /// Propagates the underlying write error (a disconnected client).
    pub fn write_to(&self, w: &mut impl std::io::Write) -> std::io::Result<()> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\nconnection: close\r\n",
            self.status,
            status_reason(self.status),
            self.content_type,
            self.body.len()
        );
        for (name, value) in &self.extra_headers {
            head.push_str(&format!("{name}: {value}\r\n"));
        }
        head.push_str("\r\n");
        w.write_all(head.as_bytes())?;
        w.write_all(&self.body)?;
        w.flush()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    fn parse(bytes: &[u8]) -> Result<(Request, usize), ParseError> {
        parse_request(bytes, &Limits::default())
    }

    #[test]
    fn parses_a_simple_get() {
        let (req, used) = parse(b"GET /healthz HTTP/1.1\r\nhost: x\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path(), "/healthz");
        assert_eq!(req.headers, [("host".to_string(), "x".to_string())]);
        assert!(req.body.is_empty());
        assert_eq!(used, b"GET /healthz HTTP/1.1\r\nhost: x\r\n\r\n".len());
    }

    #[test]
    fn parses_content_length_bodies_and_reports_incomplete_prefixes() {
        let full = b"POST /predict HTTP/1.1\r\ncontent-length: 4\r\n\r\nabcd";
        let (req, used) = parse(full).unwrap();
        assert_eq!(req.body, b"abcd");
        assert_eq!(used, full.len());
        for cut in 1..full.len() {
            match parse(&full[..cut]) {
                Ok(_) => panic!("prefix of len {cut} parsed"),
                Err(ParseError::Incomplete) => {}
                Err(e) => panic!("prefix of len {cut}: {e}"),
            }
        }
    }

    #[test]
    fn decodes_chunked_bodies() {
        let raw = b"POST /p HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n4\r\nwiki\r\n5\r\npedia\r\n0\r\n\r\n";
        let (req, used) = parse(raw).unwrap();
        assert_eq!(req.body, b"wikipedia");
        assert_eq!(used, raw.len());
    }

    #[test]
    fn typed_rejections() {
        let cases: [(&[u8], u16); 7] = [
            (b"GARBAGE\r\n\r\n", 400),
            (b"GET /x HTTP/2.0\r\n\r\n", 400),
            (b"GET /x HTTP/1.1\r\nno colon\r\n\r\n", 400),
            (b"POST /x HTTP/1.1\r\ncontent-length: nope\r\n\r\n", 400),
            (b"POST /x HTTP/1.1\r\ncontent-length: 999999999\r\n\r\n", 413),
            (b"POST /x HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\nzz\r\n", 400),
            (b"POST /x HTTP/1.1\r\ntransfer-encoding: gzip\r\n\r\n", 501),
        ];
        for (raw, status) in cases {
            let err = parse(raw).unwrap_err();
            assert_eq!(err.status(), status, "{}", String::from_utf8_lossy(raw));
        }
    }

    #[test]
    fn oversized_headers_fail_even_without_a_terminator() {
        let limits = Limits { max_header_bytes: 64, max_body_bytes: 64 };
        let mut raw = b"GET /x HTTP/1.1\r\nx: ".to_vec();
        raw.extend(std::iter::repeat_n(b'a', 200));
        assert_eq!(
            parse_request(&raw, &limits).unwrap_err(),
            ParseError::HeadersTooLarge { limit: 64 }
        );
    }

    #[test]
    fn response_serializes_with_framing_headers() {
        let mut out = Vec::new();
        Response::json(200, br#"{"ok":true}"#.to_vec())
            .with_header("retry-after", 2)
            .write_to(&mut out)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("content-length: 11\r\n"));
        assert!(text.contains("connection: close\r\n"));
        assert!(text.contains("retry-after: 2\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"ok\":true}"));
    }
}
