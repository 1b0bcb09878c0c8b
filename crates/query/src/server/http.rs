//! HTTP/1.1 framing: the head reader, the body reader, query-string
//! parameters and the responder that frames every answer.
//!
//! Each is a function over `impl BufRead` / `impl Read` / `impl Write`, so a
//! byte slice drives it as well as a socket does (`head_fuzz`,
//! `body_fuzz`). Nothing here knows a route or a socket: the connection loop
//! owns the socket and its timeouts, the routes own what a request means.

use super::render::error_json_into;
use std::io::{BufRead, IoSlice, Read, Write};

/// The request method, pre-classified so routing never compares strings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Method {
    Get,
    Head,
    Post,
    Other,
}

pub(super) struct RequestHead {
    pub(super) method: Method,
    /// `Content-Type: application/x-www-form-urlencoded` — the only
    /// content-type distinction any route makes.
    pub(super) form_urlencoded: bool,
    /// `Content-Length`, when the client sent one. `POST` without a length
    /// is a protocol error (411), **not** an empty body: treating it as
    /// empty used to surface as a baffling "empty query" parse error.
    pub(super) content_length: Option<usize>,
    /// `Transfer-Encoding: chunked` — not implemented (501 for `POST`).
    pub(super) chunked: bool,
    /// The client asked to close after this response (`Connection: close`,
    /// or an HTTP/1.0 request without `Connection: keep-alive`).
    pub(super) close: bool,
}

/// A request the server answers with an error and a close: the stream
/// position within the request is unknown after it. Cold — it carries its
/// diagnostic as an owned string.
#[derive(Debug)]
pub(super) struct Refusal {
    pub(super) status: u16,
    pub(super) message: String,
    /// How many bytes of the unread body to drain after answering. Closing
    /// with request bytes in flight would reset the connection before the
    /// client reads the answer; the drain is bounded so that neither a large
    /// upload nor an idle client can pin the worker.
    pub(super) drain: u64,
}

impl Refusal {
    fn new(status: u16, message: impl Into<String>) -> Refusal {
        Refusal {
            status,
            message: message.into(),
            drain: 0,
        }
    }

    fn draining(self, drain: u64) -> Refusal {
        Refusal { drain, ..self }
    }
}

/// `true` for the error kinds a socket read timeout surfaces as
/// (platform-dependent: `WouldBlock` on Unix, `TimedOut` on Windows).
fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// A read timeout anywhere in the head is the slowloris case: 408. Cold —
/// builds the diagnostic string.
fn head_read_error(e: &std::io::Error, what: &str) -> Refusal {
    if is_timeout(e) {
        Refusal::new(408, format!("timed out reading {what}"))
    } else {
        Refusal::new(400, format!("bad {what}: {e}"))
    }
}

/// Cold diagnostic for an unparseable `Content-Length`.
fn bad_content_length(value: &str) -> Refusal {
    Refusal::new(400, format!("bad Content-Length '{value}'"))
}

/// Case-insensitive ASCII prefix test (header values arrive in any case).
fn starts_with_ignore_ascii_case(value: &str, prefix: &str) -> bool {
    value.len() >= prefix.len()
        && value.as_bytes()[..prefix.len()].eq_ignore_ascii_case(prefix.as_bytes())
}

/// Reads and parses one request head, with `line` as the reused scratch and
/// the request target (path + query string) copied into `target`.
/// `Ok(None)` is a clean end of the connection: EOF — or an idle timeout —
/// before the first byte of a next request.
pub(super) fn read_head(
    reader: &mut impl BufRead,
    line: &mut String,
    target: &mut String,
) -> Result<Option<RequestHead>, Refusal> {
    // The whole head (request line + headers) is read through a byte cap:
    // a drip-fed endless line must error out, not grow a String forever.
    const MAX_HEAD: u64 = 64 << 10;
    let mut head = reader.by_ref().take(MAX_HEAD);

    line.clear();
    match head.read_line(line) {
        Ok(0) => return Ok(None),
        Ok(_) => {}
        Err(e) => {
            // A timeout with nothing read is an idle keep-alive connection
            // going away, not a slowloris: close without a 408.
            if is_timeout(&e) && line.is_empty() {
                return Ok(None);
            }
            return Err(head_read_error(&e, "request line"));
        }
    }
    if !line.ends_with('\n') {
        return Err(Refusal::new(400, "request line too long"));
    }
    let mut parts = line.split_whitespace();
    let method = match parts.next() {
        Some("GET") => Method::Get,
        Some("HEAD") => Method::Head,
        Some("POST") => Method::Post,
        Some(_) => Method::Other,
        None => return Err(Refusal::new(400, "empty request line")),
    };
    let Some(path) = parts.next() else {
        return Err(Refusal::new(400, "request line without path"));
    };
    target.clear();
    target.push_str(path);
    // Only HTTP/1.1 defaults to keep-alive; HTTP/1.0 (or no version token)
    // must opt in with `Connection: keep-alive`.
    let http11 = parts.next() == Some("HTTP/1.1");

    let mut content_length = None;
    let mut form_urlencoded = false;
    let mut chunked = false;
    let mut close_requested = false;
    let mut keep_alive_requested = false;
    loop {
        line.clear();
        if let Err(e) = head.read_line(line) {
            return Err(head_read_error(&e, "header"));
        }
        if !line.ends_with('\n') {
            return Err(Refusal::new(400, "header section too large"));
        }
        let header = line.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                content_length = Some(
                    value
                        .parse::<usize>()
                        .map_err(|_| bad_content_length(value))?,
                );
            } else if name.eq_ignore_ascii_case("content-type") {
                form_urlencoded =
                    starts_with_ignore_ascii_case(value, "application/x-www-form-urlencoded");
            } else if name.eq_ignore_ascii_case("transfer-encoding") {
                chunked |= value
                    .split(',')
                    .any(|token| token.trim().eq_ignore_ascii_case("chunked"));
            } else if name.eq_ignore_ascii_case("connection") {
                for token in value.split(',') {
                    let token = token.trim();
                    close_requested |= token.eq_ignore_ascii_case("close");
                    keep_alive_requested |= token.eq_ignore_ascii_case("keep-alive");
                }
            }
        }
    }
    Ok(Some(RequestHead {
        method,
        form_urlencoded,
        content_length,
        chunked,
        close: if http11 {
            close_requested
        } else {
            !keep_alive_requested
        },
    }))
}

/// The bound on what a refusal drains when the head names no length.
const DRAIN_UNDELIMITED: u64 = 64 << 10;

/// The bound on what a 413 drains of the body it refused.
const DRAIN_OVERSIZED: u64 = 64 << 20;

/// Reads the body of a request into the reused `body`: exactly
/// `Content-Length` bytes for `POST`, nothing for any other method (their
/// bodies are ignored). The body policy, in order: `Transfer-Encoding:
/// chunked` is refused with 501, a missing length with 411, a length above
/// `max_body_bytes` with 413 before any byte is read, a read timeout with
/// 408 and a short body with 400. The reader is never read past the
/// declared length, so a pipelined next request stays intact.
pub(super) fn read_body(
    reader: &mut impl Read,
    head: &RequestHead,
    max_body_bytes: usize,
    body: &mut Vec<u8>,
) -> Result<(), Refusal> {
    body.clear();
    if head.method != Method::Post {
        return Ok(());
    }
    if head.chunked {
        return Err(not_delimited(
            501,
            "Transfer-Encoding: chunked is not supported; send Content-Length",
        ));
    }
    let Some(length) = head.content_length else {
        return Err(not_delimited(411, "POST requires a Content-Length header"));
    };
    // An unbounded Content-Length would let one request allocate the moon.
    if length > max_body_bytes {
        return Err(too_large(length, max_body_bytes));
    }
    body.resize(length, 0);
    reader.read_exact(body).map_err(|e| body_read_error(&e))
}

/// A `POST` whose body has no length the server reads by: its bytes are
/// drained up to [`DRAIN_UNDELIMITED`].
fn not_delimited(status: u16, message: &str) -> Refusal {
    Refusal::new(status, message).draining(DRAIN_UNDELIMITED)
}

/// The 413 refusal; builds its message here so [`read_body`] stays
/// allocation-free.
fn too_large(length: usize, limit: usize) -> Refusal {
    Refusal::new(
        413,
        format!("body too large ({length} bytes; limit {limit})"),
    )
    .draining((length as u64).min(DRAIN_OVERSIZED))
}

/// A failed body read: 408 on timeout, 400 on truncation.
fn body_read_error(e: &std::io::Error) -> Refusal {
    if is_timeout(e) {
        Refusal::new(408, "timed out reading request body")
    } else {
        Refusal::new(400, format!("truncated body: {e}"))
    }
}

/// Drains what [`Refusal::drain`] allows of a refused body, stopping at the
/// first error (the caller has shortened the read timeout).
pub(super) fn drain(reader: &mut impl Read, limit: u64) {
    let _ = std::io::copy(&mut reader.take(limit), &mut std::io::sink());
}

/// Percent-decodes the value of the first `name` parameter of a query
/// string or form-encoded body.
pub(super) fn query_param(qs: &str, name: &str) -> Option<String> {
    qs.split('&').find_map(|pair| {
        let (key, value) = pair.split_once('=').unwrap_or((pair, ""));
        (key == name).then(|| percent_decode(value))
    })
}

fn percent_decode(input: &str) -> String {
    let bytes = input.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' => {
                // A complete escape consumes "%XY"; anything else — a
                // truncated escape at end-of-input ("%", "%2") or non-hex
                // digits ("%zz") — falls back to the literal '%' and
                // continues with the next byte, so no input can panic or
                // swallow trailing bytes. `get` returns `None` when fewer
                // than two bytes remain. Both bytes must be hex digits:
                // `from_str_radix` alone would take a sign ("%+f").
                let escaped = bytes
                    .get(i + 1..i + 3)
                    .filter(|hex| hex.iter().all(u8::is_ascii_hexdigit))
                    .and_then(|hex| std::str::from_utf8(hex).ok())
                    .and_then(|hex| u8::from_str_radix(hex, 16).ok());
                match escaped {
                    Some(byte) => {
                        out.push(byte);
                        i += 3;
                    }
                    None => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            byte => {
                out.push(byte);
                i += 1;
            }
        }
    }
    // Valid UTF-8 becomes the string as it is; only invalid bytes are
    // copied, each as U+FFFD.
    String::from_utf8(out)
        .unwrap_or_else(|invalid| String::from_utf8_lossy(invalid.as_bytes()).into_owned())
}

/// Per-response rendering switches of [`Responder::respond`].
#[derive(Clone, Copy)]
pub(super) struct RespondOptions {
    /// `HEAD`: send the headers (with the real `Content-Length`) but no
    /// body.
    pub(super) head_only: bool,
    /// Announce `Connection: keep-alive` and leave the stream open;
    /// otherwise `Connection: close`.
    pub(super) keep_alive: bool,
    /// Adds a `Retry-After: <secs>` header (503 responses).
    pub(super) retry_after_secs: Option<u64>,
}

impl RespondOptions {
    /// A full-body response that closes the connection — error paths where
    /// the request framing is unknown.
    pub(super) fn closing() -> RespondOptions {
        RespondOptions {
            head_only: false,
            keep_alive: false,
            retry_after_secs: None,
        }
    }

    pub(super) fn with_retry_after(self, secs: u64) -> RespondOptions {
        RespondOptions {
            retry_after_secs: Some(secs),
            ..self
        }
    }
}

/// The answering side of a worker: the body a route renders into and the
/// status line and headers framed in front of it, both reused across
/// requests, so the request loop allocates nothing to answer.
#[derive(Default)]
pub(super) struct Responder {
    /// The response body, rendered by the route.
    pub(super) body: String,
    /// The rendered status line and headers. The body stays in `body`;
    /// [`send`] writes both.
    head: Vec<u8>,
}

impl Responder {
    /// Frames `body` under `status` and sends head and body with [`send`] —
    /// one vectored write on the happy path, so the body leaves from the
    /// buffer it was rendered into.
    pub(super) fn respond(
        &mut self,
        stream: &mut impl Write,
        status: u16,
        content_type: &str,
        opts: RespondOptions,
    ) -> std::io::Result<()> {
        let reason = match status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            411 => "Length Required",
            413 => "Payload Too Large",
            422 => "Unprocessable Entity",
            501 => "Not Implemented",
            503 => "Service Unavailable",
            _ => "Internal Server Error",
        };
        let head = &mut self.head;
        head.clear();
        write!(
            head,
            "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n",
            self.body.len(),
        )?;
        if let Some(secs) = opts.retry_after_secs {
            write!(head, "Retry-After: {secs}\r\n")?;
        }
        if opts.keep_alive {
            head.extend_from_slice(b"Connection: keep-alive\r\n\r\n");
        } else {
            head.extend_from_slice(b"Connection: close\r\n\r\n");
        }
        let body = if opts.head_only { "" } else { &self.body };
        send(stream, head, body.as_bytes())?;
        stream.flush()
    }

    /// Answers `status` with the error body of `message`: every error
    /// answer of the server.
    pub(super) fn respond_error(
        &mut self,
        stream: &mut impl Write,
        status: u16,
        message: &str,
        opts: RespondOptions,
    ) -> std::io::Result<()> {
        self.body.clear();
        error_json_into(&mut self.body, message);
        self.respond(stream, status, "application/json", opts)
    }
}

/// Writes `head`, then `body`, with vectored writes until both have left:
/// one `writev` in the common case, so head and body leave together. A
/// partial write resumes at the first unsent byte (inside the head, or
/// inside the body once the head is out), and `Interrupted` retries.
fn send(stream: &mut impl Write, head: &[u8], body: &[u8]) -> std::io::Result<()> {
    let (mut head, mut body) = (head, body);
    while !head.is_empty() || !body.is_empty() {
        let written = if head.is_empty() {
            stream.write(body)
        } else {
            stream.write_vectored(&[IoSlice::new(head), IoSlice::new(body)])
        };
        match written {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => {
                let from_head = n.min(head.len());
                head = &head[from_head..];
                body = &body[(n - from_head).min(body.len())..];
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

#[cfg(test)]
mod body_fuzz;
#[cfg(test)]
mod head_fuzz;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percent_decoding() {
        assert_eq!(percent_decode("a%20b+c"), "a b c");
        assert_eq!(percent_decode("%3Fx%3D1"), "?x=1");
        assert_eq!(percent_decode("100%"), "100%");
        assert_eq!(percent_decode("%zz"), "%zz");
    }

    #[test]
    fn percent_decoding_truncated_escapes_fall_back_to_literals() {
        // Escapes cut off at end-of-input keep the literal bytes instead of
        // panicking or swallowing the tail.
        assert_eq!(percent_decode("%"), "%");
        assert_eq!(percent_decode("%2"), "%2");
        assert_eq!(percent_decode("a%2"), "a%2");
        assert_eq!(percent_decode("ab%"), "ab%");
        // A valid escape flush against end-of-input still decodes.
        assert_eq!(percent_decode("a%20"), "a ");
        assert_eq!(percent_decode("%41"), "A");
        // '+' runs (including a lone one) are spaces, wherever they sit.
        assert_eq!(percent_decode("+"), " ");
        assert_eq!(percent_decode("+++"), "   ");
        assert_eq!(percent_decode("%+"), "% ");
        assert_eq!(percent_decode("+%2"), " %2");
        // One bad escape does not derail later good ones.
        assert_eq!(percent_decode("%%20"), "% ");
        assert_eq!(percent_decode("%2%41"), "%2A");
        assert_eq!(percent_decode(""), "");
        // A sign is not a hex digit: "%+f" is a literal '%', a '+' (a
        // space) and an 'f', not byte 0x0F.
        assert_eq!(percent_decode("%+f"), "% f");
        assert_eq!(percent_decode("%-1"), "%-1");
        assert_eq!(percent_decode("%+F%41"), "% FA");
    }

    #[test]
    fn percent_decoding_keeps_valid_utf8_and_replaces_invalid_bytes() {
        // Escaped and raw multi-byte UTF-8 come out unchanged.
        assert_eq!(percent_decode("caf%C3%A9"), "café");
        assert_eq!(percent_decode("%E2%9F%A8o%2Cs%E2%9F%A9"), "⟨o,s⟩");
        assert_eq!(percent_decode("%F0%9F%A6%80+x"), "🦀 x");
        assert_eq!(percent_decode("⟨s⟩%20é"), "⟨s⟩ é");
        // Invalid bytes become U+FFFD, one per maximal bad sequence, and
        // the valid text around them stays.
        assert_eq!(percent_decode("a%FFb"), "a\u{FFFD}b");
        assert_eq!(percent_decode("%C3"), "\u{FFFD}");
        assert_eq!(percent_decode("%C3%28"), "\u{FFFD}(");
        assert_eq!(percent_decode("%80%80é"), "\u{FFFD}\u{FFFD}é");
    }

    /// A writer that takes at most `step` bytes per call, answers every
    /// other call with `Interrupted`, and ignores all but the first
    /// non-empty buffer of a vectored write (as `Write`'s default does).
    struct Trickle {
        written: Vec<u8>,
        step: usize,
        calls: usize,
    }

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.calls += 1;
            if self.calls.is_multiple_of(2) {
                return Err(std::io::ErrorKind::Interrupted.into());
            }
            let n = buf.len().min(self.step);
            self.written.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn send_resumes_partial_and_interrupted_writes_at_the_first_unsent_byte() {
        let head = b"HTTP/1.1 200 OK\r\nContent-Length: 26\r\n\r\n";
        let body = b"abcdefghijklmnopqrstuvwxyz";
        for step in [1, 2, 3, 7, 40, 41, 42, 66, 67, 1000] {
            for (head, body) in [
                (&head[..], &body[..]),
                (&head[..], &[][..]),
                (&[][..], &body[..]),
            ] {
                let mut sink = Trickle {
                    written: Vec::new(),
                    step,
                    calls: 0,
                };
                send(&mut sink, head, body).expect("a trickle is not an error");
                assert_eq!(sink.written, [head, body].concat(), "step {step}");
            }
        }
        // A writer that takes nothing is an error, not a spin.
        struct Full;
        impl Write for Full {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Ok(0)
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let error = send(&mut Full, b"head", b"body").expect_err("no progress");
        assert_eq!(error.kind(), std::io::ErrorKind::WriteZero);
    }
}
