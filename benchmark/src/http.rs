//! A std-only HTTP/1.1 client for one keep-alive connection: the closed-loop
//! callers of the serve workloads. It frames responses by `Content-Length`
//! (the only framing the server produces) and reuses its buffers, so the
//! client's own cost per request stays small next to the server's.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One response; `body` borrows the connection's reused buffer.
pub struct Response<'a> {
    pub status: u16,
    pub body: &'a [u8],
}

pub struct Connection<S: Read + Write = TcpStream> {
    reader: BufReader<S>,
    request: Vec<u8>,
    line: Vec<u8>,
    body: Vec<u8>,
}

impl Connection<TcpStream> {
    pub fn open(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // A wedged server must fail the run, not hang it.
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        stream.set_write_timeout(Some(Duration::from_secs(60)))?;
        Ok(Connection::over(stream))
    }
}

impl<S: Read + Write> Connection<S> {
    pub fn over(stream: S) -> Self {
        Connection {
            reader: BufReader::with_capacity(64 << 10, stream),
            request: Vec::new(),
            line: Vec::new(),
            body: Vec::new(),
        }
    }

    pub fn get(&mut self, target: &str) -> io::Result<Response<'_>> {
        self.send("GET", target, "", b"")
    }

    pub fn post(
        &mut self,
        target: &str,
        content_type: &str,
        body: &[u8],
    ) -> io::Result<Response<'_>> {
        self.send("POST", target, content_type, body)
    }

    fn send(
        &mut self,
        method: &str,
        target: &str,
        content_type: &str,
        body: &[u8],
    ) -> io::Result<Response<'_>> {
        self.request.clear();
        write!(
            self.request,
            "{method} {target} HTTP/1.1\r\nHost: bench\r\n"
        )?;
        if method == "POST" {
            write!(
                self.request,
                "Content-Type: {content_type}\r\nContent-Length: {}\r\n",
                body.len()
            )?;
        }
        self.request.extend_from_slice(b"\r\n");
        self.request.extend_from_slice(body);
        // One write per request: head and body leave in the same segment.
        self.reader.get_mut().write_all(&self.request)?;
        self.read_response()
    }

    fn read_response(&mut self) -> io::Result<Response<'_>> {
        let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_owned());
        let mut status = None;
        let mut length = None;
        loop {
            self.line.clear();
            if self.reader.read_until(b'\n', &mut self.line)? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed before the response head ended",
                ));
            }
            let line = std::str::from_utf8(&self.line)
                .map_err(|_| bad("response head is not UTF-8"))?
                .trim_end();
            if status.is_none() {
                // "HTTP/1.1 200 OK"
                status = Some(
                    line.split(' ')
                        .nth(1)
                        .and_then(|code| code.parse::<u16>().ok())
                        .ok_or_else(|| bad("bad status line"))?,
                );
            } else if line.is_empty() {
                break;
            } else if let Some((name, value)) = line.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = Some(
                        value
                            .trim()
                            .parse::<usize>()
                            .map_err(|_| bad("bad Content-Length"))?,
                    );
                }
            }
        }
        let length = length.ok_or_else(|| bad("response without Content-Length"))?;
        self.body.resize(length, 0);
        self.reader.read_exact(&mut self.body)?;
        Ok(Response {
            status: status.unwrap_or(0),
            body: &self.body,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A canned peer: serves `input` to reads, records writes.
    struct Canned {
        input: io::Cursor<Vec<u8>>,
        written: Vec<u8>,
    }

    impl Read for Canned {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            // One byte at a time: framing must not depend on read sizes.
            let n = buf.len().min(1);
            self.input.read(&mut buf[..n])
        }
    }

    impl Write for Canned {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.written.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn canned(input: &str) -> Connection<Canned> {
        Connection::over(Canned {
            input: io::Cursor::new(input.as_bytes().to_vec()),
            written: Vec::new(),
        })
    }

    #[test]
    fn frames_back_to_back_responses_by_content_length() {
        let mut conn = canned(
            "HTTP/1.1 200 OK\r\ncontent-LENGTH: 5\r\nConnection: keep-alive\r\n\r\nhello\
             HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\n\r\n\
             HTTP/1.1 200 OK\r\nContent-Type: x\r\nContent-Length: 3\r\n\r\nabc",
        );
        let first = conn.get("/status").unwrap();
        assert_eq!((first.status, first.body), (200, &b"hello"[..]));
        let second = conn.post(
            "/update?action=assert",
            "application/n-triples",
            b"<a> <b> <c> .\n",
        );
        let second = second.unwrap();
        assert_eq!((second.status, second.body.len()), (404, 0));
        let third = conn.get("/status").unwrap();
        assert_eq!((third.status, third.body), (200, &b"abc"[..]));

        let sent = String::from_utf8(conn.reader.get_ref().written.clone()).unwrap();
        assert!(sent.starts_with("GET /status HTTP/1.1\r\nHost: bench\r\n\r\n"));
        assert!(sent.contains(
            "POST /update?action=assert HTTP/1.1\r\nHost: bench\r\n\
             Content-Type: application/n-triples\r\nContent-Length: 14\r\n\r\n<a> <b> <c> .\n"
        ));
    }

    #[test]
    fn truncated_or_unframed_responses_are_errors() {
        let mut cut = canned("HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nshort");
        assert!(cut.get("/").is_err());
        let mut unframed = canned("HTTP/1.1 200 OK\r\n\r\nbody");
        assert!(unframed.get("/").is_err());
        let mut closed = canned("");
        assert!(closed.get("/").is_err());
    }
}
