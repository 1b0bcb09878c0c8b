//! The one-shot HTTP client of the endpoint suites: one connection per
//! request, read to the end.

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};

/// Sends `request` on a fresh connection and returns the whole response.
/// The client reads to EOF, so `Connection: close` goes in before the blank
/// line that ends the head, opting out of the server's keep-alive default.
pub fn http(addr: SocketAddr, request: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let request = request.replacen("\r\n\r\n", "\r\nConnection: close\r\n\r\n", 1);
    stream.write_all(request.as_bytes()).expect("send");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read");
    response
}
