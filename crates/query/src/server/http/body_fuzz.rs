//! Byte-mutation fuzzing of the body reader, in the style of `head_fuzz`.
//!
//! Seeds are whole requests as clients send them — a head, its body and
//! the next pipelined request — including the refused shapes (no length,
//! chunked, too large). Each case damages one with `head_fuzz`'s mutator,
//! reads its head, then its body through `read_body` over three readers:
//! the bytes as a slice, a reader that hands out one byte a call, and one
//! that fails inside the body (a timeout, or a reset). The contract:
//!
//! * the body is exactly `Content-Length` bytes of the input, or the read
//!   is refused with the status the body policy names, in its order — 501
//!   for chunked, 411 for no length, 413 above the limit, then 408 for a
//!   timeout and 400 for a short body;
//! * a 501, 411 or 413 reads no byte of the body and drains at most what
//!   the head declared (64 KiB when it declared nothing);
//! * the reader never consumes past the declared length, so the next
//!   pipelined request stays intact;
//! * nothing panics.
//!
//! `PROPTEST_CASES` raises the case count (the nightly job does).

use super::head_fuzz::mutate;
use super::*;
use crate::server::render::render_law::Mix;
use proptest::prelude::*;
use std::io::{BufReader, ErrorKind};

/// Whole requests: head, body, and the start of the next request.
const REQUEST_SEEDS: &[&str] = &[
    "POST /sparql HTTP/1.1\r\nHost: t\r\nContent-Type: application/sparql-query\r\nContent-Length: 25\r\n\r\nASK { ?s ?p ?o } LIMIT 1 GET /status HTTP/1.1\r\n\r\n",
    "POST /sparql HTTP/1.1\r\nHost: t\r\nContent-Type: application/x-www-form-urlencoded\r\nContent-Length: 30\r\n\r\nquery=ASK%20%7B%3Fs%3Fp%3Fo%7DPOST /sparql HTTP/1.1\r\nContent-Length: 3\r\n\r\nabc",
    "POST /update?action=assert HTTP/1.1\r\nHost: t\r\nContent-Length: 85\r\n\r\n<http://ex/a> <http://ex/b> \"café\"@fr .\n<http://ex/c> <http://ex/d> <http://ex/e> .\nGET /",
    "POST /sparql HTTP/1.1\r\nContent-Length: 0\r\n\r\nGET /status HTTP/1.1\r\n\r\n",
    "POST /update HTTP/1.1\r\nHost: t\r\n\r\n<http://ex/a> <http://ex/b> <http://ex/c> .\n",
    "POST /sparql HTTP/1.1\r\nTransfer-Encoding: chunked\r\nContent-Length: 4\r\n\r\n4\r\nASK \r\n0\r\n\r\n",
    "POST /update HTTP/1.1\r\nContent-Length: 70000\r\n\r\n<http://ex/a> <http://ex/b> <http://ex/c> .\n",
    "GET /status HTTP/1.1\r\nContent-Length: 5\r\n\r\nhelloGET /status HTTP/1.1\r\n\r\n",
];

/// The body limits a case reads under: below, at and above the seeds'
/// lengths, and above the 64 KiB a refusal drains.
const LIMITS: &[usize] = &[0, 7, 25, 64, 1 << 10, 70 << 10];

/// A reader over `input` that hands out at most `step` bytes a call and,
/// once `fail_at` bytes are out, fails with `fault` on every call.
struct Source<'a> {
    input: &'a [u8],
    at: usize,
    step: usize,
    fail_at: usize,
    fault: ErrorKind,
}

impl Read for Source<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.at >= self.fail_at {
            return Err(self.fault.into());
        }
        let end = self.input.len().min(self.fail_at);
        let n = buf.len().min(self.step).min(end - self.at);
        buf[..n].copy_from_slice(&self.input[self.at..self.at + n]);
        self.at += n;
        Ok(n)
    }
}

/// What `read_body` must do with `head` when the body's bytes run out
/// after `available` of them, for a reader whose end is `end` (an error
/// kind, or `UnexpectedEof` for the end of the input): the body, or the
/// status and drain of the refusal.
fn expected(
    head: &RequestHead,
    limit: usize,
    available: usize,
    end: ErrorKind,
) -> Result<Option<usize>, (u16, u64)> {
    if head.method != Method::Post {
        return Ok(None);
    }
    if head.chunked {
        return Err((501, 64 << 10));
    }
    let Some(length) = head.content_length else {
        return Err((411, 64 << 10));
    };
    if length > limit {
        return Err((413, (length as u64).min(64 << 20)));
    }
    if available < length {
        let status = match end {
            ErrorKind::TimedOut | ErrorKind::WouldBlock => 408,
            _ => 400,
        };
        return Err((status, 0));
    }
    Ok(Some(length))
}

/// Reads one request off `reader` and checks its body against the policy.
/// `consumed` says how many bytes of `input` the reader has handed out
/// past its buffer; the body's bytes end after `available` bytes past the
/// head, with `end`.
fn check_body<R: BufRead>(
    input: &[u8],
    mut reader: R,
    limit: usize,
    consumed: impl Fn(&R) -> usize,
    available_from: impl Fn(usize) -> (usize, ErrorKind),
) {
    let (mut line, mut path) = (String::new(), String::new());
    let Ok(Some(head)) = read_head(&mut reader, &mut line, &mut path) else {
        return;
    };
    let head_end = consumed(&reader);
    let (available, end) = available_from(head_end);
    let mut body = b"stale".to_vec();
    let outcome = read_body(&mut reader, &head, limit, &mut body);
    let after = consumed(&reader);
    match (expected(&head, limit, available, end), outcome) {
        (Ok(length), Ok(())) => {
            let length = length.unwrap_or(0);
            assert_eq!(body, &input[head_end..head_end + length], "{input:?}");
            assert_eq!(after, head_end + length, "read past the body: {input:?}");
        }
        (Err((status, drain)), Err(refusal)) => {
            assert_eq!(refusal.status, status, "{refusal:?} for {input:?}");
            assert_eq!(refusal.drain, drain, "{refusal:?} for {input:?}");
            assert!(!refusal.message.is_empty(), "{input:?}");
            if matches!(status, 411 | 413 | 501) {
                assert_eq!(after, head_end, "a refused body was read: {input:?}");
            }
            assert!(after <= input.len());
        }
        (expected, outcome) => {
            panic!("expected {expected:?}, read {outcome:?} for {input:?}")
        }
    }
}

/// One request through the three readers.
fn check_request(input: &[u8], seed: u64) {
    let mut rng = Mix(seed);
    let limit = LIMITS[rng.below(LIMITS.len())];
    let to_end = |head_end: usize| (input.len() - head_end, ErrorKind::UnexpectedEof);

    check_body(input, input, limit, |rest| input.len() - rest.len(), to_end);

    let one_byte = Source {
        input,
        at: 0,
        step: 1,
        fail_at: usize::MAX,
        fault: ErrorKind::UnexpectedEof,
    };
    let buffered = |reader: &BufReader<Source>| reader.get_ref().at - reader.buffer().len();
    check_body(input, BufReader::new(one_byte), limit, buffered, to_end);

    // Where the head ends decides where "mid-body" is: find it on the
    // slice, then fail somewhere after it.
    let mut probe = input;
    let (mut line, mut path) = (String::new(), String::new());
    if let Ok(Some(_)) = read_head(&mut probe, &mut line, &mut path) {
        let head_end = input.len() - probe.len();
        let fail_at = head_end + rng.below(input.len() - head_end + 1);
        let fault = [
            ErrorKind::TimedOut,
            ErrorKind::WouldBlock,
            ErrorKind::ConnectionReset,
        ][rng.below(3)];
        let failing = Source {
            input,
            at: 0,
            step: 1 + rng.below(64),
            fail_at,
            fault,
        };
        let reader = BufReader::with_capacity(1 + rng.below(32), failing);
        check_body(input, reader, limit, buffered, |head_end| {
            (fail_at.saturating_sub(head_end), fault)
        });
    }
}

/// The unmutated seeds read as the clients meant them.
#[test]
fn seeds_read_as_sent() {
    for (i, seed) in REQUEST_SEEDS.iter().enumerate() {
        for limit in LIMITS {
            check_body(
                seed.as_bytes(),
                seed.as_bytes(),
                *limit,
                |rest| seed.len() - rest.len(),
                |head_end| (seed.len() - head_end, ErrorKind::UnexpectedEof),
            );
        }
        check_request(seed.as_bytes(), i as u64);
    }
    // A body and the request pipelined behind it.
    let mut reader = REQUEST_SEEDS[0].as_bytes();
    let (mut line, mut path) = (String::new(), String::new());
    let mut body = Vec::new();
    let head = read_head(&mut reader, &mut line, &mut path)
        .expect("a well-formed head")
        .expect("a head");
    read_body(&mut reader, &head, 1 << 10, &mut body).expect("a delimited body");
    assert_eq!(body, b"ASK { ?s ?p ?o } LIMIT 1 ");
    assert_eq!(reader, b"GET /status HTTP/1.1\r\n\r\n");
}

/// How many mutants one proptest case checks.
const BATCH: u64 = 16;

proptest! {
    #[test]
    fn request_bodies_read_by_the_policy(seed in any::<u64>()) {
        for i in 0..BATCH {
            let seed = seed.wrapping_add(i);
            check_request(&mutate(REQUEST_SEEDS, seed), seed);
        }
    }
}
