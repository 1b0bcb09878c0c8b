//! Byte-mutation fuzzing of the request-head reader and of
//! `percent_decode`, in the style of the text front ends' fuzz suite
//! (`tests/lexer_fuzz.rs`).
//!
//! Seeds are real request heads (the shapes `curl`, the benchmark client
//! and the integration tests send) and real query strings. Each case
//! damages one — truncation, byte flips, random bytes (so non-UTF-8),
//! splices, inserted delimiters — and some cases blow it past the head
//! cap. The contract: a head reads as `Ok`, or as an error with a status
//! the reader answers (400, or 408 for a timeout) and a message; it never
//! panics. `percent_decode` never panics, and decodes what a percent
//! encoder wrote back to the bytes it encoded.
//!
//! `PROPTEST_CASES` raises the case count (the nightly job does).

use super::*;
use crate::server::render::render_law::Mix;
use proptest::prelude::*;

/// Request heads as clients send them.
const HEAD_SEEDS: &[&str] = &[
    "GET /sparql?query=SELECT%20*%20WHERE%20%7B%20%3Fs%20%3Fp%20%3Fo%20%7D HTTP/1.1\r\nHost: 127.0.0.1:7878\r\n\r\n",
    "POST /sparql HTTP/1.1\r\nHost: t\r\nContent-Type: application/sparql-query\r\nContent-Length: 25\r\n\r\n",
    "POST /sparql HTTP/1.1\r\nHost: localhost\r\nContent-Type: application/x-www-form-urlencoded; charset=UTF-8\r\nContent-Length: 40\r\nConnection: keep-alive\r\n\r\n",
    "HEAD /status HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n",
    "POST /update?action=assert HTTP/1.1\r\nTransfer-Encoding: gzip, chunked\r\nConnection: close\r\n\r\n",
    "GET /status HTTP/1.1\r\nHost: t\r\nUser-Agent: curl/8.5.0\r\nAccept: */*\r\nConnection: upgrade, close\r\n\r\nGET /status HTTP/1.1\r\n\r\n",
    "DELETE /sparql HTTP/1.1\nContent-Length:7\n\n",
];

/// Query strings and form bodies as clients send them.
const QUERY_SEEDS: &[&str] = &[
    "query=SELECT%20*%20WHERE%20%7B%20%3Fs%20%3Fp%20%3Fo%20%7D",
    "query=ASK+%7B+%3Chttp%3A%2F%2Fex%2Fs%3E+%3Fp+%3Fo+%7D&default-graph-uri=",
    "action=assert",
    "query=SELECT%20%3Fx%20WHERE%20%7B%20%3Fx%20a%20%22caf%C3%A9%22%40fr%20%7D%20LIMIT%2010",
    "%",
    "%2",
    "%zz%+f%C3%A9%E2%82",
    "a=b&query&query=",
];

/// What the mutator inserts: the delimiters of a head and of a query
/// string, and bytes that are not UTF-8 or not visible.
const INSERTS: &[&[u8]] = &[
    b"\r\n",
    b"\n",
    b"\r",
    b"\r\n\r\n",
    b":",
    b" ",
    b"\t",
    b",",
    b"%",
    b"%2",
    b"%zz",
    b"+",
    b"&",
    b"=",
    b"?",
    b"Content-Length: ",
    b"Content-Length: 18446744073709551616",
    b"Transfer-Encoding: chunked",
    b"Connection: close",
    b"HTTP/1.1",
    b"\0",
    b"\xff",
    b"\xc3",
    b"\xe2\x82",
    "é".as_bytes(),
    "\u{2028}".as_bytes(),
];

/// One seed, damaged by one to four mutations; one case in eight is then
/// grown past the 64 KiB head cap (a long header run or a long line).
pub(super) fn mutate(seeds: &[&str], seed: u64) -> Vec<u8> {
    let mut rng = Mix(seed);
    let mut bytes = seeds[rng.below(seeds.len())].as_bytes().to_vec();
    for _ in 0..1 + rng.below(4) {
        let at = rng.below(bytes.len() + 1);
        match rng.below(5) {
            0 => bytes.truncate(at),
            1 if !bytes.is_empty() => {
                let at = at.min(bytes.len() - 1);
                bytes[at] ^= 1 << rng.below(8);
            }
            2 if !bytes.is_empty() => {
                let at = at.min(bytes.len() - 1);
                bytes[at] = rng.next() as u8;
            }
            3 => {
                let donor = seeds[rng.below(seeds.len())].as_bytes();
                let from = rng.below(donor.len() + 1);
                let len = rng.below(48).min(donor.len() - from);
                bytes.splice(at..at, donor[from..from + len].iter().copied());
            }
            _ => {
                let insert = INSERTS[rng.below(INSERTS.len())];
                bytes.splice(at..at, insert.iter().copied());
            }
        }
    }
    if rng.below(8) == 0 {
        let at = rng.below(bytes.len() + 1);
        let filler: &[u8] = if rng.below(2) == 0 {
            b"X-Filler: 0123456789abcdef\r\n"
        } else {
            b"0123456789abcdef"
        };
        let grown: Vec<u8> = filler.iter().copied().cycle().take(70 << 10).collect();
        bytes.splice(at..at, grown);
    }
    bytes
}

/// Reads heads off `input` as a keep-alive connection would, until the
/// input ends or a head fails; checks every outcome.
fn check_heads(input: &[u8]) {
    let mut reader = input;
    let (mut line, mut path) = (String::new(), String::new());
    // Every head read consumes at least one line, so this ends.
    loop {
        match read_head(&mut reader, &mut line, &mut path) {
            Ok(None) => return,
            Ok(Some(_)) => {
                assert!(!path.is_empty(), "a head without a target: {input:?}");
                let query = path.split_once('?').map_or("", |(_, qs)| qs);
                let _ = query_param(query, "query");
            }
            Err(Refusal {
                status, message, ..
            }) => {
                assert!(
                    matches!(status, 400 | 408),
                    "status {status} ({message}) for {input:?}"
                );
                assert!(!message.is_empty(), "an empty diagnostic for {input:?}");
                return;
            }
        }
    }
}

fn check_query_string(input: &[u8]) {
    let text = String::from_utf8_lossy(input);
    let _ = percent_decode(&text);
    let _ = query_param(&text, "query");
    // Whatever the bytes, encoding every one of them decodes back to them.
    let encoded: String = input.iter().map(|byte| format!("%{byte:02x}")).collect();
    assert_eq!(percent_decode(&encoded), String::from_utf8_lossy(input));
}

/// The unmutated seeds read as the clients meant them.
#[test]
fn seeds_read_as_sent() {
    for seed in HEAD_SEEDS {
        check_heads(seed.as_bytes());
    }
    let mut reader = HEAD_SEEDS[2].as_bytes();
    let (mut line, mut path) = (String::new(), String::new());
    let head = read_head(&mut reader, &mut line, &mut path)
        .expect("a well-formed head")
        .expect("a head");
    assert_eq!(head.method, Method::Post);
    assert_eq!(head.content_length, Some(40));
    assert!(head.form_urlencoded && !head.close && !head.chunked);
    for seed in QUERY_SEEDS {
        check_query_string(seed.as_bytes());
    }
    assert_eq!(
        query_param(QUERY_SEEDS[1], "query").as_deref(),
        Some("ASK { <http://ex/s> ?p ?o }")
    );
}

/// How many mutants one proptest case checks.
const BATCH: u64 = 16;

proptest! {
    #[test]
    fn request_heads_never_panic(seed in any::<u64>()) {
        for i in 0..BATCH {
            check_heads(&mutate(HEAD_SEEDS, seed.wrapping_add(i)));
        }
    }

    #[test]
    fn percent_decoding_never_panics(seed in any::<u64>()) {
        for i in 0..BATCH {
            check_query_string(&mutate(QUERY_SEEDS, seed.wrapping_add(i)));
        }
    }
}
