//! IL007 fixture: a `Term`/`fmt` round trip per line in the batch writer.
//! Only the two sites in `write_store_ntriples` may fire.

fn write_store_ntriples(lines: &[(&str, &str, &str)], out: &mut Vec<u8>) -> usize {
    // Negative: sizing the one output buffer is what the writer does.
    let mut buffer: Vec<u8> = Vec::with_capacity(64 * 1024);
    for (s, p, o) in lines {
        let line = format!("{s} {p} {o} .\n"); // positive 1: a string per line
        let subject = s.to_string(); // positive 2: an owned term text per line
        buffer.extend_from_slice(line.as_bytes());
        let _ = subject;
    }
    out.extend_from_slice(&buffer);
    lines.len()
}

fn write_ntriples(triples: &[String], out: &mut Vec<u8>) {
    // Negative: the decoded-triple writer formats on purpose and is cold.
    for triple in triples {
        out.extend_from_slice(format!("{triple}\n").as_bytes());
    }
}
