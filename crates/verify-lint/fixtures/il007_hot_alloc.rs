//! IL007 fixture: per-request allocation inside the serving hot functions.
//! Only the four sites in `serve_request`/`respond`/`error_json_into`/
//! `cell_json_into` may fire; the camouflaged negatives (cold helpers, with_capacity, comments,
//! strings, cfg(test) items) must stay silent.

// Negative: a comment mentioning format!( and String::new( is blanked.

fn serve_request(buffers: &mut Vec<u8>) {
    let label = format!("request #{}", buffers.len()); // positive 1
    buffers.extend_from_slice(label.as_bytes());
}

fn respond(out: &mut Vec<u8>) {
    let scratch = String::new(); // positive 2
    out.extend_from_slice(scratch.as_bytes());
}

fn error_json_into(out: &mut String) {
    let parts: Vec<u8> = Vec::new(); // positive 3
    out.push_str(&parts.len().to_string());
}

fn cell_json_into(out: &mut String, text: &str) {
    // A per-cell copy of the arena text.
    let value = format!("{{\"value\":\"{text}\"}}"); // positive 4
    out.push_str(&value);
}

fn percent_decode(input: &str) -> String {
    // Negative: with_capacity sizes a buffer once and is allowed.
    let mut out = Vec::with_capacity(input.len());
    out.extend_from_slice(input.as_bytes());
    String::from_utf8_lossy(&out).into_owned()
}

fn handle_update(out: &mut Vec<u8>) {
    // Negative: not in the hot list — cold paths may allocate freely.
    let message = format!("{} bytes", out.len());
    let mut copy = String::new();
    copy.push_str(&message);
}

fn worker_loop() {
    // Negative: one-time per-worker buffer setup, deliberately not hot.
    let _head = String::new();
    let _body: Vec<u8> = Vec::new();
}

fn read_head(line: &mut String) -> bool {
    // Negative inside a hot function: the banned tokens appear only in a
    // string literal, which is blanked before scanning.
    line.push_str("format!( String::new( Vec::new(");
    true
}

#[cfg(test)]
mod tests {
    #[test]
    fn answer_query() {
        // Negative: test items are blanked even when named like hot fns.
        let _ = format!("{}", String::new());
    }
}
