//! IL007 fixture: `/status` rendering is on the per-request hot path, so
//! `status_json_into` is in the hot list — the single allocation inside it
//! must fire. The camouflaged negatives (a cold reporter trait impl, a
//! string literal naming the banned tokens, a cfg(test) item) stay silent.

fn status_json_into(out: &mut String, epoch: u64) {
    let header = format!("epoch {epoch}"); // positive 1
    out.push_str(&header);
}

fn validation_json_into(out: &mut String) {
    // Negative: the reporter *impl* lives outside the server module in real
    // code; this same-named cold helper is not in the hot list.
    let mut scratch = String::new();
    scratch.push_str("null");
    out.push_str(&scratch);
}

fn durability_json() -> String {
    // Negative: cold, not in the hot list.
    let detail: Vec<u8> = Vec::new();
    format!("{} bytes", detail.len())
}

fn error_json_into(out: &mut String) {
    // Negative inside a hot function: banned tokens only in a blanked
    // string literal.
    out.push_str("format!( String::new( Vec::new(");
}

#[cfg(test)]
mod tests {
    #[test]
    fn status_json_into() {
        // Negative: test items are blanked even when named like hot fns.
        let _ = format!("{}", String::new());
    }
}
