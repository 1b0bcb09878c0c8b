//! IL007 fixture: owned copies of term text on the dictionary's hit path.
//! Only the three sites in `text`/`find`/`id_of_text` may fire; the miss
//! path, the API edge and the camouflaged negatives must stay silent.

// Negative: a comment mentioning .to_string() and .clone() is blanked.

fn text(arena: &str, start: usize, end: usize) -> String {
    arena[start..end].to_string() // positive 1: an owned copy per decode
}

fn find(arena: &str, spans: &[(usize, usize)], key: &str) -> Option<usize> {
    let owned = key.to_owned(); // positive 2: an owned key per probe
    spans.iter().position(|&(s, e)| arena[s..e] == owned)
}

fn id_of_text(ids: &Vec<u64>, entry: usize) -> u64 {
    let copy = ids.clone(); // positive 3: the id table copied per lookup
    copy[entry]
}

fn span(ends: &[usize], entry: usize) -> (usize, usize) {
    // Negative inside a hot function: the banned tokens appear only in a
    // string literal, which is blanked before scanning.
    let _ = ".to_string() .clone() format!( String::new(";
    (if entry == 0 { 0 } else { ends[entry - 1] }, ends[entry])
}

fn intern(arena: &mut String, key: &str) -> String {
    // Negative: the miss path appends, and is not on the hot list.
    arena.push_str(key);
    key.to_string()
}

fn decode(text: &str) -> String {
    // Negative: the API edge materializes an owned value on purpose.
    text.to_owned()
}

#[cfg(test)]
mod tests {
    #[test]
    fn get() {
        // Negative: test items are blanked even when named like hot ones.
        let _ = format!("{}", String::new()).clone();
    }
}
