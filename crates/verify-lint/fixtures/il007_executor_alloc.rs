//! IL007 fixture: per-row allocation inside the executor's kernels. Only the
//! four sites in `scan_table`/`emit_run`/`offer`/`sort_dedup` may fire; the
//! camouflaged negatives (buffer sizing, per-query planning, comments,
//! strings, cfg(test) items) must stay silent.

// Negative: a comment mentioning Vec::new( and .clone() is blanked.

fn scan_table(pairs: &[u64], out: &mut Vec<u64>) {
    let matches: Vec<u64> = Vec::new(); // positive 1
    out.extend_from_slice(&matches);
    out.extend_from_slice(pairs);
}

fn emit_run(row: &Vec<u64>, run: &[u64], out: &mut Vec<Vec<u64>>) {
    // Negative: sizing the reusable batch is what the kernels are meant to do.
    out.reserve(run.len() / 2);
    let mut sized: Vec<u64> = Vec::with_capacity(run.len());
    sized.extend_from_slice(run);
    for _pair in run.chunks_exact(2) {
        out.push(row.clone()); // positive 2: a heap row per match
    }
}

fn offer(row: &[u64], out: &mut Vec<u64>) {
    let projected: Vec<u64> = row.iter().copied().collect(); // positive 3
    out.extend_from_slice(&projected);
}

fn sort_dedup(batch: &mut Vec<u64>) {
    let label = format!("{} values", batch.len()); // positive 4
    batch.sort_unstable();
    batch.dedup();
    let _ = label;
}

fn run(pairs: &[u64]) -> &[u64] {
    // Negative inside a kernel: the banned tokens appear only in a string
    // literal, which is blanked before scanning.
    let _ = "Vec::new( .clone() vec![ .collect";
    pairs
}

fn link(patterns: &[u64]) -> Vec<u64> {
    // Negative: planning runs once per query and is not a kernel.
    let mut steps = Vec::new();
    steps.extend(patterns.iter().cloned().collect::<Vec<u64>>());
    steps.clone()
}

#[cfg(test)]
mod tests {
    #[test]
    fn execute() {
        // Negative: test items are blanked even when named like kernels.
        let _ = vec![format!("{}", String::new())].clone();
    }
}
