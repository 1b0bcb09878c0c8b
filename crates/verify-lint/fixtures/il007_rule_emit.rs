//! IL007 fixture: a map lookup per emitted pair in the rule executors'
//! emission loops. Only the two `.add(` sites in listed functions may fire.

fn merge_join_pass(left: &[u64], right: &[u64], out: &mut InferredBuffer) {
    for (l, r) in left.iter().zip(right) {
        out.add(7, *l, *r); // positive 1: one lookup per joined pair
    }
}

fn scan_pass(scan: &TableScan, data: &TripleStore, out: &mut InferredBuffer) {
    for_each_schema_match(data, scan, |p, c| {
        if let Some(table) = data.table(p) {
            for (x, _) in table.iter_pairs() {
                out.add(1, x, c); // positive 2: inside the handler closure
            }
        }
    });
}

fn push_reversed(out: &mut InferredBuffer, p: u64, table: &PropertyTable) {
    // Negative: the vector is resolved once, sized, and pushed into.
    let out = out.table_mut(p);
    out.reserve(2 * table.len());
    for (x, y) in table.iter_pairs() {
        out.extend_from_slice(&[y, x]);
    }
}

fn scm_cls(ctx: &RuleContext<'_>, out: &mut InferredBuffer) {
    // Negative: a rule that emits a handful of pairs per new class is not
    // on the list.
    for_new_instances_of(ctx, 9, |c| {
        out.add(2, c, c);
    });
}

fn substitute_subjects(links: &[(u64, u64)], out: &mut InferredBuffer) {
    // Negative: `add_pairs` copies a whole slice under one lookup, and
    // `saturating_add(` is not `.add(`.
    out.add_pairs(4, &[1, 2]);
    let _ = 1u64.saturating_add(2);
}
