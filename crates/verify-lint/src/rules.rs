//! The eight lint rules. Each is a pure function from prepared sources to
//! diagnostics so the fixture tests can drive them directly.

use crate::{calls_in, index_functions, Diagnostic, SourceFile};
use std::collections::{HashMap, HashSet};
use std::path::Path;

// ---------------------------------------------------------------------------
// IL001 — every crate root carries #![forbid(unsafe_code)]
// ---------------------------------------------------------------------------

/// Paths (workspace-relative suffixes) that are crate roots: each member's
/// `src/lib.rs` plus the umbrella's. Derived from the workspace manifest.
pub fn crate_roots(root_manifest: &str) -> Vec<String> {
    let mut roots = vec!["src/lib.rs".to_string()];
    let mut in_members = false;
    for line in root_manifest.lines() {
        let line = line.trim();
        if line.starts_with("members") {
            in_members = true;
        }
        if in_members {
            for piece in line.split('"').skip(1).step_by(2) {
                roots.push(format!("{piece}/src/lib.rs"));
            }
            if line.contains(']') {
                break;
            }
        }
    }
    roots
}

/// IL001: flags crate roots missing `#![forbid(unsafe_code)]`.
pub fn il001_forbid_unsafe(files: &[SourceFile], root_manifest: &str) -> Vec<Diagnostic> {
    let roots = crate_roots(root_manifest);
    let mut out = Vec::new();
    for file in files {
        let path = file.path.to_string_lossy().replace('\\', "/");
        let is_root = roots.contains(&path);
        if is_root && !file.clean.contains("#![forbid(unsafe_code)]") {
            out.push(Diagnostic {
                rule: "IL001",
                path: file.path.clone(),
                line: 1,
                message: "crate root does not carry #![forbid(unsafe_code)]".to_string(),
            });
        }
    }
    out
}

// ---------------------------------------------------------------------------
// IL002 — no panicking calls in the hot paths
// ---------------------------------------------------------------------------

/// The server/persist/snapshot hot paths: a panic here takes down a worker
/// serving live traffic or corrupts a durability transition mid-flight.
/// The shape validator is on the list because it runs under the serving
/// write lock — a panic there poisons the writer and takes every future
/// update down with it. The term lexer and the SPARQL parser are on it
/// because every `/sparql` query and `POST /update` body — text from
/// outside the process — reaches them on a worker thread, and so is what
/// a worker runs on the parsed query: the engine, the planner and the
/// store's cardinality model under it, the executor and the solution batch.
pub fn is_hot_path(path: &Path) -> bool {
    let p = path.to_string_lossy().replace('\\', "/");
    p.ends_with("crates/query/src/server.rs")
        || p.ends_with("crates/query/src/sparql.rs")
        || p.ends_with("crates/query/src/engine.rs")
        || p.ends_with("crates/query/src/planner.rs")
        || p.ends_with("crates/query/src/executor.rs")
        || p.ends_with("crates/query/src/solution.rs")
        || p.ends_with("crates/store/src/estimate.rs")
        || p.ends_with("crates/parser/src/lex.rs")
        || p.ends_with("crates/store/src/snapshot.rs")
        || p.ends_with("crates/core/src/api.rs")
        || p.ends_with("crates/rules/src/shapes/validate.rs")
        || p.contains("crates/persist/src/")
}

const PANIC_PATTERNS: &[&str] = &[
    ".unwrap()",
    ".expect(",
    "panic!(",
    "unreachable!(",
    "todo!(",
    "unimplemented!(",
];

/// IL002: flags `unwrap`/`expect`/`panic!`-family calls in hot-path files
/// (test items, comments and strings already blanked).
pub fn il002_no_panics(files: &[SourceFile]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for file in files.iter().filter(|f| is_hot_path(&f.path)) {
        for pattern in PANIC_PATTERNS {
            let mut from = 0usize;
            while let Some(offset) = file.clean_no_tests[from..].find(pattern) {
                let at = from + offset;
                from = at + pattern.len();
                // `.unwrap_or*()` and friends must not match `.unwrap()`;
                // find() on the full pattern already guarantees that. But
                // `debug_assert!`-style macros ending in the same tokens
                // cannot occur for these patterns.
                out.push(Diagnostic {
                    rule: "IL002",
                    path: file.path.clone(),
                    line: file.line_of(at),
                    message: format!(
                        "`{}` in a server/persist/snapshot hot path — return a typed error \
                         (or allowlist with justification)",
                        pattern.trim_matches(|c| c == '.' || c == '(')
                    ),
                });
            }
        }
    }
    out.sort_by_key(|d| (d.path.clone(), d.line));
    out
}

// ---------------------------------------------------------------------------
// IL003 — PropertyTable pair mutations stay in-crate and reach
//         invalidate_os_cache
// ---------------------------------------------------------------------------

/// Method names that mutate a `Vec<u64>` in place.
const VEC_MUTATORS: &[&str] = &[
    "push",
    "extend_from_slice",
    "extend",
    "resize",
    "truncate",
    "copy_within",
    "clear",
    "drain",
    "sort",
    "sort_unstable",
    "insert",
    "remove",
    "retain",
    "pop",
    "swap",
];

/// `true` when `body` mutates `self.so` at or around the occurrence list:
/// `&mut self.so`, `self.so = …` (not `==`), or `self.so.<mutator>(`.
fn mutates_self_so(body: &str) -> bool {
    if body.contains("&mut self.so") {
        return true;
    }
    let mut from = 0usize;
    while let Some(offset) = body[from..].find("self.so") {
        let at = from + offset;
        from = at + "self.so".len();
        let rest = body[from..].trim_start();
        if let Some(assigned) = rest.strip_prefix('=') {
            if !assigned.starts_with('=') {
                return true; // `self.so = …`, not `self.so == …`
            }
        }
        if let Some(method_call) = rest.strip_prefix('.') {
            let name: String = method_call
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                .collect();
            if VEC_MUTATORS.contains(&name.as_str()) {
                return true;
            }
        }
    }
    false
}

/// IL003: (a) `pairs_mut` is the raw mutation escape hatch — calling it
/// outside `crates/store` bypasses the table's invalidation discipline;
/// (b) every `property_table.rs` function that mutates `self.so` must
/// transitively reach `invalidate_os_cache`, through a call graph built
/// over the *whole workspace* — so invalidation helpers hoisted into
/// sibling files keep the proof intact, and mutators whose only
/// invalidation path was moved out from under them are still caught.
pub fn il003_os_cache_invalidation(files: &[SourceFile]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for file in files {
        let p = file.path.to_string_lossy().replace('\\', "/");
        if !p.contains("crates/store/") {
            let mut from = 0usize;
            while let Some(offset) = file.clean_no_tests[from..].find(".pairs_mut(") {
                let at = from + offset;
                from = at + ".pairs_mut(".len();
                out.push(Diagnostic {
                    rule: "IL003",
                    path: file.path.clone(),
                    line: file.line_of(at),
                    message: "raw PropertyTable::pairs_mut access outside crates/store — use a \
                              store-crate mutation API (e.g. TripleStore::remap_ids) so the \
                              ⟨o,s⟩-cache invalidation stays provable"
                        .to_string(),
                });
            }
        }
    }
    out.extend(check_mutators_reach_invalidate(files));
    out
}

/// The cross-file call-graph walk of IL003(b), also used directly by the
/// fixture tests against mock property-table/helper files. Same-named
/// functions across files union their callees (no resolution — strictly
/// more edges, so the walk can only get *less* strict than a perfect one,
/// never flag a path that does invalidate).
pub fn check_mutators_reach_invalidate(files: &[SourceFile]) -> Vec<Diagnostic> {
    let mut calls: HashMap<String, HashSet<String>> = HashMap::new();
    for file in files {
        for f in index_functions(&file.clean_no_tests) {
            calls
                .entry(f.name.clone())
                .or_default()
                .extend(calls_in(&file.clean_no_tests[f.body.clone()]));
        }
    }
    // Transitive closure: which function names eventually call the sink.
    let mut reaches: HashSet<&str> = HashSet::new();
    loop {
        let mut grew = false;
        for (name, callees) in &calls {
            if reaches.contains(name.as_str()) {
                continue;
            }
            if callees.contains("invalidate_os_cache")
                || callees.iter().any(|c| reaches.contains(c.as_str()))
            {
                reaches.insert(name.as_str());
                grew = true;
            }
        }
        if !grew {
            break;
        }
    }
    let mut out = Vec::new();
    for file in files {
        let p = file.path.to_string_lossy().replace('\\', "/");
        if !(p.ends_with("property_table.rs") && p.contains("crates/store/")) {
            continue;
        }
        for f in index_functions(&file.clean_no_tests) {
            if f.name == "invalidate_os_cache" {
                continue;
            }
            let body = &file.clean_no_tests[f.body.clone()];
            if mutates_self_so(body) && !reaches.contains(f.name.as_str()) {
                out.push(Diagnostic {
                    rule: "IL003",
                    path: file.path.clone(),
                    line: file.line_of(f.sig.start),
                    message: format!(
                        "`{}` mutates the ⟨s,o⟩ pair array but no call path reaches \
                         invalidate_os_cache — a stale ⟨o,s⟩ cache could be served",
                        f.name
                    ),
                });
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// IL004 — lock-acquisition ordering across the publish/persist protocols
// ---------------------------------------------------------------------------

/// A recognized lock class: acquisitions of `pattern` in files whose path
/// ends with `file_suffix` acquire rank `rank`. Lower rank = acquired
/// earlier; taking a lock of rank ≤ an already-held rank is an inversion.
pub struct LockClass {
    /// Path suffix the pattern is scoped to.
    pub file_suffix: &'static str,
    /// Token pattern of the acquisition site.
    pub pattern: &'static str,
    /// Position in the global order (1 = outermost).
    pub rank: u8,
    /// Human-readable lock name.
    pub name: &'static str,
}

/// The repo's documented lock order: persist state → serving writer →
/// handoff writer → handoff slot cell → status mirror (leaf). Readers of
/// the handoff only ever `try_lock` the slot cell (never blocking), but
/// the acquisition still ranks so a cell-holding path can never turn
/// around and take an outer lock. See docs/static-analysis.md.
pub const LOCK_CLASSES: &[LockClass] = &[
    LockClass {
        file_suffix: "crates/persist/src/durable.rs",
        pattern: "self.state.lock(",
        rank: 1,
        name: "persist state",
    },
    LockClass {
        file_suffix: "crates/core/src/api.rs",
        pattern: "self.writer.lock(",
        rank: 2,
        name: "serving writer",
    },
    LockClass {
        file_suffix: "crates/store/src/snapshot.rs",
        pattern: "self.writer.lock(",
        rank: 3,
        name: "handoff writer",
    },
    LockClass {
        file_suffix: "crates/store/src/snapshot.rs",
        pattern: ".cell.lock(",
        rank: 4,
        name: "handoff slot cell",
    },
    LockClass {
        file_suffix: "crates/store/src/snapshot.rs",
        pattern: ".cell.try_lock(",
        rank: 4,
        name: "handoff slot cell",
    },
    LockClass {
        file_suffix: "crates/persist/src/durable.rs",
        pattern: "self.status_mirror.lock(",
        rank: 5,
        name: "status mirror",
    },
];

struct Acquire {
    pos: usize,
    rank: u8,
    name: &'static str,
    /// Liveness end (byte offset in the body): `drop(var)`, scope end, or
    /// function end for bound guards; `pos` itself for temporaries.
    live_until: usize,
}

/// Finds the `let` binding a statement assigns its lock guard to, if any.
fn bound_var(body: &str, acquire_at: usize) -> Option<String> {
    let stmt_start = body[..acquire_at]
        .rfind([';', '{', '}'])
        .map(|i| i + 1)
        .unwrap_or(0);
    let stmt = &body[stmt_start..acquire_at];
    let let_at = stmt.find("let ")?;
    let rest = stmt[let_at + 4..].trim_start();
    let rest = rest.strip_prefix("mut ").unwrap_or(rest).trim_start();
    let var: String = rest
        .chars()
        .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
        .collect();
    if var.is_empty() || !stmt.contains('=') {
        None
    } else {
        Some(var)
    }
}

/// Brace depth at every byte of `body` (body starts at its opening `{`).
fn depths(body: &str) -> Vec<usize> {
    let mut out = Vec::with_capacity(body.len());
    let mut depth = 0usize;
    for b in body.bytes() {
        if b == b'}' {
            depth = depth.saturating_sub(1);
        }
        out.push(depth);
        if b == b'{' {
            depth += 1;
        }
    }
    out
}

/// IL004: within each function of the protocol files, no lock of rank ≤ a
/// held lock's rank may be acquired (directly, or transitively through a
/// call to another protocol-file function).
pub fn il004_lock_order(files: &[SourceFile]) -> Vec<Diagnostic> {
    let protocol_files: Vec<&SourceFile> = files
        .iter()
        .filter(|f| {
            let p = f.path.to_string_lossy().replace('\\', "/");
            LOCK_CLASSES.iter().any(|c| p.ends_with(c.file_suffix))
        })
        .collect();

    // Per-function direct acquisition ranks, for the transitive call walk.
    let mut direct: HashMap<String, HashSet<u8>> = HashMap::new();
    let mut call_map: HashMap<String, HashSet<String>> = HashMap::new();
    for file in &protocol_files {
        let p = file.path.to_string_lossy().replace('\\', "/");
        for f in index_functions(&file.clean_no_tests) {
            let body = &file.clean_no_tests[f.body.clone()];
            let entry = direct.entry(f.name.clone()).or_default();
            for class in LOCK_CLASSES {
                if p.ends_with(class.file_suffix) && body.contains(class.pattern) {
                    entry.insert(class.rank);
                }
            }
            call_map
                .entry(f.name.clone())
                .or_default()
                .extend(calls_in(body));
        }
    }
    // Fixpoint: transitive acquisition sets.
    let mut transitive = direct.clone();
    loop {
        let mut grew = false;
        let names: Vec<String> = transitive.keys().cloned().collect();
        for name in names {
            let mut add: HashSet<u8> = HashSet::new();
            if let Some(callees) = call_map.get(&name) {
                for callee in callees {
                    if let Some(ranks) = transitive.get(callee) {
                        add.extend(ranks.iter().copied());
                    }
                }
            }
            let entry = transitive.entry(name).or_default();
            let before = entry.len();
            entry.extend(add);
            if entry.len() > before {
                grew = true;
            }
        }
        if !grew {
            break;
        }
    }

    let mut out = Vec::new();
    for file in &protocol_files {
        let p = file.path.to_string_lossy().replace('\\', "/");
        for f in index_functions(&file.clean_no_tests) {
            let body = &file.clean_no_tests[f.body.clone()];
            let depth_at = depths(body);
            // Direct acquisitions with liveness intervals.
            let mut acquires: Vec<Acquire> = Vec::new();
            for class in LOCK_CLASSES {
                if !p.ends_with(class.file_suffix) {
                    continue;
                }
                let mut from = 0usize;
                while let Some(offset) = body[from..].find(class.pattern) {
                    let at = from + offset;
                    from = at + class.pattern.len();
                    let live_until = match bound_var(body, at) {
                        Some(var) => {
                            let drop_pat = format!("drop({var})");
                            let dropped = body[at..]
                                .find(&drop_pat)
                                .map(|o| at + o)
                                .unwrap_or(usize::MAX);
                            // Guard dies at the end of its enclosing scope.
                            let my_depth = depth_at[at];
                            let scope_end = (at..body.len())
                                .find(|i| depth_at[*i] < my_depth)
                                .unwrap_or(body.len());
                            dropped.min(scope_end).min(body.len())
                        }
                        None => at, // temporary: acquire+release in place
                    };
                    acquires.push(Acquire {
                        pos: at,
                        rank: class.rank,
                        name: class.name,
                        live_until,
                    });
                }
            }
            let held_at = |pos: usize| -> Vec<(&Acquire, ())> {
                acquires
                    .iter()
                    .filter(|a| a.pos < pos && pos <= a.live_until)
                    .map(|a| (a, ()))
                    .collect()
            };
            // Direct inversions.
            for a in &acquires {
                for (held, ()) in held_at(a.pos) {
                    if a.rank <= held.rank {
                        out.push(Diagnostic {
                            rule: "IL004",
                            path: file.path.clone(),
                            line: file.line_of(f.body.start + a.pos),
                            message: format!(
                                "acquires `{}` (rank {}) while holding `{}` (rank {}) — \
                                 violates the repo lock order (see docs/static-analysis.md)",
                                a.name, a.rank, held.name, held.rank
                            ),
                        });
                    }
                }
            }
            // Transitive inversions through calls.
            let bytes = body.as_bytes();
            let mut i = 0usize;
            while i < bytes.len() {
                if bytes[i].is_ascii_alphabetic() || bytes[i] == b'_' {
                    let start = i;
                    while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_')
                    {
                        i += 1;
                    }
                    let ident = &body[start..i];
                    if i < bytes.len() && bytes[i] == b'(' && ident != f.name.as_str() {
                        if let Some(ranks) = transitive.get(ident) {
                            for (held, ()) in held_at(start) {
                                if let Some(&min_rank) = ranks.iter().min() {
                                    if min_rank <= held.rank {
                                        out.push(Diagnostic {
                                            rule: "IL004",
                                            path: file.path.clone(),
                                            line: file.line_of(f.body.start + start),
                                            message: format!(
                                                "calls `{ident}` (which may acquire rank \
                                                 {min_rank}) while holding `{}` (rank {}) — \
                                                 violates the repo lock order",
                                                held.name, held.rank
                                            ),
                                        });
                                    }
                                }
                            }
                        }
                    }
                } else {
                    i += 1;
                }
            }
        }
    }
    out.sort_by_key(|d| (d.path.clone(), d.line));
    out.dedup();
    out
}

// ---------------------------------------------------------------------------
// IL005 — no std::process::exit outside src/bin
// ---------------------------------------------------------------------------

/// IL005: `process::exit` skips destructors (WAL flushes, lock releases);
/// only binary entry points under `src/bin/` may call it.
pub fn il005_no_process_exit(files: &[SourceFile]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for file in files {
        let p = file.path.to_string_lossy().replace('\\', "/");
        if p.contains("src/bin/") {
            continue;
        }
        let mut from = 0usize;
        while let Some(offset) = file.clean_no_tests[from..].find("process::exit") {
            let at = from + offset;
            from = at + "process::exit".len();
            out.push(Diagnostic {
                rule: "IL005",
                path: file.path.clone(),
                line: file.line_of(at),
                message: "std::process::exit outside src/bin skips destructors (WAL flushes, \
                          lock releases) — return an error or ExitCode instead"
                    .to_string(),
            });
        }
    }
    out
}

// ---------------------------------------------------------------------------
// IL006 — manifest hygiene
// ---------------------------------------------------------------------------

/// Collects every `[package] name = "…"` across the scanned manifests: the
/// set of intra-workspace crate names.
pub fn package_names(manifests: &[(std::path::PathBuf, String)]) -> HashSet<String> {
    let mut out = HashSet::new();
    for (_, text) in manifests {
        let mut in_package = false;
        for line in text.lines() {
            let line = line.trim();
            if line.starts_with('[') {
                in_package = line == "[package]";
            } else if in_package {
                if let Some(rest) = line.strip_prefix("name") {
                    let rest = rest.trim_start();
                    if let Some(value) = rest.strip_prefix('=') {
                        if let Some(name) = value.split('"').nth(1) {
                            out.insert(name.to_string());
                        }
                    }
                }
            }
        }
    }
    out
}

/// IL006: intra-workspace dependencies must inherit through
/// `workspace = true`, and `inferray-*` packages must inherit
/// `version`/`edition` from `[workspace.package]` (shims are exempt: they
/// impersonate external crates with pinned versions). A nested manifest
/// with its own `[workspace]` table (the `benchmark/` package) is outside
/// this workspace — it has nothing to inherit from — and is skipped.
pub fn il006_manifest_hygiene(
    manifests: &[(std::path::PathBuf, String)],
    members: &HashSet<String>,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (path, text) in manifests {
        let nested = path.parent().is_some_and(|dir| dir != Path::new(""));
        if nested && text.lines().any(|line| line.trim() == "[workspace]") {
            continue;
        }
        let mut section = String::new();
        let mut package_name = String::new();
        // First pass: the package name decides which checks apply.
        for line in text.lines() {
            let line = line.trim();
            if line.starts_with('[') {
                section = line.to_string();
            } else if section == "[package]" && line.starts_with("name") {
                if let Some(name) = line.split('"').nth(1) {
                    package_name = name.to_string();
                }
            }
        }
        let is_inferray = package_name == "inferray" || package_name.starts_with("inferray-");
        section.clear();
        for (idx, line) in text.lines().enumerate() {
            let trimmed = line.trim();
            if trimmed.starts_with('[') {
                section = trimmed.to_string();
                continue;
            }
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            let dep_section = matches!(
                section.as_str(),
                "[dependencies]" | "[dev-dependencies]" | "[build-dependencies]"
            );
            if dep_section {
                let dep_name: String = trimmed
                    .chars()
                    .take_while(|c| c.is_ascii_alphanumeric() || *c == '_' || *c == '-')
                    .collect();
                if members.contains(&dep_name)
                    && !trimmed.contains("workspace = true")
                    && !trimmed.contains(".workspace = true")
                {
                    out.push(Diagnostic {
                        rule: "IL006",
                        path: path.clone(),
                        line: idx + 1,
                        message: format!(
                            "intra-workspace dependency `{dep_name}` must inherit via \
                             `{dep_name}.workspace = true` (no per-crate paths/versions)"
                        ),
                    });
                }
            }
            if section == "[package]" && is_inferray {
                for key in ["version", "edition"] {
                    if trimmed.starts_with(&format!("{key} "))
                        || trimmed.starts_with(&format!("{key}="))
                    {
                        out.push(Diagnostic {
                            rule: "IL006",
                            path: path.clone(),
                            line: idx + 1,
                            message: format!(
                                "`{key}` must inherit from [workspace.package] \
                                 (`{key}.workspace = true`) to prevent drift"
                            ),
                        });
                    }
                }
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// IL007 — zero-allocation serving hot path
// ---------------------------------------------------------------------------

/// The per-request serving path in `crates/query/src/server.rs`: the
/// connection loop, request parsing, query answering, response rendering
/// (`results_json_into` and below walk the executor's flat batch and the
/// dictionary's arena text straight into the response buffer) and the
/// vectored write that sends head and body (`send`). `worker_loop`
/// allocates the reusable `WorkerBuffers` once per worker and is
/// deliberately *not* listed; everything it calls per request is.
pub const SERVING_HOT_FUNCTIONS: &[&str] = &[
    "handle_connection",
    "serve_request",
    "read_head",
    "query_from_query_string",
    "percent_decode",
    "answer_query",
    "results_json_into",
    "cell_json_into",
    "other_cell_json_into",
    "literal_json_into",
    "error_json_into",
    "respond_error",
    "status_json_into",
    "respond",
    "send",
];

/// What `GET /status` reaches outside `server.rs`, through the sink's
/// `status_json_into` hook: the umbrella crate's adapter, the durability,
/// validation and stage-record renderers, and the shared JSON escaper (which
/// every response cell goes through as well) with its block scan
/// (`crates/model/src/block.rs`).
pub const STATUS_RENDERERS: &[&str] = &[
    "status_json_into",
    "json_into",
    "json_string_into",
    "json_escape_into",
    "first_json_escape",
    "escape_from",
    "first_json_special",
    "first_in",
    "in_block",
    "in_word",
    "word_at",
    "json_class",
    "below",
    "equal",
];

/// Allocation constructors banned per request. `String::with_capacity` /
/// `Vec::with_capacity` and `to_owned`/`to_string` are *not* banned: the
/// former sizes a buffer once, and the latter show up only on cold error
/// arms that a token scan cannot tell apart from hot ones.
const HOT_ALLOC_PATTERNS: &[&str] = &["format!(", "String::new(", "Vec::new("];

/// The per-row kernels of `crates/query/src/executor.rs`: the step driver,
/// the scan and join kernels (`scan_table`, the join cursor's `run`), the
/// sink that filters, projects and dedups on the scan (`emit_run`, `offer`,
/// `holds`) and the sort-based `DISTINCT`. Planning (`link`, `choose_dedup`
/// in `planner.rs`) allocates a handful of small vectors per *query* and is
/// not listed.
pub const EXECUTOR_KERNELS: &[&str] = &[
    "execute",
    "run_step",
    "scan_table",
    "run",
    "emit_run",
    "offer",
    "holds",
    "sort_dedup",
];

/// The flat batch the kernels write and the renderer walks
/// (`crates/query/src/solution.rs`).
pub const BATCH_ACCESSORS: &[&str] = &["reset", "row", "rows", "slice"];

/// Banned per row: fresh containers and copies of a row. `reserve` /
/// `with_capacity` on the reusable batches stay legal — they size a buffer
/// that outlives the query.
const KERNEL_ALLOC_PATTERNS: &[&str] = &[
    "format!(",
    "String::new(",
    "Vec::new(",
    "vec![",
    ".clone()",
    ".to_vec()",
    ".to_owned()",
    ".collect",
];

/// The dictionary's hit path — what a lookup or a decode of a *known* term
/// runs: `Dictionary::text` / `id_of_text` in `dictionary.rs` and, in
/// `arena.rs`, `text`, `get` and the probe under them (`find`, `span`,
/// `home_slot`). The miss path (`intern`, `commit`, `grow`) appends and
/// re-seats, and is not listed.
pub const DICTIONARY_HIT_PATH: &[&str] =
    &["text", "id_of_text", "get", "find", "span", "home_slot"];

/// The batch writer's loop in `crates/parser/src/writer.rs`: three arena
/// slices copied per line into one reused buffer.
pub const WRITER_LOOP: &[&str] = &["write_store_ntriples"];

/// Banned where a term is only read: anything that builds an owned copy of
/// its text (or of the term). `Vec::with_capacity` for the one output
/// buffer stays legal.
const TEXT_COPY_PATTERNS: &[&str] = &[
    "format!(",
    "String::new(",
    ".to_string()",
    ".clone()",
    ".to_owned()",
];

/// The rule kernels that emit one pair per joined pair or per copied pair
/// (`crates/rules/src/executors/`): the merge-join and table-scan passes,
/// the reversed copy the scan shares, the closure kernel (one pair per
/// missing closure pair), the substitution's three loops (one pair per data
/// pair of a linked term, driven from the links or from the frontier) and
/// the self join's group linking (one pair per two values of a group).
pub const RULE_EMIT: &[&str] = &[
    "merge_join_pass",
    "scan_pass",
    "push_reversed",
    "apply_closure",
    "substitute_subjects",
    "substitute_objects",
    "substitute_from_frontier",
    "link_group_values",
];

/// Banned per emitted pair: `InferredBuffer::add` looks the property's
/// vector up in the buffer's map on every call.
const PER_PAIR_EMIT_PATTERNS: &[&str] = &[".add("];

/// The zero-allocation functions of one file (or of a set of files that
/// share one list).
struct HotList {
    path_suffixes: &'static [&'static str],
    functions: &'static [&'static str],
    banned: &'static [&'static str],
    /// What a listed function is, for the message.
    role: &'static str,
    /// What to do instead.
    advice: &'static str,
}

const HOT_LISTS: &[HotList] = &[
    HotList {
        path_suffixes: &["crates/query/src/server.rs"],
        functions: SERVING_HOT_FUNCTIONS,
        banned: HOT_ALLOC_PATTERNS,
        role: "serving hot function",
        advice: "write into the per-worker reusable buffers (WorkerBuffers) instead, or move \
             cold work into a function outside the hot list",
    },
    HotList {
        // `src/lib.rs` is the umbrella crate's adapter; the suffix also
        // holds every other crate root to the same rule, which is fine.
        path_suffixes: &[
            "src/lib.rs",
            "crates/persist/src/durable.rs",
            "crates/core/src/api.rs",
            "crates/core/src/stages.rs",
            "crates/model/src/json.rs",
            "crates/model/src/block.rs",
        ],
        functions: STATUS_RENDERERS,
        banned: HOT_ALLOC_PATTERNS,
        role: "status renderer",
        advice: "`write!` into the caller's buffer; `GET /status` is served from the \
             zero-allocation request loop",
    },
    HotList {
        path_suffixes: &["crates/query/src/executor.rs"],
        functions: EXECUTOR_KERNELS,
        banned: KERNEL_ALLOC_PATTERNS,
        role: "executor kernel",
        advice: "write into the reusable batches (the output batch and Scratch) instead; \
             per-query set-up belongs in the planner",
    },
    HotList {
        path_suffixes: &["crates/query/src/solution.rs"],
        functions: BATCH_ACCESSORS,
        banned: KERNEL_ALLOC_PATTERNS,
        role: "batch accessor",
        advice: "hand out slices of the flat buffer; boxed copies belong in the convenience \
             methods outside the hot list",
    },
    HotList {
        path_suffixes: &[
            "crates/dictionary/src/dictionary.rs",
            "crates/dictionary/src/arena.rs",
        ],
        functions: DICTIONARY_HIT_PATH,
        banned: TEXT_COPY_PATTERNS,
        role: "dictionary hit-path function",
        advice: "hand out a slice of the text arena; an owned `Term` or `String` belongs at \
             the API edge (`decode`, `iter`), outside the hot list",
    },
    HotList {
        path_suffixes: &["crates/parser/src/writer.rs"],
        functions: WRITER_LOOP,
        banned: TEXT_COPY_PATTERNS,
        role: "writer loop",
        advice: "copy `Dictionary::text` slices into the one output buffer; no `Term`, no \
             `fmt`, no per-line string",
    },
    HotList {
        path_suffixes: &[
            "crates/rules/src/executors/join.rs",
            "crates/rules/src/executors/gamma.rs",
            "crates/rules/src/executors/theta.rs",
            "crates/rules/src/executors/substitution.rs",
            "crates/rules/src/executors/self_join.rs",
        ],
        functions: RULE_EMIT,
        banned: PER_PAIR_EMIT_PATTERNS,
        role: "rule emission loop",
        advice: "resolve the output vector once per join or per schema pair with \
             `InferredBuffer::table_mut`, reserve where the size is known, and push",
    },
];

/// IL007: the serving hot path must render into the per-worker reusable
/// buffers and the executor's kernels into the reusable batches — no fresh
/// container or row copy per request or per row — the dictionary's hit
/// path and the batch writer must move arena slices, never owned text, and
/// the rule executors' emission loops must push into a vector they resolved
/// once, never look it up per pair. Cold work (error-message construction,
/// update handling, planning) belongs in a function outside the hot lists.
pub fn il007_no_hot_path_allocation(files: &[SourceFile]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for file in files {
        let p = file.path.to_string_lossy().replace('\\', "/");
        let Some(list) = HOT_LISTS
            .iter()
            .find(|l| l.path_suffixes.iter().any(|suffix| p.ends_with(suffix)))
        else {
            continue;
        };
        for f in index_functions(&file.clean_no_tests)
            .iter()
            .filter(|f| list.functions.contains(&f.name.as_str()))
        {
            let body = &file.clean_no_tests[f.body.clone()];
            for pattern in list.banned {
                let mut from = 0usize;
                while let Some(offset) = body[from..].find(pattern) {
                    let at = from + offset;
                    from = at + pattern.len();
                    out.push(Diagnostic {
                        rule: "IL007",
                        path: file.path.clone(),
                        line: file.line_of(f.body.start + at),
                        message: format!(
                            "`{}` in {} `{}` — {}",
                            pattern.trim_end_matches('('),
                            list.role,
                            f.name,
                            list.advice
                        ),
                    });
                }
            }
        }
    }
    out.sort_by_key(|d| (d.path.clone(), d.line));
    out
}

// ---------------------------------------------------------------------------
// IL008 — one description per rule
// ---------------------------------------------------------------------------

/// The only places allowed to construct catalog rows: the catalog itself
/// and the rule-program analyzer that compiles its rule texts.
fn may_construct_rule_info(path: &str) -> bool {
    path.ends_with("crates/rules/src/catalog.rs") || path.contains("crates/rules/src/analysis/")
}

/// The code that fires, probes, schedules and explains rules — the rules
/// and core crates and the umbrella crate's `src/` — may not pick what to do
/// by a built-in's `RuleId` variant; the catalog, which defines them, may.
fn may_name_rule_variants(path: &str) -> bool {
    let picks_kernels = ["crates/rules/src/", "crates/core/src/"]
        .iter()
        .any(|dir| path.contains(dir))
        || path.starts_with("src/");
    !picks_kernels || path.ends_with("crates/rules/src/catalog.rs")
}

/// IL008: one description per rule. `RuleInfo { … }` literals may only
/// appear in `crates/rules/src/catalog.rs` and the analysis module —
/// everywhere else goes through `RuleId::info()` or the analyzer's derived
/// signatures; a row minted elsewhere would be a rule whose text and kernel
/// nothing else knows about. And no non-test code of the rules crate, the
/// core crate or the umbrella crate names a `RuleId` variant
/// (`RuleId::PrpFp`, or a `RuleId::*` import) outside the catalog: a rule's
/// behaviour is read off its text (`lowering`), so a dispatch on a built-in
/// would make the built-in and the same text as a custom rule run apart.
/// `RuleId::ALL` and the type itself stay legal.
pub fn il008_one_description_per_rule(files: &[SourceFile]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for file in files {
        let p = file.path.to_string_lossy().replace('\\', "/");
        let text = &file.clean_no_tests;
        let mut flag = |at: usize, message: String| {
            out.push(Diagnostic {
                rule: "IL008",
                path: file.path.clone(),
                line: file.line_of(at),
                message,
            })
        };
        if !may_construct_rule_info(&p) {
            for at in word_starts(text, "RuleInfo") {
                // A literal is `RuleInfo` followed (past whitespace) by `{`.
                // Type positions (`-> RuleInfo` in a signature with the body
                // brace) can collide; that coarseness is deliberate — the
                // allowlist is the escape hatch.
                if text[at + "RuleInfo".len()..].trim_start().starts_with('{') {
                    flag(
                        at,
                        "RuleInfo literal outside crates/rules/src/catalog.rs and the \
                              analysis module — construct rows only there (or read them via \
                              RuleId::info) so the catalog stays the single source of truth"
                            .to_string(),
                    );
                }
            }
        }
        if !may_name_rule_variants(&p) {
            for at in word_starts(text, "RuleId::") {
                let rest = &text[at + "RuleId::".len()..];
                let end = rest.find(|c: char| !c.is_ascii_alphanumeric() && c != '_');
                let name = &rest[..end.unwrap_or(rest.len())];
                let variant = name.starts_with(|c: char| c.is_ascii_uppercase())
                    && name.contains(|c: char| c.is_ascii_lowercase());
                if variant || rest.starts_with('*') {
                    let name = if variant { name } else { "*" };
                    flag(
                        at,
                        format!(
                            "`RuleId::{name}` outside crates/rules/src/catalog.rs — \
                                      pick a rule's behaviour by its compiled text \
                                      (`Ruleset::compiled`, `lowering`), so a built-in and the \
                                      same text as a custom rule run one path"
                        ),
                    );
                }
            }
        }
    }
    out.sort_by_key(|d| (d.path.clone(), d.line));
    out
}

/// The byte offsets of `word` in `text` that start an identifier.
fn word_starts<'a>(text: &'a str, word: &'a str) -> impl Iterator<Item = usize> + 'a {
    let bytes = text.as_bytes();
    text.match_indices(word)
        .map(|(at, _)| at)
        .filter(move |&at| {
            at == 0 || !(bytes[at - 1].is_ascii_alphanumeric() || bytes[at - 1] == b'_')
        })
}
