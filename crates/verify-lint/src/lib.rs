//! Repo-specific lint pass for the Inferray workspace.
//!
//! A dependency-free, token/line-level Rust source scanner — in the spirit
//! of the offline shims, no `syn` — enforcing rules clippy cannot express
//! because they encode *this repo's* protocols:
//!
//! | rule  | enforces |
//! |-------|----------|
//! | IL001 | every crate root carries `#![forbid(unsafe_code)]` |
//! | IL002 | no `unwrap`/`expect`/`panic!`-family calls in the server module (every file of `query/src/server/`), term-lexer, SPARQL-parser, query-engine (engine, planner, executor, solution batch), persist, snapshot and shape-validator hot paths |
//! | IL003 | `PropertyTable` pair mutations stay in the store crate and provably reach `invalidate_os_cache` (workspace-wide call-graph walk) |
//! | IL004 | lock-acquisition ordering across the publish/persist protocols |
//! | IL005 | no `std::process::exit` outside `src/bin` |
//! | IL006 | manifest hygiene: intra-workspace deps via `workspace = true`, no version drift |
//! | IL007 | no per-request allocation (`format!`/`String::new`/`Vec::new`) in the serving hot path (every file of `query/src/server/`) and the `/status` renderers it reaches, no per-row allocation or row copy (`.clone()`, `vec![`, `.collect`, …) in the executor's kernels and the batch accessors, no owned copy of a term's text (`.to_string()`, `.clone()`, `.to_owned()`, …) on the dictionary's hit path and in the batch writer's loop |
//! | IL008 | one description per rule: `RuleInfo` literals only in the rule catalog and the rule-program analyzer, and no `RuleId` variant named in the non-test code of the rules and core crates or the umbrella crate outside the catalog |
//!
//! Findings a human has justified live in `crates/verify-lint/allowlist.txt`
//! (rule, path suffix, line substring, justification); unused entries are
//! themselves errors so the list cannot rot. The scanner is deliberately
//! conservative: comments, string literals and `#[cfg(test)]` items (with
//! the files a `#[cfg(test)] mod name;` loads) are blanked before any rule
//! looks at the text, and the IL003/IL004 call-graph walks union
//! same-named functions rather than attempting resolution.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;
use std::ops::Range;
use std::path::{Path, PathBuf};

pub mod rules;

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Rule identifier, e.g. `"IL002"`.
    pub rule: &'static str,
    /// File the finding is in (workspace-relative when produced by [`run`]).
    pub path: PathBuf,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {}:{}: {}",
            self.rule,
            self.path.display(),
            self.line,
            self.message
        )
    }
}

/// A source file prepared for scanning: raw text plus a *cleaned* view in
/// which comments, string/char literals and `#[cfg(test)]` items are blanked
/// (byte-for-byte, newlines preserved) so token scans cannot be fooled.
pub struct SourceFile {
    /// Path as given (workspace-relative in the driver).
    pub path: PathBuf,
    /// Original text.
    pub raw: String,
    /// Comment/string-blanked text, same length as `raw`.
    pub clean: String,
    /// `clean` with `#[cfg(test)]` item bodies additionally blanked.
    pub clean_no_tests: String,
}

impl SourceFile {
    /// Prepares a file for scanning.
    pub fn new(path: PathBuf, raw: String) -> SourceFile {
        let clean = blank_comments_and_strings(&raw);
        let clean_no_tests = blank_test_items(&clean);
        SourceFile {
            path,
            raw,
            clean,
            clean_no_tests,
        }
    }

    /// 1-based line number of a byte offset.
    pub fn line_of(&self, byte: usize) -> usize {
        self.raw[..byte.min(self.raw.len())]
            .bytes()
            .filter(|b| *b == b'\n')
            .count()
            + 1
    }

    /// The raw text of a 1-based line (for allowlist substring matching).
    pub fn line_text(&self, line: usize) -> &str {
        self.raw.lines().nth(line.saturating_sub(1)).unwrap_or("")
    }
}

/// Blanks `//` and nested `/* */` comments, `"…"`, `r#"…"#`, `b"…"` string
/// literals and `'c'` char literals (lifetimes survive), preserving length
/// and newlines.
pub fn blank_comments_and_strings(raw: &str) -> String {
    let bytes = raw.as_bytes();
    let mut out = raw.as_bytes().to_vec();
    let mut i = 0usize;
    let n = bytes.len();
    let blank = |out: &mut [u8], range: Range<usize>| {
        for b in &mut out[range] {
            if *b != b'\n' {
                *b = b' ';
            }
        }
    };
    while i < n {
        match bytes[i] {
            b'/' if i + 1 < n && bytes[i + 1] == b'/' => {
                let end = raw[i..].find('\n').map(|o| i + o).unwrap_or(n);
                blank(&mut out, i..end);
                i = end;
            }
            b'/' if i + 1 < n && bytes[i + 1] == b'*' => {
                let mut depth = 1usize;
                let mut j = i + 2;
                while j < n && depth > 0 {
                    if j + 1 < n && bytes[j] == b'/' && bytes[j + 1] == b'*' {
                        depth += 1;
                        j += 2;
                    } else if j + 1 < n && bytes[j] == b'*' && bytes[j + 1] == b'/' {
                        depth -= 1;
                        j += 2;
                    } else {
                        j += 1;
                    }
                }
                blank(&mut out, i..j);
                i = j;
            }
            b'r' | b'b' if is_raw_string_start(bytes, i) => {
                let (hash_start, hashes) = raw_string_hashes(bytes, i);
                let open_quote = hash_start + hashes;
                let closer: Vec<u8> = std::iter::once(b'"')
                    .chain(std::iter::repeat_n(b'#', hashes))
                    .collect();
                let body_start = open_quote + 1;
                let end = find_bytes(bytes, &closer, body_start)
                    .map(|o| o + closer.len())
                    .unwrap_or(n);
                blank(&mut out, i..end);
                i = end;
            }
            b'"' => {
                let mut j = i + 1;
                while j < n {
                    match bytes[j] {
                        b'\\' => j += 2,
                        b'"' => {
                            j += 1;
                            break;
                        }
                        _ => j += 1,
                    }
                }
                blank(&mut out, i..j.min(n));
                i = j.min(n).max(i + 1);
            }
            b'\'' => {
                // Distinguish a char literal from a lifetime: a lifetime is
                // `'ident` NOT followed by a closing quote.
                let is_lifetime = i + 1 < n
                    && (bytes[i + 1].is_ascii_alphabetic() || bytes[i + 1] == b'_')
                    && !(i + 2 < n && bytes[i + 2] == b'\'');
                if is_lifetime {
                    i += 1;
                    continue;
                }
                let mut j = i + 1;
                if j < n && bytes[j] == b'\\' {
                    j += 2;
                }
                // consume up to the closing quote (chars may be multibyte)
                while j < n && bytes[j] != b'\'' {
                    j += 1;
                }
                j = (j + 1).min(n);
                blank(&mut out, i..j);
                i = j;
            }
            _ => i += 1,
        }
    }
    String::from_utf8(out).expect("blanking is ASCII-safe byte replacement")
}

fn is_raw_string_start(bytes: &[u8], i: usize) -> bool {
    // r", r#", br", b" — conservatively: r/b[r]?#*"
    let mut j = i;
    if bytes[j] == b'b' {
        j += 1;
        if j < bytes.len() && bytes[j] == b'r' {
            j += 1;
        } else {
            return j < bytes.len() && bytes[j] == b'"';
        }
    } else if bytes[j] == b'r' {
        j += 1;
    } else {
        return false;
    }
    while j < bytes.len() && bytes[j] == b'#' {
        j += 1;
    }
    j < bytes.len() && bytes[j] == b'"'
}

fn raw_string_hashes(bytes: &[u8], i: usize) -> (usize, usize) {
    let mut j = i;
    while j < bytes.len() && (bytes[j] == b'r' || bytes[j] == b'b') {
        j += 1;
    }
    let start = j;
    while j < bytes.len() && bytes[j] == b'#' {
        j += 1;
    }
    (start, j - start)
}

fn find_bytes(haystack: &[u8], needle: &[u8], from: usize) -> Option<usize> {
    if needle.is_empty() || from >= haystack.len() {
        return None;
    }
    haystack[from..]
        .windows(needle.len())
        .position(|w| w == needle)
        .map(|o| o + from)
}

/// Blanks the bodies of items annotated `#[cfg(test)]` in already-cleaned
/// text (test modules, test-only functions).
pub fn blank_test_items(clean: &str) -> String {
    let marker = "#[cfg(test)]";
    let mut out = clean.as_bytes().to_vec();
    let bytes = clean.as_bytes();
    let mut from = 0usize;
    while let Some(offset) = clean[from..].find(marker) {
        let attr_at = from + offset;
        let mut i = attr_at + marker.len();
        // Skip whitespace and further attributes.
        loop {
            while i < bytes.len() && bytes[i].is_ascii_whitespace() {
                i += 1;
            }
            if i < bytes.len() && bytes[i] == b'#' {
                // skip `#[...]`
                let mut depth = 0usize;
                while i < bytes.len() {
                    match bytes[i] {
                        b'[' => depth += 1,
                        b']' => {
                            depth -= 1;
                            if depth == 0 {
                                i += 1;
                                break;
                            }
                        }
                        _ => {}
                    }
                    i += 1;
                }
            } else {
                break;
            }
        }
        // The item: blank to its closing brace (or `;` for `mod x;`).
        let mut depth = 0usize;
        let mut end = i;
        while end < bytes.len() {
            match bytes[end] {
                b'{' => depth += 1,
                b'}' => {
                    depth -= 1;
                    if depth == 0 {
                        end += 1;
                        break;
                    }
                }
                b';' if depth == 0 => {
                    end += 1;
                    break;
                }
                _ => {}
            }
            end += 1;
        }
        for b in &mut out[attr_at..end.min(bytes.len())] {
            if *b != b'\n' {
                *b = b' ';
            }
        }
        from = end.max(attr_at + marker.len());
        if from >= clean.len() {
            break;
        }
    }
    String::from_utf8(out).expect("blanking is ASCII-safe byte replacement")
}

/// Blanks whole files that only test code brings into the build: a file a
/// `#[cfg(test)] mod name;` declaration loads is that item's body, so it is
/// blanked in `clean_no_tests` as an inline test module's body is, and so is
/// every file such a file declares in turn. A declaration resolves to
/// `name.rs` or `name/mod.rs` beside a `lib.rs`, `main.rs` or `mod.rs`, and
/// under `stem/` beside any other `stem.rs`.
pub fn blank_test_modules(files: &mut [SourceFile]) {
    let index: HashMap<PathBuf, usize> = files
        .iter()
        .enumerate()
        .map(|(i, f)| (f.path.clone(), i))
        .collect();
    let resolve = |parent: &Path, name: &str| {
        module_files(parent, name)
            .into_iter()
            .find_map(|path| index.get(&path).copied())
    };
    let mut frontier = Vec::new();
    for file in files.iter() {
        for (name, under_cfg_test) in declared_modules(file) {
            if under_cfg_test {
                frontier.extend(resolve(&file.path, &name));
            }
        }
    }
    let mut test_only = vec![false; files.len()];
    while let Some(i) = frontier.pop() {
        if std::mem::replace(&mut test_only[i], true) {
            continue;
        }
        for (name, _) in declared_modules(&files[i]) {
            frontier.extend(resolve(&files[i].path, &name));
        }
    }
    for (file, test_only) in files.iter_mut().zip(test_only) {
        if test_only {
            file.clean_no_tests = file
                .clean
                .chars()
                .map(|c| if c == '\n' { c } else { ' ' })
                .collect();
        }
    }
}

/// The `mod name;` declarations of a file, each with whether a
/// `#[cfg(test)]` blanked it (it survives in `clean`, not in
/// `clean_no_tests`).
fn declared_modules(file: &SourceFile) -> Vec<(String, bool)> {
    let bytes = file.clean.as_bytes();
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(offset) = file.clean[from..].find("mod ") {
        let at = from + offset;
        from = at + 4;
        if at > 0 && (bytes[at - 1].is_ascii_alphanumeric() || bytes[at - 1] == b'_') {
            continue;
        }
        let rest = file.clean[from..].trim_start();
        let name_len = rest
            .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
            .unwrap_or(rest.len());
        if name_len > 0 && rest[name_len..].trim_start().starts_with(';') {
            let under_cfg_test = !file.clean_no_tests[at..].starts_with("mod ");
            out.push((rest[..name_len].to_string(), under_cfg_test));
        }
    }
    out
}

/// Where the file of module `name`, declared in `parent`, may live.
fn module_files(parent: &Path, name: &str) -> Vec<PathBuf> {
    let (Some(stem), Some(dir)) = (parent.file_stem(), parent.parent()) else {
        return Vec::new();
    };
    let dir = if matches!(stem.to_str(), Some("lib" | "main" | "mod")) {
        dir.to_path_buf()
    } else {
        dir.join(stem)
    };
    vec![
        dir.join(format!("{name}.rs")),
        dir.join(name).join("mod.rs"),
    ]
}

/// One function found by the conservative per-file index.
#[derive(Debug, Clone)]
pub struct FnInfo {
    /// Function name (no path; impl methods indexed by bare name).
    pub name: String,
    /// Byte range of the signature (from `fn` to the body `{`).
    pub sig: Range<usize>,
    /// Byte range of the body, `{` inclusive to `}` inclusive.
    pub body: Range<usize>,
}

/// Conservative function index over cleaned text: every `fn name(...) {...}`
/// with brace-matched body. Trait-method declarations (ending in `;`) are
/// skipped.
pub fn index_functions(clean: &str) -> Vec<FnInfo> {
    let bytes = clean.as_bytes();
    let mut fns = Vec::new();
    let mut i = 0usize;
    while let Some(offset) = clean[i..].find("fn ") {
        let at = i + offset;
        i = at + 3;
        // word boundary before `fn`
        if at > 0 {
            let prev = bytes[at - 1];
            if prev.is_ascii_alphanumeric() || prev == b'_' {
                continue;
            }
        }
        let mut j = at + 3;
        while j < bytes.len() && bytes[j].is_ascii_whitespace() {
            j += 1;
        }
        let name_start = j;
        while j < bytes.len() && (bytes[j].is_ascii_alphanumeric() || bytes[j] == b'_') {
            j += 1;
        }
        if j == name_start {
            continue;
        }
        let name = clean[name_start..j].to_string();
        // Find the body `{` or a declaration-ending `;`, skipping the
        // parameter parens and any generic/where clause in between.
        let mut depth_paren = 0usize;
        let mut depth_angle = 0isize;
        let mut body_open = None;
        let mut k = j;
        while k < bytes.len() {
            match bytes[k] {
                b'(' => depth_paren += 1,
                b')' => depth_paren = depth_paren.saturating_sub(1),
                b'<' => depth_angle += 1,
                b'>' => depth_angle -= 1,
                b'{' if depth_paren == 0 => {
                    body_open = Some(k);
                    break;
                }
                b';' if depth_paren == 0 && depth_angle <= 0 => break,
                _ => {}
            }
            k += 1;
        }
        let Some(open) = body_open else { continue };
        // Match braces to the body end.
        let mut depth = 0usize;
        let mut end = open;
        while end < bytes.len() {
            match bytes[end] {
                b'{' => depth += 1,
                b'}' => {
                    depth -= 1;
                    if depth == 0 {
                        end += 1;
                        break;
                    }
                }
                _ => {}
            }
            end += 1;
        }
        fns.push(FnInfo {
            name,
            sig: at..open,
            body: open..end,
        });
        // Continue scanning inside the body too (nested fns are rare but
        // cheap to index); the outer loop's `find` resumes after `fn `.
    }
    fns
}

/// Names called inside a body slice of cleaned text: identifiers directly
/// followed by `(`, including method names after `.`; keywords excluded.
pub fn calls_in(body: &str) -> HashSet<String> {
    const KEYWORDS: &[&str] = &[
        "if", "while", "for", "match", "loop", "return", "fn", "move", "unsafe", "else", "let",
        "in", "as", "impl", "dyn",
    ];
    let bytes = body.as_bytes();
    let mut out = HashSet::new();
    let mut i = 0usize;
    while i < bytes.len() {
        if bytes[i].is_ascii_alphabetic() || bytes[i] == b'_' {
            let start = i;
            while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                i += 1;
            }
            let ident = &body[start..i];
            let mut j = i;
            while j < bytes.len() && bytes[j].is_ascii_whitespace() {
                j += 1;
            }
            // `ident(` — macro invocations `name!(` are excluded for free
            // because the `!` sits where the `(` is required to be.
            if j < bytes.len() && bytes[j] == b'(' && !KEYWORDS.contains(&ident) {
                out.insert(ident.to_string());
            }
        } else {
            i += 1;
        }
    }
    out
}

/// An allowlist entry: `rule|path-suffix|line-substring|justification`.
#[derive(Debug, Clone)]
pub struct AllowEntry {
    /// Rule the entry silences.
    pub rule: String,
    /// Diagnostic path must end with this.
    pub path_suffix: String,
    /// Diagnostic line's raw text must contain this (`*` matches any).
    pub line_contains: String,
    /// Why the site is acceptable (required, shown in reports).
    pub justification: String,
}

/// Parses the allowlist format; `#` lines and blanks are skipped.
pub fn parse_allowlist(text: &str) -> Result<Vec<AllowEntry>, String> {
    let mut entries = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let parts: Vec<&str> = line.splitn(4, '|').collect();
        if parts.len() != 4 || parts[3].trim().is_empty() {
            return Err(format!(
                "allowlist line {}: expected `rule|path-suffix|line-substring|justification`",
                idx + 1
            ));
        }
        entries.push(AllowEntry {
            rule: parts[0].trim().to_string(),
            path_suffix: parts[1].trim().to_string(),
            line_contains: parts[2].trim().to_string(),
            justification: parts[3].trim().to_string(),
        });
    }
    Ok(entries)
}

/// Result of a whole-workspace run.
pub struct LintOutcome {
    /// Findings not covered by the allowlist.
    pub diagnostics: Vec<Diagnostic>,
    /// Allowlist entries that matched nothing (stale — also a failure).
    pub unused_allowlist: Vec<AllowEntry>,
    /// Findings silenced by the allowlist (reported for transparency).
    pub allowed: Vec<(Diagnostic, String)>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

impl LintOutcome {
    /// `true` when the pass should exit 0.
    pub fn clean(&self) -> bool {
        self.diagnostics.is_empty() && self.unused_allowlist.is_empty()
    }
}

/// Recursively collects files under `root`, skipping build output, VCS
/// internals and the lint's own fixture corpus.
fn walk(root: &Path, ext: &str, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(root) else {
        return;
    };
    let mut entries: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if matches!(name, "target" | ".git" | "fixtures") {
                continue;
            }
            walk(&path, ext, out);
        } else if name.ends_with(ext) {
            out.push(path);
        }
    }
}

/// Runs every rule over the workspace at `root` with the checked-in
/// allowlist, returning the full outcome.
pub fn run(root: &Path) -> Result<LintOutcome, String> {
    let mut rs_paths = Vec::new();
    walk(root, ".rs", &mut rs_paths);
    let mut files = Vec::new();
    for path in &rs_paths {
        let raw =
            std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let rel = path.strip_prefix(root).unwrap_or(path).to_path_buf();
        files.push(SourceFile::new(rel, raw));
    }
    blank_test_modules(&mut files);

    let mut manifest_paths = Vec::new();
    walk(root, "Cargo.toml", &mut manifest_paths);
    let mut manifests = Vec::new();
    for path in &manifest_paths {
        let raw =
            std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let rel = path.strip_prefix(root).unwrap_or(path).to_path_buf();
        manifests.push((rel, raw));
    }

    let root_manifest = std::fs::read_to_string(root.join("Cargo.toml"))
        .map_err(|e| format!("read workspace Cargo.toml: {e}"))?;
    let members = rules::package_names(&manifests);

    let mut diagnostics = Vec::new();
    diagnostics.extend(rules::il001_forbid_unsafe(&files, &root_manifest));
    diagnostics.extend(rules::il002_no_panics(&files));
    diagnostics.extend(rules::il003_os_cache_invalidation(&files));
    diagnostics.extend(rules::il004_lock_order(&files));
    diagnostics.extend(rules::il005_no_process_exit(&files));
    diagnostics.extend(rules::il006_manifest_hygiene(&manifests, &members));
    diagnostics.extend(rules::il007_no_hot_path_allocation(&files));
    diagnostics.extend(rules::il008_one_description_per_rule(&files));
    diagnostics.sort_by(|a, b| (a.rule, &a.path, a.line).cmp(&(b.rule, &b.path, b.line)));

    let allowlist_text =
        std::fs::read_to_string(root.join("crates/verify-lint/allowlist.txt")).unwrap_or_default();
    let allowlist = parse_allowlist(&allowlist_text)?;

    let by_path: HashMap<&Path, &SourceFile> =
        files.iter().map(|f| (f.path.as_path(), f)).collect();
    let mut used = vec![false; allowlist.len()];
    let mut kept = Vec::new();
    let mut allowed = Vec::new();
    for diag in diagnostics {
        let line_text = by_path
            .get(diag.path.as_path())
            .map(|f| f.line_text(diag.line))
            .unwrap_or("");
        let hit = allowlist.iter().enumerate().find(|(_, entry)| {
            entry.rule == diag.rule
                && diag.path.to_string_lossy().ends_with(&entry.path_suffix)
                && (entry.line_contains == "*" || line_text.contains(&entry.line_contains))
        });
        match hit {
            Some((idx, entry)) => {
                used[idx] = true;
                allowed.push((diag, entry.justification.clone()));
            }
            None => kept.push(diag),
        }
    }
    let unused_allowlist = allowlist
        .into_iter()
        .zip(used)
        .filter(|(_, u)| !*u)
        .map(|(e, _)| e)
        .collect();

    Ok(LintOutcome {
        diagnostics: kept,
        unused_allowlist,
        allowed,
        files_scanned: files.len(),
    })
}

/// Stable, ordered map used in rule implementations (keeps reports sorted).
pub type OrderedSet = BTreeMap<String, ()>;
