//! Proves every lint rule fires: each fixture under `fixtures/` is an
//! intentionally-bad snippet, loaded here under a synthetic repo-like path
//! and fed to the rule it targets. The camouflaged negatives in the same
//! fixtures (comments, strings, `#[cfg(test)]` items, correctly-ordered
//! code) must stay silent. A final test runs the whole pass over the real
//! workspace and requires a clean exit.

use inferray_verify_lint::{rules, SourceFile};
use std::path::{Path, PathBuf};

fn fixture(name: &str, synthetic_path: &str) -> SourceFile {
    let on_disk = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name);
    let raw = std::fs::read_to_string(&on_disk)
        .unwrap_or_else(|e| panic!("reading fixture {}: {e}", on_disk.display()));
    SourceFile::new(PathBuf::from(synthetic_path), raw)
}

#[test]
fn il001_fires_on_missing_forbid() {
    let files = vec![fixture(
        "il001_missing_forbid.rs",
        "crates/example/src/lib.rs",
    )];
    let manifest = "[workspace]\nmembers = [\"crates/example\"]\n";
    let diags = rules::il001_forbid_unsafe(&files, manifest);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].rule, "IL001");

    // The same file under a non-root path is not a crate root: silent.
    let not_root = vec![fixture(
        "il001_missing_forbid.rs",
        "crates/example/src/util.rs",
    )];
    assert!(rules::il001_forbid_unsafe(&not_root, manifest).is_empty());
}

#[test]
fn il002_fires_on_hot_path_panics_only() {
    let files = vec![fixture("il002_hot_panics.rs", "crates/persist/src/bad.rs")];
    let diags = rules::il002_no_panics(&files);
    assert_eq!(diags.len(), 4, "{diags:?}");
    assert!(diags.iter().all(|d| d.rule == "IL002"));
    // The four findings are all in the first function (lines 6..=15); the
    // comment, string, `unwrap_or` and cfg(test) sites must not appear.
    assert!(
        diags.iter().all(|d| (6..=15).contains(&d.line)),
        "{diags:?}"
    );
}

#[test]
fn il002_is_silent_off_the_hot_paths() {
    let files = vec![fixture("il002_hot_panics.rs", "crates/model/src/fine.rs")];
    assert!(rules::il002_no_panics(&files).is_empty());
}

#[test]
fn il002_covers_the_shape_validator() {
    // The shape validator runs under the serving write lock, so it is on
    // the hot list; its sibling modules (parse/check/compile run only at
    // install time) are not.
    let hot = vec![fixture(
        "il002_hot_panics.rs",
        "crates/rules/src/shapes/validate.rs",
    )];
    let diags = rules::il002_no_panics(&hot);
    assert_eq!(diags.len(), 4, "{diags:?}");
    assert!(diags.iter().all(|d| d.rule == "IL002"));

    let cold = vec![fixture(
        "il002_hot_panics.rs",
        "crates/rules/src/shapes/compile.rs",
    )];
    assert!(rules::il002_no_panics(&cold).is_empty());
}

#[test]
fn il002_covers_the_term_lexer_and_the_sparql_parser() {
    // Every `/sparql` query and `POST /update` body is lexed on a worker
    // thread: the shared term lexer and the SPARQL parser are hot; the
    // statement-level modules around them (ingest, the legacy wrappers) run
    // at load time only and are not.
    for hot in ["crates/parser/src/lex.rs", "crates/query/src/sparql.rs"] {
        let diags = rules::il002_no_panics(&[fixture("il002_hot_panics.rs", hot)]);
        assert_eq!(diags.len(), 4, "{hot}: {diags:?}");
        assert!(diags.iter().all(|d| d.rule == "IL002"));
    }
    for cold in [
        "crates/parser/src/ingest.rs",
        "crates/rules/src/analysis/cost.rs",
    ] {
        let files = [fixture("il002_hot_panics.rs", cold)];
        assert!(rules::il002_no_panics(&files).is_empty(), "{cold}");
    }
}

#[test]
fn il002_follows_the_request_path_into_the_query_engine() {
    // What a `/sparql` worker runs on the parsed query is hot: the engine,
    // the planner and the cardinality model, the executor and the batch.
    for hot in [
        "crates/query/src/engine.rs",
        "crates/query/src/planner.rs",
        "crates/store/src/estimate.rs",
        "crates/query/src/executor.rs",
        "crates/query/src/solution.rs",
    ] {
        let diags = rules::il002_no_panics(&[fixture("il002_hot_panics.rs", hot)]);
        assert_eq!(diags.len(), 4, "{hot}: {diags:?}");
        assert!(diags.iter().all(|d| d.rule == "IL002"));
    }
}

#[test]
fn il003_fires_on_mutation_without_invalidation() {
    let files = vec![fixture(
        "il003_property_table.rs",
        "crates/store/src/property_table.rs",
    )];
    let diags = rules::il003_os_cache_invalidation(&files);
    assert_eq!(diags.len(), 2, "{diags:?}");
    let flagged: Vec<&str> = diags
        .iter()
        .map(|d| {
            if d.message.contains("bad_push") {
                "bad_push"
            } else if d.message.contains("bad_replace") {
                "bad_replace"
            } else {
                "unexpected"
            }
        })
        .collect();
    assert!(flagged.contains(&"bad_push"), "{diags:?}");
    assert!(flagged.contains(&"bad_replace"), "{diags:?}");
}

#[test]
fn il003_walks_the_call_graph_across_files() {
    let table = || {
        fixture(
            "il003_cross_file_table.rs",
            "crates/store/src/property_table.rs",
        )
    };
    let helper = fixture(
        "il003_cross_file_helper.rs",
        "crates/store/src/table_helpers.rs",
    );

    // With only the table file visible both mutators look bad — exactly
    // where the old same-file walk stopped.
    let blinkered = rules::il003_os_cache_invalidation(&[table()]);
    assert_eq!(blinkered.len(), 2, "{blinkered:?}");

    // With the helper file in the walk, the cross-file invalidation path of
    // `good_cross` resolves and only the genuinely forgetful path remains.
    let diags = rules::il003_os_cache_invalidation(&[table(), helper]);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].rule, "IL003");
    assert!(diags[0].message.contains("bad_cross"), "{diags:?}");
}

#[test]
fn il003_fires_on_pairs_mut_outside_store() {
    let files = vec![fixture(
        "il003_pairs_mut_outside.rs",
        "crates/query/src/bad.rs",
    )];
    let diags = rules::il003_os_cache_invalidation(&files);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert!(diags[0].message.contains("pairs_mut"));

    // The same call inside the store crate is the legitimate home: silent.
    let inside = vec![fixture(
        "il003_pairs_mut_outside.rs",
        "crates/store/src/helper.rs",
    )];
    assert!(rules::il003_os_cache_invalidation(&inside).is_empty());
}

#[test]
fn il004_fires_on_direct_and_transitive_inversions() {
    let files = vec![fixture(
        "il004_lock_inversion.rs",
        "crates/persist/src/durable.rs",
    )];
    let diags = rules::il004_lock_order(&files);
    assert_eq!(diags.len(), 2, "{diags:?}");
    assert!(diags.iter().all(|d| d.rule == "IL004"));
    assert!(
        diags.iter().any(|d| d.message.contains("acquires")),
        "direct inversion missing: {diags:?}"
    );
    assert!(
        diags
            .iter()
            .any(|d| d.message.contains("helper_taking_state")),
        "transitive inversion missing: {diags:?}"
    );
}

#[test]
fn il005_fires_outside_bin_paths_only() {
    let lib = vec![fixture("il005_process_exit.rs", "crates/query/src/bad.rs")];
    let diags = rules::il005_no_process_exit(&lib);
    assert_eq!(diags.len(), 2, "{diags:?}");
    assert!(diags.iter().all(|d| d.rule == "IL005"));

    let bin = vec![fixture("il005_process_exit.rs", "src/bin/tool.rs")];
    assert!(rules::il005_no_process_exit(&bin).is_empty());
}

#[test]
fn il006_fires_on_manifest_drift() {
    let manifest_text = {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("fixtures")
            .join("il006_bad_manifest.toml");
        std::fs::read_to_string(path).unwrap()
    };
    let manifests = vec![(PathBuf::from("crates/bad/Cargo.toml"), manifest_text)];
    let members = ["inferray-store", "inferray-model", "inferray-bad"]
        .into_iter()
        .map(String::from)
        .collect();
    let diags = rules::il006_manifest_hygiene(&manifests, &members);
    // pinned version + pinned edition + path dependency = 3 findings; the
    // `.workspace = true` dependency stays silent.
    assert_eq!(diags.len(), 3, "{diags:?}");
    assert!(diags.iter().all(|d| d.rule == "IL006"));
    assert!(
        diags.iter().any(|d| d.message.contains("inferray-store")),
        "{diags:?}"
    );

    // A nested package that is its own workspace root cannot inherit from
    // this one (the `benchmark/` package): the same text is then silent.
    let (_, text) = &manifests[0];
    let outside = vec![(
        PathBuf::from("benchmark/Cargo.toml"),
        format!("{text}\n[workspace]\n"),
    )];
    assert!(rules::il006_manifest_hygiene(&outside, &members).is_empty());
}

#[test]
fn il007_fires_on_hot_function_allocation_only() {
    let files = vec![fixture("il007_hot_alloc.rs", "crates/query/src/server.rs")];
    let diags = rules::il007_no_hot_path_allocation(&files);
    assert_eq!(diags.len(), 4, "{diags:?}");
    assert!(diags.iter().all(|d| d.rule == "IL007"));
    for (hot_fn, constructor) in [
        ("serve_request", "`format!`"),
        ("respond", "`String::new`"),
        ("error_json_into", "`Vec::new`"),
        ("cell_json_into", "`format!`"),
    ] {
        assert!(
            diags
                .iter()
                .any(|d| d.message.contains(hot_fn) && d.message.contains(constructor)),
            "missing {constructor} in {hot_fn}: {diags:?}"
        );
    }
}

#[test]
fn il007_is_silent_outside_server_rs() {
    let files = vec![fixture("il007_hot_alloc.rs", "crates/query/src/planner.rs")];
    assert!(rules::il007_no_hot_path_allocation(&files).is_empty());
}

#[test]
fn il007_covers_status_json_into() {
    let files = vec![fixture(
        "il007_status_alloc.rs",
        "crates/query/src/server.rs",
    )];
    let diags = rules::il007_no_hot_path_allocation(&files);
    // Exactly the one allocation in `status_json_into`; the cold
    // reporter helpers and camouflaged sites stay silent.
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert!(
        diags[0].message.contains("status_json_into") && diags[0].message.contains("`format!`"),
        "{diags:?}"
    );
}

#[test]
fn il007_covers_the_status_renderers_outside_server_rs() {
    for home in [
        "src/lib.rs",
        "crates/persist/src/durable.rs",
        "crates/core/src/api.rs",
        "crates/model/src/json.rs",
    ] {
        let files = vec![fixture("il007_status_renderer_alloc.rs", home)];
        let diags = rules::il007_no_hot_path_allocation(&files);
        assert_eq!(diags.len(), 2, "{home}: {diags:?}");
        for (renderer, constructor) in [
            ("`json_into`", "`format!`"),
            ("`status_json_into`", "`String::new`"),
        ] {
            assert!(
                diags.iter().any(|d| d.message.contains("status renderer")
                    && d.message.contains(renderer)
                    && d.message.contains(constructor)),
                "{home}: missing {constructor} in {renderer}: {diags:?}"
            );
        }
    }
    // The same names are not hot in a file `GET /status` never reaches.
    let files = vec![fixture(
        "il007_status_renderer_alloc.rs",
        "crates/rules/src/shapes/validate.rs",
    )];
    assert!(rules::il007_no_hot_path_allocation(&files).is_empty());
}

#[test]
fn il007_fires_on_per_row_allocation_in_the_executor_kernels() {
    let files = vec![fixture(
        "il007_executor_alloc.rs",
        "crates/query/src/executor.rs",
    )];
    let diags = rules::il007_no_hot_path_allocation(&files);
    assert_eq!(diags.len(), 4, "{diags:?}");
    assert!(diags.iter().all(|d| d.rule == "IL007"));
    for (kernel, constructor) in [
        ("scan_table", "`Vec::new`"),
        ("emit_run", "`.clone()`"),
        ("offer", "`.collect`"),
        ("sort_dedup", "`format!`"),
    ] {
        assert!(
            diags.iter().any(|d| d.message.contains("executor kernel")
                && d.message.contains(kernel)
                && d.message.contains(constructor)),
            "missing {constructor} in {kernel}: {diags:?}"
        );
    }
}

#[test]
fn il007_kernel_names_are_hot_only_in_the_executor() {
    // The same text under the server's path: none of these functions is on
    // the serving list, and the serving list bans fewer constructors.
    let files = vec![fixture(
        "il007_executor_alloc.rs",
        "crates/query/src/server.rs",
    )];
    assert!(rules::il007_no_hot_path_allocation(&files).is_empty());
}

#[test]
fn il007_covers_the_batch_accessors() {
    let source = "fn rows(data: &[u64]) -> Vec<Vec<u64>> {\n    \
                  data.chunks(2).map(|row| row.to_vec()).collect()\n}\n\
                  fn sorted_rows(data: &[u64]) -> Vec<u64> {\n    data.to_vec()\n}\n";
    let files = vec![SourceFile::new(
        PathBuf::from("crates/query/src/solution.rs"),
        source.to_string(),
    )];
    let diags = rules::il007_no_hot_path_allocation(&files);
    // `.to_vec()` and `.collect` in `rows`; the convenience method is cold.
    assert_eq!(diags.len(), 2, "{diags:?}");
    assert!(diags
        .iter()
        .all(|d| d.message.contains("batch accessor `rows`")));
}

#[test]
fn il007_covers_the_dictionary_hit_path() {
    for home in [
        "crates/dictionary/src/dictionary.rs",
        "crates/dictionary/src/arena.rs",
    ] {
        let files = vec![fixture("il007_dictionary_alloc.rs", home)];
        let diags = rules::il007_no_hot_path_allocation(&files);
        assert_eq!(diags.len(), 3, "{home}: {diags:?}");
        for (hot_fn, copy) in [
            ("`text`", "`.to_string()`"),
            ("`find`", "`.to_owned()`"),
            ("`id_of_text`", "`.clone()`"),
        ] {
            assert!(
                diags
                    .iter()
                    .any(|d| d.message.contains("dictionary hit-path function")
                        && d.message.contains(hot_fn)
                        && d.message.contains(copy)),
                "{home}: missing {copy} in {hot_fn}: {diags:?}"
            );
        }
    }
    // The same names are not hot in the dictionary's other modules.
    let files = vec![fixture(
        "il007_dictionary_alloc.rs",
        "crates/dictionary/src/stats.rs",
    )];
    assert!(rules::il007_no_hot_path_allocation(&files).is_empty());
}

#[test]
fn il007_covers_the_rule_emission_loops() {
    for home in [
        "crates/rules/src/executors/join.rs",
        "crates/rules/src/executors/gamma.rs",
        "crates/rules/src/executors/theta.rs",
        "crates/rules/src/executors/substitution.rs",
        "crates/rules/src/executors/self_join.rs",
    ] {
        let files = vec![fixture("il007_rule_emit.rs", home)];
        let diags = rules::il007_no_hot_path_allocation(&files);
        assert_eq!(diags.len(), 2, "{home}: {diags:?}");
        for emitter in ["`merge_join_pass`", "`scan_pass`"] {
            assert!(
                diags.iter().any(|d| d.rule == "IL007"
                    && d.message.contains("rule emission loop")
                    && d.message.contains(emitter)
                    && d.message.contains("`.add`")),
                "{home}: missing {emitter}: {diags:?}"
            );
        }
    }
    // A file outside the list may keep `add`.
    let files = vec![fixture(
        "il007_rule_emit.rs",
        "crates/rules/src/executors/mod.rs",
    )];
    assert!(rules::il007_no_hot_path_allocation(&files).is_empty());
}

#[test]
fn il007_covers_the_batch_writer_loop() {
    let files = vec![fixture(
        "il007_writer_alloc.rs",
        "crates/parser/src/writer.rs",
    )];
    let diags = rules::il007_no_hot_path_allocation(&files);
    assert_eq!(diags.len(), 2, "{diags:?}");
    for copy in ["`format!`", "`.to_string()`"] {
        assert!(
            diags.iter().any(|d| d.message.contains("writer loop")
                && d.message.contains("`write_store_ntriples`")
                && d.message.contains(copy)),
            "missing {copy}: {diags:?}"
        );
    }
    // The loader next door formats error messages freely.
    let files = vec![fixture(
        "il007_writer_alloc.rs",
        "crates/parser/src/loader.rs",
    )];
    assert!(rules::il007_no_hot_path_allocation(&files).is_empty());
}

#[test]
fn il008_fires_on_rule_info_literals_outside_the_catalog() {
    let files = vec![fixture(
        "il008_rule_info_literal.rs",
        "crates/core/src/bad.rs",
    )];
    let diags = rules::il008_one_description_per_rule(&files);
    // One literal in `rogue_row`; the comment, string, type positions,
    // `RuleInfo::` path and cfg(test) construction all stay silent.
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].rule, "IL008");
    assert_eq!(diags[0].line, 9, "{diags:?}");
}

#[test]
fn il008_is_silent_in_the_catalog_and_the_analyzer() {
    for home in [
        "crates/rules/src/catalog.rs",
        "crates/rules/src/analysis/compile.rs",
    ] {
        let files = vec![fixture("il008_rule_info_literal.rs", home)];
        assert!(
            rules::il008_one_description_per_rule(&files).is_empty(),
            "{home}"
        );
    }
}

#[test]
fn il008_fires_on_rule_id_dispatch_outside_the_catalog() {
    for home in [
        "crates/rules/src/support.rs",
        "crates/rules/src/analysis/exec.rs",
        "crates/core/src/reasoner.rs",
        "src/bin/inferray-cli.rs",
    ] {
        let files = vec![fixture("il008_rule_id_dispatch.rs", home)];
        let diags = rules::il008_one_description_per_rule(&files);
        // One dispatch in `probe`; `RuleId::ALL`, the comment, the string,
        // the type and the cfg(test) use all stay silent.
        assert_eq!(diags.len(), 1, "{home}: {diags:?}");
        assert_eq!(diags[0].rule, "IL008");
        assert_eq!(diags[0].line, 9, "{home}: {diags:?}");
        assert!(diags[0].message.contains("`RuleId::PrpFp`"), "{diags:?}");
    }
}

#[test]
fn il008_lets_the_catalog_and_other_crates_name_rule_ids() {
    for home in [
        "crates/rules/src/catalog.rs",
        "crates/baselines/src/datalog.rs",
        "crates/rules/tests/analysis_builtins.rs",
    ] {
        let files = vec![fixture("il008_rule_id_dispatch.rs", home)];
        assert!(
            rules::il008_one_description_per_rule(&files).is_empty(),
            "{home}"
        );
    }
}

#[test]
fn every_file_of_the_server_module_is_hot() {
    for home in [
        "crates/query/src/server/mod.rs",
        "crates/query/src/server/http.rs",
        "crates/query/src/server/routes.rs",
        "crates/query/src/server/render.rs",
    ] {
        let files = vec![fixture("il007_hot_alloc.rs", home)];
        let diags = rules::il007_no_hot_path_allocation(&files);
        assert_eq!(diags.len(), 4, "{home}: {diags:?}");
        let files = vec![fixture("il002_hot_panics.rs", home)];
        assert_eq!(rules::il002_no_panics(&files).len(), 4, "{home}");
    }
}

#[test]
fn files_only_a_cfg_test_module_declares_are_test_code() {
    let file = |path: &str, text: &str| SourceFile::new(PathBuf::from(path), text.to_string());
    let mut files = vec![
        file(
            "crates/query/src/server/http.rs",
            "mod wire;\n#[cfg(test)]\nmod fuzz;\n",
        ),
        file(
            "crates/query/src/server/http/wire.rs",
            "fn a() { x.unwrap(); }\n",
        ),
        file(
            "crates/query/src/server/http/fuzz.rs",
            "mod seeds;\nfn b() { x.unwrap(); }\n",
        ),
        file(
            "crates/query/src/server/http/fuzz/seeds.rs",
            "fn c() { x.unwrap(); }\n",
        ),
    ];
    inferray_verify_lint::blank_test_modules(&mut files);
    let flagged: Vec<_> = rules::il002_no_panics(&files)
        .into_iter()
        .map(|d| d.path)
        .collect();
    assert_eq!(
        flagged,
        [PathBuf::from("crates/query/src/server/http/wire.rs")]
    );
}

/// The whole pass over the real workspace: zero unallowlisted findings and
/// zero stale allowlist entries — the same bar `cargo run -p
/// inferray-verify-lint` enforces in CI.
#[test]
fn workspace_is_lint_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let outcome = inferray_verify_lint::run(&root).expect("lint pass runs");
    assert!(
        outcome.clean(),
        "diagnostics: {:#?}\nstale allowlist: {:?}",
        outcome.diagnostics,
        outcome
            .unused_allowlist
            .iter()
            .map(|e| format!("{}|{}|{}", e.rule, e.path_suffix, e.line_contains))
            .collect::<Vec<_>>()
    );
    assert!(outcome.files_scanned > 50, "suspiciously few files scanned");
}
