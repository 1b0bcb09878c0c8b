//! `inferray-cli`'s batch mode, driven as a process: the default output is
//! the closure, `--inferred-only` is the closure minus the input, and both
//! are what the committed golden files (written by the commit before the
//! arena dictionary) hold. The summary on stderr is followed by the run's
//! stage line.

#[path = "common/stage_law.rs"]
mod stage_law;

use inferray::Stage;
use std::collections::BTreeSet;
use std::process::Command;
use std::time::Instant;

const FIXTURE: &str = "tests/fixtures/every_term_shape.nt";

/// Runs the CLI on the fixture under `rdfs-plus` and returns its stdout
/// lines, sorted.
fn cli_lines(extra: &[&str]) -> Vec<String> {
    let output = Command::new(env!("CARGO_BIN_EXE_inferray-cli"))
        .args(["--fragment", "rdfs-plus"])
        .args(extra)
        .arg(FIXTURE)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("inferray-cli runs");
    assert!(output.status.success(), "{output:?}");
    let mut lines: Vec<String> = String::from_utf8(output.stdout)
        .expect("N-Triples output is UTF-8")
        .lines()
        .map(str::to_owned)
        .collect();
    lines.sort();
    lines
}

#[test]
fn the_stage_line_follows_the_summary_within_the_run_s_wall_time() {
    for extra in [&[][..], &["--sequential"]] {
        let start = Instant::now();
        let output = Command::new(env!("CARGO_BIN_EXE_inferray-cli"))
            .args(["--fragment", "rdfs-plus"])
            .args(extra)
            .arg(FIXTURE)
            .current_dir(env!("CARGO_MANIFEST_DIR"))
            .output()
            .expect("inferray-cli runs");
        let wall = start.elapsed();
        assert!(output.status.success(), "{output:?}");
        let stderr = String::from_utf8(output.stderr).expect("UTF-8");
        let lines: Vec<&str> = stderr.lines().collect();
        assert!(lines[0].contains(" written, "), "{stderr}");
        let stages = stage_law::from_text(
            lines[1]
                .strip_prefix("inferray: stages: ")
                .unwrap_or_else(|| panic!("{stderr}")),
        );
        let recorded: Vec<Stage> = stages.iter().map(|(stage, _)| stage).collect();
        let batch = [
            Stage::Ingest,
            Stage::Closure,
            Stage::Stratum,
            Stage::Fire,
            Stage::Update,
            Stage::Write,
        ];
        assert_eq!(recorded, batch, "{stderr}");
        stage_law::assert_stage_law(&stages, wall);
    }
}

fn golden(name: &str) -> Vec<String> {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(path)
        .expect("golden file is committed")
        .lines()
        .map(str::to_owned)
        .collect()
}

#[test]
fn default_output_is_the_golden_closure() {
    assert_eq!(cli_lines(&[]), golden("every_term_shape.rdfs-plus.nt"));
}

#[test]
fn inferred_only_is_the_closure_minus_the_input() {
    let closure: BTreeSet<String> = cli_lines(&[]).into_iter().collect();
    let inferred = cli_lines(&["--inferred-only"]);
    assert_eq!(inferred, golden("every_term_shape.rdfs-plus.inferred.nt"));

    // The input, rendered canonically as the writer renders it.
    let input: BTreeSet<String> = inferray::load_ntriples(
        &std::fs::read_to_string(format!("{}/{FIXTURE}", env!("CARGO_MANIFEST_DIR"))).unwrap(),
    )
    .map(|loaded| {
        loaded
            .store
            .iter_triples()
            .map(|t| loaded.dictionary.decode_triple(t).unwrap().to_string())
            .collect()
    })
    .unwrap();
    assert!(input.is_subset(&closure));
    let expected: Vec<String> = closure.difference(&input).cloned().collect();
    assert_eq!(
        inferred, expected,
        "inferred-only = closure ∖ input, as a set"
    );

    // The fixture asserts a triple that is also derivable (herbie is a
    // Vehicle by cax-sco): it is input, so it is not "inferred".
    let derivable_input = "<http://example.org/herbie> \
        <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://example.org/Vehicle> .";
    assert!(closure.contains(derivable_input));
    assert!(!inferred.iter().any(|line| line == derivable_input));
    assert!(!inferred.is_empty());
}

#[test]
fn sequential_and_parallel_runs_print_the_same_bytes() {
    assert_eq!(cli_lines(&["--sequential"]), cli_lines(&[]));
    assert_eq!(
        cli_lines(&["--sequential", "--inferred-only"]),
        cli_lines(&["--inferred-only"])
    );
}

/// A scratch input file, removed on drop.
struct TempInput(std::path::PathBuf);

impl TempInput {
    fn new(name: &str, bytes: &[u8]) -> TempInput {
        let path = std::env::temp_dir().join(format!(
            "inferray-cli-batch-{}-{name}.nt",
            std::process::id()
        ));
        std::fs::write(&path, bytes).expect("the temp directory is writable");
        TempInput(path)
    }
}

impl Drop for TempInput {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Runs the CLI under `rdfs-plus` on `bytes`, handed over as a file (the
/// streamed source) or on stdin (read whole): exit status, stdout, stderr.
fn run_on(bytes: &[u8], file: Option<&TempInput>) -> (bool, Vec<u8>, String) {
    use std::io::Write;
    use std::process::Stdio;
    let mut command = Command::new(env!("CARGO_BIN_EXE_inferray-cli"));
    command
        .args(["--fragment", "rdfs-plus"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    if let Some(file) = file {
        command.arg(&file.0);
    }
    let mut child = command.spawn().expect("inferray-cli runs");
    let mut stdin = child.stdin.take().expect("stdin is piped");
    if file.is_none() {
        // The child may stop reading at the first error.
        let _ = stdin.write_all(bytes);
    }
    drop(stdin);
    let output = child.wait_with_output().expect("inferray-cli exits");
    let stderr = String::from_utf8_lossy(&output.stderr).into_owned();
    (output.status.success(), output.stdout, stderr)
}

/// The shapes a file can end in and the sizes it can have next to a block
/// (256 KiB) and a range (64 KiB at least): the streamed file prints what
/// the same bytes print from stdin, where the document is read whole.
#[test]
fn a_streamed_file_prints_what_its_text_prints() {
    let statement =
        "<http://ex/herbie> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://ex/Car> .";
    let schema =
        "<http://ex/Car> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <http://ex/Vehicle> .";
    let long_line = format!(
        "<http://ex/herbie> <http://ex/note> \"{}\" .",
        "53 ".repeat(100_000)
    );
    let many: String = (0..4000)
        .map(|i| {
            format!(
                "<http://ex/car{i}> <http://ex/next> <http://ex/car{}> .\n",
                i + 1
            )
        })
        .collect();
    let documents = [
        ("empty", String::new()),
        ("smaller-than-a-range", format!("{schema}\n{statement}\n")),
        ("no-trailing-newline", format!("{schema}\n{statement}")),
        ("crlf", format!("{schema}\r\n{statement}\r\n")),
        (
            "comment-tail",
            format!("{schema}\n{statement}\n# nothing after this"),
        ),
        (
            "line-longer-than-a-block",
            format!("{schema}\n{long_line}\n{statement}\n"),
        ),
        ("several-ranges", format!("{schema}\n{many}{statement}")),
    ];
    for (name, text) in &documents {
        let file = TempInput::new(name, text.as_bytes());
        let (ok, streamed, stderr) = run_on(text.as_bytes(), Some(&file));
        assert!(ok, "{name}: {stderr}");
        let (ok, whole, whole_stderr) = run_on(text.as_bytes(), None);
        assert!(ok, "{name}: {whole_stderr}");
        assert!(
            streamed == whole,
            "{name}: the file and stdin print different bytes"
        );
        let counts = |stderr: &str| stderr.split(',').take(3).collect::<Vec<_>>().join(",");
        assert_eq!(counts(&stderr), counts(&whole_stderr), "{name}");
    }
}

/// A file that is not UTF-8 is a parse error on its first offending line,
/// and a malformed line is reported where stdin reports it.
#[test]
fn errors_of_a_streamed_file_carry_their_line() {
    let statement = b"<http://ex/a> <http://ex/p> <http://ex/b> .\n";
    let mut latin1 = Vec::new();
    latin1.extend_from_slice(statement);
    latin1.extend_from_slice(statement);
    latin1.extend_from_slice(b"<http://ex/a> <http://ex/p> \"caf\xE9\" .\n");
    latin1.extend_from_slice(statement);
    let file = TempInput::new("latin1", &latin1);
    let (ok, stdout, stderr) = run_on(&latin1, Some(&file));
    assert!(!ok && stdout.is_empty());
    assert!(
        stderr.contains("parse error: line 3: invalid UTF-8"),
        "{stderr}"
    );

    let mut broken: Vec<u8> = statement.repeat(2000);
    broken.extend_from_slice(b"<http://ex/unclosed\n");
    broken.extend_from_slice(&statement.repeat(2000));
    let file = TempInput::new("broken", &broken);
    let (ok, _, streamed) = run_on(&broken, Some(&file));
    let (whole_ok, _, whole) = run_on(&broken, None);
    assert!(!ok && !whole_ok);
    assert!(
        streamed.contains("parse error: line 2001: unterminated IRI"),
        "{streamed}"
    );
    assert_eq!(streamed, whole);

    let (ok, _, stderr) = run_on(
        b"",
        Some(&TempInput(
            std::env::temp_dir().join("inferray-cli-batch-missing.nt"),
        )),
    );
    assert!(!ok);
    assert!(
        stderr.contains("cannot read") && stderr.contains("inferray-cli-batch-missing.nt"),
        "{stderr}"
    );
}

/// IRIs holding characters an `IRIREF` may not hold raw (space, `>`, `"`,
/// `{`, `|`, `^`, `` ` ``, `\`, a control, and `<`) come in escaped and go
/// out escaped: the CLI's output, read back by the CLI, gives the input's
/// store, and printing it again prints the same bytes.
#[test]
fn output_with_escaped_iris_reads_back_as_the_same_store() {
    let input = concat!(
        "<http://ex/a\\u0020b> <http://ex/p> <http://ex/c\\u003Ed> .\n",
        // The same text in the arena's spelling of the first subject, but
        // a backslash here: another IRI, right after the first one.
        "<http://ex/a\\u005Cu0020b> <http://ex/p> <http://ex/c\\u003Ed> .\n",
        "<http://ex/q\\u0022{x}|y^z`\\u005C> <http://ex/p> \"v\"^^<http://ex/t\\u0020y\\u0001pe> .\n",
        "<http://ex/\\u003Cwrapped\\u003E> <http://www.w3.org/2000/01/rdf-schema#subClassOf> ",
        "<http://ex/a\\u0020b> .\n",
        "<http://ex/plain> <http://ex/p> <http://ex/\\u00e9t\\u00E9> .\n",
    );
    let lines = |bytes: &[u8]| -> Vec<String> {
        let mut lines: Vec<String> = String::from_utf8(bytes.to_vec())
            .expect("N-Triples output is UTF-8")
            .lines()
            .map(str::to_owned)
            .collect();
        lines.sort();
        lines
    };
    let (ok, first, stderr) = run_on(input.as_bytes(), None);
    assert!(ok, "{stderr}");
    let file = TempInput::new("escaped-iris", input.as_bytes());
    let (ok, streamed, stderr) = run_on(input.as_bytes(), Some(&file));
    assert!(
        ok && streamed == first,
        "the file and stdin differ: {stderr}"
    );
    let (ok, second, stderr) = run_on(&first, None);
    assert!(ok, "the CLI cannot read its own output back: {stderr}");
    assert_eq!(lines(&second), lines(&first));

    let store = |text: &str| -> BTreeSet<inferray::model::Triple> {
        let loaded = inferray::load_ntriples(text).expect("the text parses");
        loaded
            .store
            .iter_triples()
            .map(|t| loaded.dictionary.decode_triple(t).unwrap())
            .collect()
    };
    let printed = String::from_utf8(first).expect("UTF-8");
    let (input_store, printed_store) = (store(input), store(&printed));
    assert!(input_store.is_subset(&printed_store));
    for subject in ["http://ex/a b", "http://ex/a\\u0020b"] {
        let triple = inferray::model::Triple::iris(subject, "http://ex/p", "http://ex/c>d");
        assert!(printed_store.contains(&triple), "{triple} in {printed}");
    }
    assert!(
        printed.contains("<http://ex/a\\u0020b> <http://ex/p> <http://ex/c\\u003Ed> ."),
        "{printed}"
    );
    // A plain IRI with non-ASCII characters is printed raw.
    assert!(printed.contains("<http://ex/été>"), "{printed}");
}
