//! `inferray-cli recover` is a dry run: it reports what `serve` would
//! recover to and writes nothing. A data directory a killed server left —
//! a torn tail on its newest log segment, a stale temp file of an image it
//! was writing — keeps every file and every byte, and the report still
//! counts the torn bytes recovery would cut. Its stage line keeps the stage
//! law within the process's wall time. A directory whose only image is of
//! the retired format 1 is refused, the refusal names that image and why,
//! and again no byte changes.

#[path = "common/stage_law.rs"]
mod stage_law;

use inferray::persist::snapshot::{snapshot_file_name, MAGIC};
use inferray::persist::{segment_file_name, CheckpointPolicy, DurableDataset, StdFs};
use inferray::{Fragment, InferrayOptions};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Arc;
use std::time::Instant;

/// Every file in `dir`, by name, with its bytes.
fn files(dir: &Path) -> BTreeMap<PathBuf, Vec<u8>> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| {
            let path = entry.unwrap().path();
            let bytes = std::fs::read(&path).unwrap();
            (path, bytes)
        })
        .collect()
}

#[test]
fn recover_reports_a_torn_tail_and_a_stale_temp_file_and_changes_no_byte() {
    let dir = std::env::temp_dir().join(format!("inferray-cli-recover-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let document = "<http://ex/human> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <http://ex/mammal> .\n";
    let (durable, _) = DurableDataset::create(
        inferray::load_ntriples(document).unwrap(),
        Fragment::RdfsDefault,
        InferrayOptions::default(),
        &dir,
        Arc::new(StdFs),
        CheckpointPolicy::manual(),
    )
    .unwrap();
    for name in ["bart", "lisa"] {
        durable
            .extend_ntriples(&format!(
                "<http://ex/{name}> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://ex/human> .\n"
            ))
            .unwrap();
    }
    drop(durable);
    // What a process killed mid-append and mid-checkpoint leaves behind.
    let segment = dir.join(segment_file_name(1));
    let mut log = std::fs::read(&segment).unwrap();
    log.extend_from_slice(b"\x01torn!\x00");
    std::fs::write(&segment, &log).unwrap();
    std::fs::write(
        dir.join("snapshot-00000000000000000002.img.tmp"),
        vec![0u8; 512],
    )
    .unwrap();
    let before = files(&dir);

    let start = Instant::now();
    let output = Command::new(env!("CARGO_BIN_EXE_inferray-cli"))
        .args(["recover", "--fragment", "rdfs", "--data-dir"])
        .arg(&dir)
        .output()
        .unwrap();
    let wall = start.elapsed();
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{stdout}{}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(
        stdout.contains("wal: 2 records replayed, 0 skipped, 7 torn tail bytes"),
        "{stdout}"
    );
    assert!(stdout.contains("recovered: epoch 2 with"), "{stdout}");
    assert!(stdout.contains("stages: image "), "{stdout}");
    let line = stdout
        .lines()
        .last()
        .and_then(|line| line.strip_prefix("stages: "));
    stage_law::assert_stage_law(&stage_law::from_text(line.expect("a stage line")), wall);
    assert_eq!(files(&dir), before, "recover wrote to the directory");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn recover_refuses_a_format_1_image_names_it_and_changes_no_byte() {
    let dir = std::env::temp_dir().join(format!(
        "inferray-cli-recover-format-1-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let document = "<http://ex/human> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <http://ex/mammal> .\n";
    let (durable, _) = DurableDataset::create(
        inferray::load_ntriples(document).unwrap(),
        Fragment::RdfsDefault,
        InferrayOptions::default(),
        &dir,
        Arc::new(StdFs),
        CheckpointPolicy::manual(),
    )
    .unwrap();
    drop(durable);
    // The reader looks no further than the magic: the image under the
    // magic of a format-1 full image, `IFRY` then `SNP1`.
    let image = dir.join(snapshot_file_name(0));
    let mut bytes = std::fs::read(&image).unwrap();
    assert_eq!(&bytes[..8], MAGIC);
    bytes[4..8].copy_from_slice(b"SNP1");
    std::fs::write(&image, &bytes).unwrap();
    let before = files(&dir);

    let output = Command::new(env!("CARGO_BIN_EXE_inferray-cli"))
        .args(["recover", "--fragment", "rdfs", "--data-dir"])
        .arg(&dir)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(!output.status.success(), "{stderr}");
    assert!(stderr.contains(&snapshot_file_name(0)), "{stderr}");
    assert!(stderr.contains("bad magic"), "{stderr}");
    assert_eq!(files(&dir), before, "recover wrote to the directory");
    let _ = std::fs::remove_dir_all(&dir);
}
