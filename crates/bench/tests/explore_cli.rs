//! End-to-end tests of the `axi4mlir-explore` binary: persistence
//! through `--cache-dir` (including migration of a legacy
//! `BENCH_cache.json`), and argument validation that must fail cleanly
//! with exit code 1 instead of panicking.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A fresh scratch directory for one test.
fn scratch(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("axi4mlir-explore-cli-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs the explorer with `args`, writing its report under `dir`.
fn explore(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_axi4mlir-explore"))
        .args(args)
        .arg("--json")
        .arg(dir.join("out"))
        .output()
        .expect("run axi4mlir-explore")
}

fn stdout(output: &Output) -> String {
    String::from_utf8_lossy(&output.stdout).into_owned()
}

fn stderr(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).into_owned()
}

/// The `*.json` file names in `dir`, sorted.
fn json_files(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(Result::ok)
        .map(|entry| entry.file_name().to_string_lossy().into_owned())
        .filter(|name| name.ends_with(".json"))
        .collect();
    names.sort();
    names
}

/// Asserts the run failed with exit code 1 and an error naming `needle`.
fn assert_rejected(output: &Output, needle: &str) {
    assert_eq!(output.status.code(), Some(1), "stderr: {}", stderr(output));
    assert!(stderr(output).contains(needle), "error should name {needle}: {}", stderr(output));
    assert!(!stderr(output).contains("panicked"), "{}", stderr(output));
}

#[test]
fn a_repeated_smoke_sweep_is_served_from_the_cache_dir() {
    let dir = scratch("repeat");
    let cache = dir.join("cache");
    let cache = cache.to_str().unwrap();

    let first = explore(&dir, &["--smoke", "--cache-dir", cache]);
    assert!(first.status.success(), "{}", stderr(&first));
    assert!(!stdout(&first).contains(" 0 new simulations"), "{}", stdout(&first));
    assert!(!json_files(Path::new(cache)).is_empty(), "the sweep persisted shard files");

    let second = explore(&dir, &["--smoke", "--cache-dir", cache]);
    assert!(second.status.success(), "{}", stderr(&second));
    assert!(stdout(&second).contains(" 0 new simulations"), "{}", stdout(&second));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_legacy_cache_file_in_the_cache_dir_migrates_into_shards() {
    let dir = scratch("legacy");
    let donor = dir.join("donor");
    let first = explore(&dir, &["--smoke", "--cache-dir", donor.to_str().unwrap()]);
    assert!(first.status.success(), "{}", stderr(&first));
    // The smoke sweep measures one workload: one shard file, which has
    // the single-file cache layout. Renamed, it is a legacy cache.
    let shards = json_files(&donor);
    assert_eq!(shards.len(), 1, "{shards:?}");
    let cache = dir.join("cache");
    std::fs::create_dir_all(&cache).unwrap();
    std::fs::copy(donor.join(&shards[0]), cache.join("BENCH_cache.json")).unwrap();

    let migrated = explore(&dir, &["--smoke", "--cache-dir", cache.to_str().unwrap()]);
    assert!(migrated.status.success(), "{}", stderr(&migrated));
    assert!(stdout(&migrated).contains(" 0 new simulations"), "{}", stdout(&migrated));
    assert_eq!(json_files(&cache), shards, "the legacy file became the shard file and is gone");
    assert_eq!(
        std::fs::read_to_string(cache.join(&shards[0])).unwrap(),
        std::fs::read_to_string(donor.join(&shards[0])).unwrap(),
        "migration is lossless"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn the_single_file_cache_flag_is_an_unknown_flag() {
    let dir = scratch("cache-flag");
    let cache = dir.join("BENCH_cache.json");
    let output = explore(&dir, &["--smoke", "--cache", cache.to_str().unwrap()]);
    assert_rejected(&output, "unknown flag `--cache`");
    assert!(!cache.exists());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn warm_start_needs_a_cache_dir() {
    let dir = scratch("warm-start");
    assert_rejected(&explore(&dir, &["--smoke", "--warm-start"]), "--cache-dir");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_zero_batch_is_rejected_by_job_validation() {
    let dir = scratch("batch");
    let output = explore(&dir, &["--workload", "batched", "--batch", "0"]);
    assert_rejected(&output, "batch must be positive");
    assert!(!dir.join("out").exists(), "nothing was swept");
    std::fs::remove_dir_all(&dir).ok();
}
