//! Crash-safety and file-level behavior of the store: atomic
//! write-rename persistence, kill-between-write-and-rename recovery,
//! corrupt/truncated/empty/bad-version files, concurrent opens, and
//! LRU persistence across reloads.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};

use tamopt_soc::benchmarks;
use tamopt_store::{CostColumns, Store, StoreConfig, StoreError};
use tamopt_wrapper::TimeTable;

/// A unique scratch path per test; the guard removes the store, its
/// lock and its temp file on drop.
struct Scratch {
    path: PathBuf,
}

impl Scratch {
    fn new() -> Self {
        static COUNTER: AtomicU32 = AtomicU32::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!(
            "tamopt_store_test_{}_{n}.tamstore",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        Scratch { path }
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        for suffix in ["", ".lock", ".tmp"] {
            let mut name = self.path.as_os_str().to_owned();
            name.push(suffix);
            let _ = std::fs::remove_file(PathBuf::from(name));
        }
    }
}

fn sidecar(path: &Path, suffix: &str) -> PathBuf {
    let mut name = path.as_os_str().to_owned();
    name.push(suffix);
    PathBuf::from(name)
}

#[test]
fn save_and_reopen_roundtrips() {
    let scratch = Scratch::new();
    {
        let mut store = Store::open(&scratch.path, StoreConfig::default()).unwrap();
        assert!(store.is_empty());
        assert!(store.warnings().is_empty(), "fresh path: no warnings");
        store.record_incumbent(1, 16, 2, 500);
        store.record_columns(
            1,
            CostColumns::from_table(&TimeTable::new(&benchmarks::d695(), 16).unwrap()),
        );
        store.save().unwrap();
        assert!(!store.is_dirty());
    }
    let store = Store::open(&scratch.path, StoreConfig::default()).unwrap();
    assert!(store.warnings().is_empty(), "{:?}", store.warnings());
    let entry = store.peek(1).unwrap();
    assert_eq!(entry.incumbents.len(), 1);
    let columns = entry.columns.as_ref().unwrap();
    assert_eq!(
        columns.expand(16).unwrap(),
        TimeTable::new(&benchmarks::d695(), 16).unwrap(),
        "persisted columns expand bit-identically"
    );
}

#[test]
fn kill_between_write_and_rename_is_recoverable() {
    let scratch = Scratch::new();
    {
        let mut store = Store::open(&scratch.path, StoreConfig::default()).unwrap();
        store.record_incumbent(7, 8, 1, 123);
        store.save().unwrap();
    }
    // Simulate a crash after the temp file was written but before the
    // rename: a stale (even corrupt) `.tmp` sits next to a valid store.
    std::fs::write(sidecar(&scratch.path, ".tmp"), b"half-written garbage").unwrap();
    {
        let mut store = Store::open(&scratch.path, StoreConfig::default()).unwrap();
        assert!(store.warnings().is_empty(), "the main file is intact");
        assert_eq!(store.peek(7).unwrap().incumbents[0].time, 123);
        // The next save replaces the stale temp file and renames it in.
        store.record_incumbent(7, 8, 1, 100);
        store.save().unwrap();
    }
    assert!(
        !sidecar(&scratch.path, ".tmp").exists(),
        "save consumes the temp file via rename"
    );
    let store = Store::open(&scratch.path, StoreConfig::default()).unwrap();
    assert_eq!(store.peek(7).unwrap().incumbents[0].time, 100);
}

#[test]
fn empty_truncated_and_garbage_files_open_with_warnings() {
    // Empty file.
    let scratch = Scratch::new();
    std::fs::write(&scratch.path, b"").unwrap();
    let store = Store::open(&scratch.path, StoreConfig::default()).unwrap();
    assert!(store.is_empty());
    assert_eq!(store.warnings().len(), 1);
    drop(store);

    // Garbage file.
    std::fs::write(&scratch.path, b"this is not a tamstore file at all").unwrap();
    let store = Store::open(&scratch.path, StoreConfig::default()).unwrap();
    assert!(store.is_empty());
    assert_eq!(store.warnings().len(), 1);
    drop(store);

    // Truncated mid-record: the valid prefix survives.
    let mut full = Store::in_memory(StoreConfig::default());
    full.record_incumbent(1, 8, 1, 11);
    full.record_incumbent(2, 8, 1, 22);
    let bytes = full.to_bytes();
    std::fs::write(&scratch.path, &bytes[..bytes.len() - 3]).unwrap();
    let store = Store::open(&scratch.path, StoreConfig::default()).unwrap();
    assert_eq!(store.len(), 1);
    assert!(store.peek(1).is_some());
    assert_eq!(store.warnings().len(), 1);
    drop(store);

    // Bad checksum: the flipped record and everything after it drop.
    let mut corrupt = bytes.clone();
    corrupt[16] ^= 0x01;
    std::fs::write(&scratch.path, &corrupt).unwrap();
    let store = Store::open(&scratch.path, StoreConfig::default()).unwrap();
    assert!(store.is_empty());
    assert_eq!(store.warnings().len(), 1);
}

#[test]
fn future_version_refuses_to_open() {
    let scratch = Scratch::new();
    let mut bytes = Vec::from(*b"tamstore");
    bytes.extend_from_slice(&(tamopt_store::version::CURRENT_VERSION + 7).to_le_bytes());
    std::fs::write(&scratch.path, &bytes).unwrap();
    match Store::open(&scratch.path, StoreConfig::default()) {
        Err(StoreError::FutureVersion { found, supported }) => {
            assert_eq!(found, tamopt_store::version::CURRENT_VERSION + 7);
            assert_eq!(supported, tamopt_store::version::CURRENT_VERSION);
        }
        other => panic!("expected FutureVersion, got {other:?}"),
    }
    // Crucially, the refusal must not have clobbered the file…
    assert_eq!(std::fs::read(&scratch.path).unwrap(), bytes);
    // …or leaked the lock.
    let _ = Store::open(&scratch.path, StoreConfig::default()).map(|_| ());
    assert!(
        !sidecar(&scratch.path, ".lock").exists(),
        "a failed open releases the lock"
    );
}

#[test]
fn concurrent_open_is_an_explicit_error() {
    let scratch = Scratch::new();
    let first = Store::open(&scratch.path, StoreConfig::default()).unwrap();
    match Store::open(&scratch.path, StoreConfig::default()) {
        Err(StoreError::Locked { path }) => {
            assert!(path.to_string_lossy().ends_with(".lock"));
        }
        other => panic!("expected Locked, got {other:?}"),
    }
    drop(first);
    // Dropping the first handle releases the lock.
    assert!(Store::open(&scratch.path, StoreConfig::default()).is_ok());
}

#[test]
fn break_lock_recovers_from_a_crashed_owner() {
    let scratch = Scratch::new();
    // Simulate a crash: a lock file with no live owner.
    std::fs::write(sidecar(&scratch.path, ".lock"), b"99999\n").unwrap();
    assert!(matches!(
        Store::open(&scratch.path, StoreConfig::default()),
        Err(StoreError::Locked { .. })
    ));
    assert!(tamopt_store::break_lock(&scratch.path).unwrap());
    assert!(Store::open(&scratch.path, StoreConfig::default()).is_ok());
    assert!(
        !tamopt_store::break_lock(&scratch.path).unwrap(),
        "no lock left"
    );
}

#[test]
fn corrupt_open_rewrites_clean_on_save() {
    let scratch = Scratch::new();
    std::fs::write(&scratch.path, b"garbage header").unwrap();
    {
        let mut store = Store::open(&scratch.path, StoreConfig::default()).unwrap();
        assert!(store.is_dirty(), "recovered-from-corruption owes a save");
        store.record_incumbent(5, 8, 1, 55);
        store.save().unwrap();
    }
    let store = Store::open(&scratch.path, StoreConfig::default()).unwrap();
    assert!(store.warnings().is_empty(), "the rewrite is clean");
    assert_eq!(store.peek(5).unwrap().incumbents[0].time, 55);
}

#[test]
fn eviction_cap_persists_across_reloads() {
    let scratch = Scratch::new();
    {
        let mut store = Store::open(
            &scratch.path,
            StoreConfig {
                max_entries: 3,
                ..StoreConfig::default()
            },
        )
        .unwrap();
        for fingerprint in 1..=5u64 {
            store.record_incumbent(fingerprint, 8, 1, fingerprint);
        }
        assert_eq!(store.len(), 3, "cap enforced while recording");
        store.save().unwrap();
    }
    let store = Store::open(
        &scratch.path,
        StoreConfig {
            max_entries: 3,
            ..StoreConfig::default()
        },
    )
    .unwrap();
    assert_eq!(store.len(), 3);
    for fingerprint in [3u64, 4, 5] {
        assert!(store.peek(fingerprint).is_some(), "newest three survive");
    }
}
