//! Write-ahead request journal for crash-safe serving.
//!
//! ```text
//! file    := MAGIC (8 bytes, "tamjrnl\0") version:u32 record*
//! record  := payload_len:u32 payload checksum:u64
//! payload := 0:u8 id:u64 client? shard? line_len:u32 line (submit)
//!          | 1:u8 id:u64                                  (cancel)
//!          | 2:u8 id:u64                                  (sealed)
//! client  := 0:u8 | 1:u8 client:u64
//! shard   := 0:u8 | 1:u8 shard:u64
//! ```
//!
//! Same framing discipline as the store file ([`crate::format`]):
//! little-endian integers, FNV-1a checksums over each payload, and a
//! decoder that treats the bytes as untrusted — a torn final record
//! (the expected leftover of a `kill -9` mid-append) truncates to the
//! valid prefix with a warning, never a panic; only a version newer
//! than this build is a hard error.
//!
//! Unlike the store, the journal is **append-only**: every accepted
//! request is recorded *before* the daemon acts on it, every streamed
//! outcome seals its id, and recovery is the pure function
//! [`unsealed`] — the submits that were promised but never answered.
//! Durability is tunable per append through [`SyncPolicy`]; a clean
//! shutdown [`compact`](Journal::compact)s the file back to a bare
//! header since everything is sealed.

use std::io::{Seek, Write};
use std::path::{Path, PathBuf};
use std::str::FromStr;

use crate::format::{checksum, Reader};
use crate::{lock, StoreError};

/// The 8 magic bytes opening every journal file.
pub const JOURNAL_MAGIC: [u8; 8] = *b"tamjrnl\0";

/// The journal layout version this build writes.
pub const JOURNAL_VERSION: u32 = 1;

/// When appended records are fsynced to the device.
///
/// The wire spelling (`--sync` flag) is produced by
/// [`SyncPolicy::label`] and parsed by its [`FromStr`] implementation:
/// `always`, `interval` (every [`SyncPolicy::DEFAULT_INTERVAL`]
/// appends), `interval:N`, or `never`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum SyncPolicy {
    /// Fsync after every append — no accepted request is ever lost,
    /// at one device round-trip per request.
    #[default]
    Always,
    /// Fsync every `n` appends (and at explicit [`Journal::sync`]
    /// barriers); a crash can lose at most the last `n - 1` records.
    Interval(u32),
    /// Never fsync from the journal; the OS flushes on its schedule.
    /// A crash can lose anything since the last OS writeback.
    Never,
}

impl SyncPolicy {
    /// The append interval `interval` spells without an explicit count.
    pub const DEFAULT_INTERVAL: u32 = 8;

    /// The stable wire spelling of this policy.
    pub fn label(&self) -> String {
        match self {
            SyncPolicy::Always => "always".to_owned(),
            SyncPolicy::Interval(n) => format!("interval:{n}"),
            SyncPolicy::Never => "never".to_owned(),
        }
    }
}

impl std::fmt::Display for SyncPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label())
    }
}

impl FromStr for SyncPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "always" => return Ok(SyncPolicy::Always),
            "never" => return Ok(SyncPolicy::Never),
            "interval" => return Ok(SyncPolicy::Interval(Self::DEFAULT_INTERVAL)),
            _ => {}
        }
        if let Some(n) = s.strip_prefix("interval:") {
            let n: u32 = n
                .parse()
                .map_err(|_| format!("invalid sync interval {n:?}"))?;
            if n == 0 {
                return Err("sync interval must be >= 1".to_owned());
            }
            return Ok(SyncPolicy::Interval(n));
        }
        Err(format!(
            "invalid sync policy {s:?} (expected always, interval[:N] or never)"
        ))
    }
}

/// One durable event in the request lifecycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalRecord {
    /// A request was accepted: the queue-assigned id, the submitting
    /// network client (if any), the shard pin (if any), and the exact
    /// request line as the serve grammar accepted it — replayable text.
    Submit {
        /// Queue-assigned global request id.
        id: u64,
        /// Submitting network client, when the request arrived over a
        /// socket.
        client: Option<u64>,
        /// Shard the request was pinned to, when it was.
        shard: Option<u64>,
        /// The accepted request line (serve grammar, untagged).
        line: String,
    },
    /// A cancellation was accepted for `id`.
    Cancel {
        /// The cancelled request's global id.
        id: u64,
    },
    /// The outcome for `id` was emitted — the promise is kept, the
    /// request needs no recovery.
    Sealed {
        /// The answered request's global id.
        id: u64,
    },
}

impl JournalRecord {
    fn encode_payload(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            JournalRecord::Submit {
                id,
                client,
                shard,
                line,
            } => {
                out.push(0);
                out.extend_from_slice(&id.to_le_bytes());
                for stamp in [client, shard] {
                    match stamp {
                        None => out.push(0),
                        Some(value) => {
                            out.push(1);
                            out.extend_from_slice(&value.to_le_bytes());
                        }
                    }
                }
                out.extend_from_slice(&(line.len() as u32).to_le_bytes());
                out.extend_from_slice(line.as_bytes());
            }
            JournalRecord::Cancel { id } => {
                out.push(1);
                out.extend_from_slice(&id.to_le_bytes());
            }
            JournalRecord::Sealed { id } => {
                out.push(2);
                out.extend_from_slice(&id.to_le_bytes());
            }
        }
        out
    }

    /// Encodes the record in its framed on-disk form.
    fn encode(&self) -> Vec<u8> {
        let payload = self.encode_payload();
        let mut out = Vec::with_capacity(payload.len() + 12);
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        let check = checksum(&payload);
        out.extend_from_slice(&payload);
        out.extend_from_slice(&check.to_le_bytes());
        out
    }

    fn decode_payload(payload: &[u8]) -> Option<JournalRecord> {
        let mut reader = Reader::new(payload);
        let record = match reader.u8()? {
            0 => {
                let id = reader.u64()?;
                let mut stamps = [None, None];
                for stamp in &mut stamps {
                    *stamp = match reader.u8()? {
                        0 => None,
                        1 => Some(reader.u64()?),
                        _ => return None,
                    };
                }
                let len = reader.u32()? as usize;
                let line = String::from_utf8(reader.take(len)?.to_vec()).ok()?;
                JournalRecord::Submit {
                    id,
                    client: stamps[0],
                    shard: stamps[1],
                    line,
                }
            }
            1 => JournalRecord::Cancel { id: reader.u64()? },
            2 => JournalRecord::Sealed { id: reader.u64()? },
            _ => return None,
        };
        (reader.remaining() == 0).then_some(record)
    }
}

/// What [`decode`] recovered from a journal image.
#[derive(Debug)]
pub struct DecodedJournal {
    /// Recovered records, in append order.
    pub records: Vec<JournalRecord>,
    /// Human-readable notes about anything dropped along the way.
    pub warnings: Vec<String>,
    /// Byte length of the valid prefix — everything past it is a torn
    /// tail [`Journal::open`] truncates away.
    pub valid_len: usize,
}

/// Decodes a journal image leniently: a torn or corrupt tail is
/// dropped with a warning (its byte offset preserved in
/// [`DecodedJournal::valid_len`]); a missing or foreign header starts
/// fresh with a warning. The only hard error is a version newer than
/// this build ([`StoreError::FutureVersion`]).
///
/// # Errors
///
/// [`StoreError::FutureVersion`] only.
pub fn decode(bytes: &[u8]) -> Result<DecodedJournal, StoreError> {
    let mut decoded = DecodedJournal {
        records: Vec::new(),
        warnings: Vec::new(),
        valid_len: 0,
    };
    if bytes.is_empty() {
        return Ok(decoded);
    }
    let mut reader = Reader::new(bytes);
    match reader.take(8) {
        Some(magic) if magic == JOURNAL_MAGIC => {}
        _ => {
            decoded
                .warnings
                .push("journal file has no tamjrnl header; starting fresh".to_owned());
            return Ok(decoded);
        }
    }
    let Some(file_version) = reader.u32() else {
        decoded
            .warnings
            .push("journal header is truncated; starting fresh".to_owned());
        return Ok(decoded);
    };
    if file_version > JOURNAL_VERSION {
        return Err(StoreError::FutureVersion {
            found: file_version,
            supported: JOURNAL_VERSION,
        });
    }
    if file_version == 0 {
        decoded
            .warnings
            .push("journal declares version 0; starting fresh".to_owned());
        return Ok(decoded);
    }
    decoded.valid_len = 12;
    while reader.remaining() > 0 {
        let record = (|| {
            let len = reader.u32()? as usize;
            if len.checked_add(8)? > reader.remaining() {
                return None;
            }
            let payload = reader.take(len)?;
            let declared = reader.u64()?;
            if checksum(payload) != declared {
                return None;
            }
            JournalRecord::decode_payload(payload)
        })();
        match record {
            Some(record) => {
                decoded.records.push(record);
                decoded.valid_len = bytes.len() - reader.remaining();
            }
            None => {
                decoded.warnings.push(format!(
                    "journal record {} is torn or corrupt; recovering the {} record(s) \
                     before it",
                    decoded.records.len(),
                    decoded.records.len()
                ));
                break;
            }
        }
    }
    Ok(decoded)
}

/// One accepted-but-unsealed request [`unsealed`] recovered from a
/// journal: resubmit it (and re-cancel it when `cancelled`) to keep
/// every promise the crashed daemon made.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveredRequest {
    /// The global id the crashed daemon assigned.
    pub id: u64,
    /// The network client that submitted it, if any (gone after the
    /// restart; preserved as the stamp on the recovered outcome).
    pub client: Option<u64>,
    /// The shard pin, if any.
    pub shard: Option<u64>,
    /// The request line to re-parse and resubmit.
    pub line: String,
    /// Whether a cancellation was also accepted before the crash — the
    /// recovered request must be resubmitted *and* cancelled so its
    /// outcome stream still ends in a sealed cancellation.
    pub cancelled: bool,
}

/// The recovery function: every submit without a matching sealed
/// record, in id order, with accepted cancellations folded in.
pub fn unsealed(records: &[JournalRecord]) -> Vec<RecoveredRequest> {
    let mut pending: Vec<RecoveredRequest> = Vec::new();
    for record in records {
        match record {
            JournalRecord::Submit {
                id,
                client,
                shard,
                line,
            } => pending.push(RecoveredRequest {
                id: *id,
                client: *client,
                shard: *shard,
                line: line.clone(),
                cancelled: false,
            }),
            JournalRecord::Cancel { id } => {
                if let Some(request) = pending.iter_mut().find(|r| r.id == *id) {
                    request.cancelled = true;
                }
            }
            JournalRecord::Sealed { id } => pending.retain(|r| r.id != *id),
        }
    }
    pending.sort_by_key(|r| r.id);
    pending
}

/// Everything [`Journal::open`] found on disk, plus the live handle.
#[derive(Debug)]
pub struct OpenedJournal {
    /// The append handle, positioned after the valid prefix.
    pub journal: Journal,
    /// The records that survived the previous run (feed to
    /// [`unsealed`] for the recovery set).
    pub records: Vec<JournalRecord>,
    /// Notes about anything dropped while opening (torn tail, foreign
    /// header).
    pub warnings: Vec<String>,
}

/// An open write-ahead journal: an append-positioned file handle, its
/// single-writer lock, and the fsync policy.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    file: std::fs::File,
    policy: SyncPolicy,
    /// Appends since the last fsync (drives [`SyncPolicy::Interval`]).
    unsynced: u32,
    _lock: lock::LockGuard,
}

impl Journal {
    /// Opens (or creates) the journal at `path`, acquiring its
    /// `<path>.lock` first. Existing records are decoded leniently — a
    /// torn tail is truncated away so the next append starts on a
    /// clean record boundary — and returned alongside the handle.
    ///
    /// # Errors
    ///
    /// [`StoreError::Locked`] when another handle holds the path,
    /// [`StoreError::FutureVersion`] for a journal from a newer build,
    /// or [`StoreError::Io`] for filesystem failures.
    pub fn open(path: impl Into<PathBuf>, policy: SyncPolicy) -> Result<OpenedJournal, StoreError> {
        let path = path.into();
        let guard = lock::LockGuard::acquire(&path)?;
        let bytes = match std::fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(StoreError::Io(e)),
        };
        let decoded = decode(&bytes)?;
        let mut file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        if decoded.valid_len == 0 {
            // Fresh, foreign or headerless file: restart it as an empty
            // journal and make the header durable immediately, so a
            // crash right after open still leaves a well-formed file.
            file.set_len(0)?;
            file.write_all(&JOURNAL_MAGIC)?;
            file.write_all(&JOURNAL_VERSION.to_le_bytes())?;
            file.sync_all()?;
        } else if decoded.valid_len < bytes.len() {
            // Torn tail from a mid-append crash: drop it so the next
            // append starts on a record boundary.
            file.set_len(decoded.valid_len as u64)?;
            file.sync_all()?;
        }
        file.seek(std::io::SeekFrom::End(0))?;
        Ok(OpenedJournal {
            journal: Journal {
                path,
                file,
                policy,
                unsynced: 0,
                _lock: guard,
            },
            records: decoded.records,
            warnings: decoded.warnings,
        })
    }

    /// Appends one record, fsyncing per the open policy. The write is
    /// flushed to the OS either way — only the device barrier is
    /// policy-gated.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when writing fails; the journal then holds a
    /// torn tail the next open truncates away.
    pub fn append(&mut self, record: &JournalRecord) -> Result<(), StoreError> {
        self.file.write_all(&record.encode())?;
        self.unsynced += 1;
        match self.policy {
            SyncPolicy::Always => self.sync()?,
            SyncPolicy::Interval(n) => {
                if self.unsynced >= n {
                    self.sync()?;
                }
            }
            SyncPolicy::Never => {}
        }
        Ok(())
    }

    /// Forces an fsync now (a generation barrier under
    /// [`SyncPolicy::Interval`], or shutdown). A no-op when nothing is
    /// unsynced.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the sync fails.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        if self.unsynced == 0 {
            return Ok(());
        }
        self.file.sync_all()?;
        self.unsynced = 0;
        Ok(())
    }

    /// Truncates the journal back to a bare header — the clean-shutdown
    /// compaction once every accepted request has been sealed.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when truncating fails.
    pub fn compact(&mut self) -> Result<(), StoreError> {
        self.file.set_len(12)?;
        self.file.seek(std::io::SeekFrom::End(0))?;
        self.file.sync_all()?;
        self.unsynced = 0;
        Ok(())
    }

    /// The journal's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The fsync policy the journal was opened with.
    pub fn policy(&self) -> SyncPolicy {
        self.policy
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<JournalRecord> {
        vec![
            JournalRecord::Submit {
                id: 0,
                client: None,
                shard: None,
                line: "d695 32 6 priority=2".to_owned(),
            },
            JournalRecord::Submit {
                id: 1,
                client: Some(3),
                shard: Some(1),
                line: "p31108 24 4 kind=topk:3".to_owned(),
            },
            JournalRecord::Cancel { id: 1 },
            JournalRecord::Sealed { id: 0 },
        ]
    }

    fn encode_all(records: &[JournalRecord]) -> Vec<u8> {
        let mut bytes = Vec::from(JOURNAL_MAGIC);
        bytes.extend_from_slice(&JOURNAL_VERSION.to_le_bytes());
        for record in records {
            bytes.extend_from_slice(&record.encode());
        }
        bytes
    }

    fn tmp_path(name: &str) -> PathBuf {
        let mut path = std::env::temp_dir();
        path.push(format!(
            "tamjrnl-test-{}-{name}.tamjournal",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let _ = lock::break_lock(&path);
        path
    }

    #[test]
    fn records_roundtrip() {
        let records = sample();
        let decoded = decode(&encode_all(&records)).unwrap();
        assert!(decoded.warnings.is_empty(), "{:?}", decoded.warnings);
        assert_eq!(decoded.records, records);
        assert_eq!(decoded.valid_len, encode_all(&records).len());
    }

    #[test]
    fn unsealed_folds_cancels_and_seals() {
        let recovered = unsealed(&sample());
        // id 0 is sealed; id 1 is unsealed and was cancelled.
        assert_eq!(recovered.len(), 1);
        assert_eq!(recovered[0].id, 1);
        assert!(recovered[0].cancelled);
        assert_eq!(recovered[0].client, Some(3));
        assert_eq!(recovered[0].shard, Some(1));
        assert_eq!(recovered[0].line, "p31108 24 4 kind=topk:3");
    }

    #[test]
    fn unsealed_is_id_ordered() {
        let records = vec![
            JournalRecord::Submit {
                id: 5,
                client: None,
                shard: None,
                line: "b".to_owned(),
            },
            JournalRecord::Submit {
                id: 2,
                client: None,
                shard: None,
                line: "a".to_owned(),
            },
        ];
        let ids: Vec<u64> = unsealed(&records).iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![2, 5]);
    }

    #[test]
    fn every_truncation_point_is_panic_free() {
        let bytes = encode_all(&sample());
        for cut in 0..bytes.len() {
            let decoded = decode(&bytes[..cut]).unwrap();
            assert!(decoded.records.len() <= 4);
            assert!(decoded.valid_len <= cut);
        }
    }

    #[test]
    fn torn_tail_opens_as_a_clean_prefix_with_a_warning() {
        let path = tmp_path("torn");
        let records = sample();
        let bytes = encode_all(&records);
        // Chop mid-way through the final record — a kill -9 mid-append.
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        let opened = Journal::open(&path, SyncPolicy::Always).unwrap();
        assert_eq!(opened.records, records[..3].to_vec());
        assert_eq!(opened.warnings.len(), 1, "{:?}", opened.warnings);
        assert!(opened.warnings[0].contains("torn or corrupt"));
        // The tail is truncated: appending and reopening yields the
        // clean prefix plus the new record, warning-free.
        let mut journal = opened.journal;
        journal.append(&JournalRecord::Sealed { id: 1 }).unwrap();
        drop(journal);
        let reopened = Journal::open(&path, SyncPolicy::Always).unwrap();
        assert!(reopened.warnings.is_empty(), "{:?}", reopened.warnings);
        let mut expected = records[..3].to_vec();
        expected.push(JournalRecord::Sealed { id: 1 });
        assert_eq!(reopened.records, expected);
        drop(reopened);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn append_reopen_roundtrip_under_every_policy() {
        for (name, policy) in [
            ("always", SyncPolicy::Always),
            ("interval", SyncPolicy::Interval(2)),
            ("never", SyncPolicy::Never),
        ] {
            let path = tmp_path(name);
            let mut journal = Journal::open(&path, policy).unwrap().journal;
            for record in sample() {
                journal.append(&record).unwrap();
            }
            journal.sync().unwrap();
            drop(journal);
            let reopened = Journal::open(&path, policy).unwrap();
            assert_eq!(reopened.records, sample(), "policy {name}");
            assert!(reopened.warnings.is_empty(), "policy {name}");
            drop(reopened);
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn compact_resets_to_a_bare_header() {
        let path = tmp_path("compact");
        let mut journal = Journal::open(&path, SyncPolicy::Never).unwrap().journal;
        for record in sample() {
            journal.append(&record).unwrap();
        }
        journal.compact().unwrap();
        journal.append(&JournalRecord::Cancel { id: 9 }).unwrap();
        drop(journal);
        let reopened = Journal::open(&path, SyncPolicy::Never).unwrap();
        assert_eq!(reopened.records, vec![JournalRecord::Cancel { id: 9 }]);
        drop(reopened);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn second_open_is_locked() {
        let path = tmp_path("locked");
        let journal = Journal::open(&path, SyncPolicy::Always).unwrap();
        assert!(matches!(
            Journal::open(&path, SyncPolicy::Always),
            Err(StoreError::Locked { .. })
        ));
        drop(journal);
        // Dropping releases the lock.
        let reopened = Journal::open(&path, SyncPolicy::Always).unwrap();
        drop(reopened);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn break_lock_recovers_a_crashed_daemon_path() {
        let path = tmp_path("breaklock");
        {
            let _journal = Journal::open(&path, SyncPolicy::Always).unwrap();
            // Simulate a crash: forget the guard by leaking the lock
            // file (copy it back after the drop).
            let lock = lock::lock_path(&path);
            std::fs::copy(&lock, lock.with_extension("keep")).unwrap();
        }
        let lock = lock::lock_path(&path);
        std::fs::rename(lock.with_extension("keep"), &lock).unwrap();
        assert!(matches!(
            Journal::open(&path, SyncPolicy::Always),
            Err(StoreError::Locked { .. })
        ));
        assert!(lock::break_lock(&path).unwrap());
        assert!(!lock::break_lock(&path).unwrap(), "second break is a no-op");
        let reopened = Journal::open(&path, SyncPolicy::Always).unwrap();
        drop(reopened);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn future_version_is_a_hard_error() {
        let mut bytes = Vec::from(JOURNAL_MAGIC);
        bytes.extend_from_slice(&(JOURNAL_VERSION + 1).to_le_bytes());
        assert!(matches!(
            decode(&bytes),
            Err(StoreError::FutureVersion { .. })
        ));
    }

    #[test]
    fn sync_policy_spellings_round_trip() {
        for (spelling, policy) in [
            ("always", SyncPolicy::Always),
            ("never", SyncPolicy::Never),
            (
                "interval",
                SyncPolicy::Interval(SyncPolicy::DEFAULT_INTERVAL),
            ),
            ("interval:3", SyncPolicy::Interval(3)),
        ] {
            assert_eq!(spelling.parse::<SyncPolicy>().unwrap(), policy);
        }
        assert_eq!(
            SyncPolicy::Interval(3)
                .label()
                .parse::<SyncPolicy>()
                .unwrap(),
            SyncPolicy::Interval(3)
        );
        for bad in ["", "sometimes", "interval:", "interval:0", "interval:x"] {
            assert!(
                bad.parse::<SyncPolicy>().is_err(),
                "{bad:?} must be rejected"
            );
        }
    }
}
