//! The on-disk tier: a content-addressed store under one cache directory.
//!
//! ```text
//! <root>/objects/ab/cdef….   one entry per rewrite key (fan-out on the
//!                            first digest byte, git-object style)
//! <root>/corrupt/<digest>    quarantined entries that failed verification
//! <root>/lock                advisory lock for eviction/clear
//! ```
//!
//! **Publish discipline.** Entries are published with the same
//! temp + fsync + atomic-rename sequence as `e9front::output::write_atomic`
//! (re-implemented here — the cache sits *below* the frontend in the crate
//! graph): at every instant an object path either does not exist or holds
//! a complete entry. Concurrent writers of the same key are harmless: both
//! renames publish identical bytes, because keys address content produced
//! by a deterministic pipeline.
//!
//! **Verification.** Every entry is stored as `E9CACHE1 ‖ sha256(payload)
//! ‖ payload` and the checksum is recomputed on every read. A mismatch —
//! truncation, bit rot, a torn write from a crashed foreign writer — is a
//! typed [`CacheError::Corrupt`], never a panic: the entry is moved to
//! `corrupt/` (keeping the evidence) and the caller falls back to a cold
//! rewrite.
//!
//! **Recency.** An object's mtime is its one recency signal. A put sets
//! it explicitly on the staged file before the publish rename, and a disk
//! hit bumps it, both from the same clock (`SystemTime::now`), so the
//! order never depends on the filesystem's own timestamp granularity.
//! Nothing else is written per access: a store without a byte budget
//! holds `objects/` and nothing more. (An `index` file left by an older
//! build is ignored.)
//!
//! **Eviction.** `evict_to_budget` is crash-tolerant by construction: it
//! scans the directory (sizes + mtimes) and removes the oldest entries,
//! ties broken by digest. A crash mid-eviction leaves a store that the
//! next scan handles fine.

use crate::sha256::{self, Digest};
use crate::{Blob, CacheError};
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, SystemTime};

/// Magic prefix of every on-disk entry.
pub const MAGIC: &[u8; 8] = b"E9CACHE1";

/// Fixed header length: magic + payload checksum.
const HEADER_LEN: usize = 8 + 32;

/// Most files kept under `corrupt/`. Quarantine preserves evidence for
/// postmortems, but a store fed sustained corruption (bad RAM, a dying
/// disk) must not leak unbounded space on *top* of the damage — past
/// the cap the oldest evidence is dropped first.
pub const QUARANTINE_CAP: usize = 32;

/// Age past which the advisory lock counts as abandoned and is stolen.
const LOCK_TTL: Duration = Duration::from_secs(30);

/// The on-disk content-addressed store.
#[derive(Debug)]
pub struct DiskStore {
    root: PathBuf,
    /// Total object bytes allowed (`None` = unbounded).
    budget: Option<u64>,
}

/// One scanned object (eviction candidate).
#[derive(Debug)]
struct ScanEntry {
    path: PathBuf,
    digest_hex: String,
    len: u64,
    mtime: SystemTime,
}

impl DiskStore {
    /// Open (creating directories as needed) a store rooted at `root`.
    ///
    /// # Errors
    ///
    /// Directory creation failures.
    pub fn open(root: &Path, budget: Option<u64>) -> Result<DiskStore, CacheError> {
        let store = DiskStore {
            root: root.to_path_buf(),
            budget,
        };
        fs::create_dir_all(store.objects_dir())
            .map_err(|e| CacheError::io("create objects dir", e))?;
        Ok(store)
    }

    fn objects_dir(&self) -> PathBuf {
        self.root.join("objects")
    }

    fn corrupt_dir(&self) -> PathBuf {
        self.root.join("corrupt")
    }

    fn lock_path(&self) -> PathBuf {
        self.root.join("lock")
    }

    /// Path of the object for `key`: `objects/ab/<62 hex>`.
    pub fn object_path(&self, key: &Digest) -> PathBuf {
        let hex = sha256::hex(key);
        self.objects_dir().join(&hex[..2]).join(&hex[2..])
    }

    /// Fetch the payload stored for `key`.
    ///
    /// A hit bumps the entry's mtime, so eviction sees true recency.
    ///
    /// # Errors
    ///
    /// [`CacheError::Corrupt`] when the entry fails verification (it has
    /// already been quarantined); [`CacheError::Io`] for transport-level
    /// failures. A missing entry is `Ok(None)`, not an error.
    pub fn get(&self, key: &Digest) -> Result<Option<Blob>, CacheError> {
        e9failpt::fail_io("cache.disk.read").map_err(|e| CacheError::io("read cache entry", e))?;
        let path = self.object_path(key);
        let raw = match fs::read(&path) {
            Ok(raw) => raw,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(CacheError::io("read cache entry", e)),
        };
        match decode_entry(&raw) {
            Ok(()) => {
                touch(&path);
                // The verified payload is served as a view into the read
                // buffer itself — sliced past the header, never copied.
                Ok(Some(Blob::from_vec(raw).tail(HEADER_LEN)))
            }
            Err(reason) => {
                let quarantined = self.quarantine(key, &path);
                Err(CacheError::Corrupt {
                    digest: sha256::hex(key),
                    reason,
                    quarantined,
                })
            }
        }
    }

    /// Publish `payload` under `key` (atomic rename; the staged file's
    /// mtime is set first, so the entry is born most recent), then evict
    /// down to the byte budget if one is set. Returns the number of
    /// entries evicted by the post-put pass.
    ///
    /// # Errors
    ///
    /// Staging/rename failures. Eviction failures are swallowed (they
    /// cost budget adherence until the next successful pass, not
    /// correctness).
    pub fn put(&self, key: &Digest, payload: &[u8]) -> Result<u64, CacheError> {
        let path = self.object_path(key);
        let dir = path.parent().expect("object path has a fan-out parent");
        fs::create_dir_all(dir).map_err(|e| CacheError::io("create fan-out dir", e))?;
        let tmp = dir.join(format!(
            ".{}.{}.tmp",
            path.file_name()
                .expect("object file name")
                .to_string_lossy(),
            std::process::id()
        ));
        let staged: io::Result<()> = (|| {
            e9failpt::fail_io("cache.disk.stage")?;
            let mut f = fs::File::create(&tmp)?;
            f.write_all(MAGIC)?;
            f.write_all(&sha256::digest(payload))?;
            f.write_all(payload)?;
            f.set_modified(SystemTime::now())?;
            f.sync_all()
        })();
        if let Err(e) = staged {
            let _ = fs::remove_file(&tmp);
            return Err(CacheError::io("stage cache entry", e));
        }
        let published =
            e9failpt::fail_io("cache.disk.publish").and_then(|()| fs::rename(&tmp, &path));
        if let Err(e) = published {
            let _ = fs::remove_file(&tmp);
            return Err(CacheError::io("publish cache entry", e));
        }
        let evicted = if self.budget.is_some() {
            self.evict_to_budget().unwrap_or(0)
        } else {
            0
        };
        Ok(evicted)
    }

    /// Move a bad entry to `corrupt/<digest>`; `true` when the evidence
    /// was preserved (falls back to deletion so a bad entry can never be
    /// served twice either way). The quarantine directory is bounded at
    /// [`QUARANTINE_CAP`] files — oldest evidence is dropped first.
    fn quarantine(&self, key: &Digest, path: &Path) -> bool {
        let _ = fs::create_dir_all(self.corrupt_dir());
        self.prune_quarantine();
        let dest = self.corrupt_dir().join(sha256::hex(key));
        let moved =
            e9failpt::fail_io("cache.disk.quarantine").and_then(|()| fs::rename(path, &dest));
        if moved.is_ok() {
            true
        } else {
            let _ = fs::remove_file(path);
            false
        }
    }

    /// Drop oldest quarantined files until there is room for one more
    /// under [`QUARANTINE_CAP`]. Best-effort: pruning failures only cost
    /// disk space, never correctness.
    fn prune_quarantine(&self) {
        let Ok(dir) = fs::read_dir(self.corrupt_dir()) else {
            return;
        };
        let mut files: Vec<(SystemTime, PathBuf)> = dir
            .flatten()
            .filter_map(|e| {
                let meta = e.metadata().ok()?;
                meta.is_file()
                    .then(|| (meta.modified().unwrap_or(SystemTime::UNIX_EPOCH), e.path()))
            })
            .collect();
        if files.len() < QUARANTINE_CAP {
            return;
        }
        files.sort_by_key(|(mtime, _)| *mtime);
        let excess = files.len() + 1 - QUARANTINE_CAP;
        for (_, path) in files.into_iter().take(excess) {
            let _ = fs::remove_file(path);
        }
    }

    /// Scan `objects/` for entries (path, digest, size, mtime). I/O
    /// errors on individual entries are skipped — a half-removed file
    /// must not wedge eviction.
    fn scan(&self) -> Result<Vec<ScanEntry>, CacheError> {
        let mut out = Vec::new();
        let top = match fs::read_dir(self.objects_dir()) {
            Ok(d) => d,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(out),
            Err(e) => return Err(CacheError::io("scan objects dir", e)),
        };
        for fan in top.flatten() {
            let fan_name = fan.file_name().to_string_lossy().into_owned();
            let Ok(entries) = fs::read_dir(fan.path()) else {
                continue;
            };
            for entry in entries.flatten() {
                let name = entry.file_name().to_string_lossy().into_owned();
                if name.starts_with('.') {
                    continue; // staging droppings
                }
                let Ok(meta) = entry.metadata() else {
                    continue;
                };
                if !meta.is_file() {
                    continue;
                }
                out.push(ScanEntry {
                    path: entry.path(),
                    digest_hex: format!("{fan_name}{name}"),
                    len: meta.len(),
                    mtime: meta.modified().unwrap_or(SystemTime::UNIX_EPOCH),
                });
            }
        }
        Ok(out)
    }

    /// Total `(entries, bytes)` currently stored.
    ///
    /// # Errors
    ///
    /// Scan failures.
    pub fn usage(&self) -> Result<(u64, u64), CacheError> {
        let scan = self.scan()?;
        Ok((scan.len() as u64, scan.iter().map(|e| e.len).sum()))
    }

    /// Evict least-recently-used entries until total object bytes fit the
    /// budget. Returns the number of entries removed.
    ///
    /// Victim order: oldest mtime first, ties broken by digest. Holds the
    /// advisory directory lock; if another process holds it, the pass is
    /// skipped (that process is already evicting).
    ///
    /// # Errors
    ///
    /// Scan failures. Individual removals are best-effort.
    pub fn evict_to_budget(&self) -> Result<u64, CacheError> {
        let Some(budget) = self.budget else {
            return Ok(0);
        };
        e9failpt::fail_io("cache.disk.evict").map_err(|e| CacheError::io("evict pass", e))?;
        let Some(_lock) = DirLock::try_acquire(&self.lock_path()) else {
            return Ok(0);
        };
        let mut entries = self.scan()?;
        let mut total: u64 = entries.iter().map(|e| e.len).sum();
        if total <= budget {
            return Ok(0);
        }
        entries.sort_by(|a, b| (a.mtime, &a.digest_hex).cmp(&(b.mtime, &b.digest_hex)));
        let mut removed = 0u64;
        for entry in entries {
            if total <= budget {
                break;
            }
            if fs::remove_file(&entry.path).is_ok() {
                total -= entry.len;
                removed += 1;
            }
        }
        Ok(removed)
    }

    /// Remove every stored object. Returns entries removed.
    ///
    /// # Errors
    ///
    /// Scan failures; individual removals are best-effort.
    pub fn clear(&self) -> Result<u64, CacheError> {
        let _lock = DirLock::try_acquire(&self.lock_path());
        let mut removed = 0u64;
        for entry in self.scan()? {
            if fs::remove_file(&entry.path).is_ok() {
                removed += 1;
            }
        }
        Ok(removed)
    }
}

/// Best-effort mtime bump on a disk hit, from the clock a put stamps
/// with.
fn touch(path: &Path) {
    if let Ok(f) = fs::File::options().write(true).open(path) {
        let _ = f.set_modified(SystemTime::now());
    }
}

/// Verify one raw entry file in place; `Err(reason)` on any mismatch.
/// Returns `Ok(())` rather than the payload so the caller can serve the
/// bytes out of the buffer it already owns.
fn decode_entry(raw: &[u8]) -> Result<(), String> {
    if raw.is_empty() {
        return Err("zero-length entry".into());
    }
    if raw.len() < HEADER_LEN {
        return Err(format!("truncated header ({} bytes)", raw.len()));
    }
    if &raw[..8] != MAGIC {
        return Err("bad magic".into());
    }
    let stored: Digest = raw[8..HEADER_LEN].try_into().expect("32-byte checksum");
    let payload = &raw[HEADER_LEN..];
    let actual = sha256::digest(payload);
    if actual != stored {
        return Err(format!(
            "checksum mismatch (stored {}, computed {})",
            sha256::hex(&stored),
            sha256::hex(&actual)
        ));
    }
    Ok(())
}

/// A best-effort advisory directory lock: an `O_EXCL`-created lock file,
/// stolen when older than [`LOCK_TTL`] (a crashed holder must not wedge
/// eviction forever). Held for the duration of an eviction/clear pass.
#[derive(Debug)]
struct DirLock {
    path: PathBuf,
}

impl DirLock {
    fn try_acquire(path: &Path) -> Option<DirLock> {
        for _ in 0..2 {
            match fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(path)
            {
                Ok(mut f) => {
                    let _ = write!(f, "{}", std::process::id());
                    return Some(DirLock {
                        path: path.to_path_buf(),
                    });
                }
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                    let stale = fs::metadata(path)
                        .and_then(|m| m.modified())
                        .ok()
                        .and_then(|m| SystemTime::now().duration_since(m).ok())
                        .is_some_and(|age| age > LOCK_TTL);
                    if stale {
                        let _ = fs::remove_file(path);
                        continue; // retry the create_new
                    }
                    return None; // live holder — skip this pass
                }
                Err(_) => return None,
            }
        }
        None
    }
}

impl Drop for DirLock {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::digest;

    fn tmproot(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("e9cache-disk-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn put_get_round_trip() {
        let root = tmproot("roundtrip");
        let store = DiskStore::open(&root, None).unwrap();
        let key = digest(b"key");
        assert_eq!(store.get(&key).unwrap(), None);
        store.put(&key, b"payload bytes").unwrap();
        assert_eq!(store.get(&key).unwrap().unwrap()[..], b"payload bytes"[..]);
        // Fan-out layout: objects/ab/<62 hex>.
        let hex = sha256::hex(&key);
        assert!(root
            .join("objects")
            .join(&hex[..2])
            .join(&hex[2..])
            .exists());
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn corrupt_entry_is_typed_error_and_quarantined() {
        let root = tmproot("corrupt");
        let store = DiskStore::open(&root, None).unwrap();
        let key = digest(b"victim");
        store.put(&key, b"good bytes").unwrap();
        let path = store.object_path(&key);
        // Flip one payload byte.
        let mut raw = fs::read(&path).unwrap();
        let last = raw.len() - 1;
        raw[last] ^= 0xFF;
        fs::write(&path, &raw).unwrap();
        match store.get(&key) {
            Err(CacheError::Corrupt {
                digest: d,
                quarantined,
                ..
            }) => {
                assert_eq!(d, sha256::hex(&key));
                assert!(quarantined);
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        // The entry is gone from objects/ and preserved in corrupt/.
        assert!(!path.exists());
        assert!(root.join("corrupt").join(sha256::hex(&key)).exists());
        // The store stays serviceable: a re-put re-publishes cleanly.
        assert_eq!(store.get(&key).unwrap(), None);
        store.put(&key, b"good bytes").unwrap();
        assert_eq!(store.get(&key).unwrap().unwrap()[..], b"good bytes"[..]);
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn zero_length_and_truncated_entries_are_corrupt() {
        let root = tmproot("trunc");
        let store = DiskStore::open(&root, None).unwrap();
        let key = digest(b"t");
        store.put(&key, b"0123456789").unwrap();
        let path = store.object_path(&key);
        for bad in [
            Vec::new(),
            b"E9CACHE1".to_vec(),
            fs::read(&path).unwrap()[..41].to_vec(),
        ] {
            store.put(&key, b"0123456789").unwrap();
            fs::write(&path, &bad).unwrap();
            assert!(
                matches!(store.get(&key), Err(CacheError::Corrupt { .. })),
                "bad len {}",
                bad.len()
            );
        }
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn eviction_respects_budget_and_access_order() {
        let root = tmproot("evict");
        // Budget fits two ~100-byte entries (plus headers).
        let store = DiskStore::open(&root, Some(300)).unwrap();
        let (k1, k2, k3) = (digest(b"1"), digest(b"2"), digest(b"3"));
        store.put(&k1, &[1u8; 100]).unwrap();
        store.put(&k2, &[2u8; 100]).unwrap();
        // Touch k1 so k2 is the LRU victim when k3 arrives.
        assert!(store.get(&k1).unwrap().is_some());
        store.put(&k3, &[3u8; 100]).unwrap();
        let (entries, bytes) = store.usage().unwrap();
        assert!(bytes <= 300, "budget exceeded: {bytes}");
        assert_eq!(entries, 2);
        assert!(store.get(&k2).unwrap().is_none(), "LRU entry survived");
        assert!(store.get(&k1).unwrap().is_some());
        assert!(store.get(&k3).unwrap().is_some());
        fs::remove_dir_all(&root).ok();
    }

    /// Date the object for `key` to `secs` after the epoch.
    fn set_mtime(store: &DiskStore, key: &Digest, secs: u64) {
        fs::File::options()
            .write(true)
            .open(store.object_path(key))
            .unwrap()
            .set_modified(SystemTime::UNIX_EPOCH + Duration::from_secs(secs))
            .unwrap();
    }

    #[test]
    fn unbudgeted_store_writes_nothing_per_access() {
        let root = tmproot("noindex");
        let store = DiskStore::open(&root, None).unwrap();
        for i in 0..16u64 {
            let key = digest(&i.to_le_bytes());
            store.put(&key, &[i as u8; 64]).unwrap();
            for _ in 0..4 {
                assert!(store.get(&key).unwrap().is_some());
            }
        }
        let names: Vec<_> = fs::read_dir(&root)
            .unwrap()
            .flatten()
            .map(|e| e.file_name())
            .collect();
        assert_eq!(names, ["objects"], "per-access state under the cache root");
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn equal_mtimes_evict_in_digest_order() {
        let root = tmproot("ties");
        let store = DiskStore::open(&root, None).unwrap();
        let mut keys: Vec<Digest> = (0..4u64).map(|i| digest(&i.to_le_bytes())).collect();
        for key in &keys {
            store.put(key, &[0u8; 100]).unwrap();
            set_mtime(&store, key, 1_000_000);
        }
        // Room for two of the four 140-byte entries.
        let budgeted = DiskStore::open(&root, Some(300)).unwrap();
        assert_eq!(budgeted.evict_to_budget().unwrap(), 2);
        keys.sort();
        for (i, key) in keys.iter().enumerate() {
            assert_eq!(
                budgeted.get(key).unwrap().is_some(),
                i >= 2,
                "key {i} in digest order"
            );
        }
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn leftover_index_file_is_ignored() {
        // An older build kept an `index` access journal. One holding
        // garbage, and a line naming the older entry as the most recent
        // access, must neither break the store nor override mtime.
        let root = tmproot("oldindex");
        let store = DiskStore::open(&root, Some(300)).unwrap();
        let (k1, k2, k3) = (digest(b"a"), digest(b"b"), digest(b"c"));
        let journal = format!("not hex at all\n\x00\x01garbage\n{}\n", sha256::hex(&k2));
        fs::write(root.join("index"), journal).unwrap();
        store.put(&k1, &[1u8; 100]).unwrap();
        store.put(&k2, &[2u8; 100]).unwrap();
        set_mtime(&store, &k1, 2_000_000);
        set_mtime(&store, &k2, 1_000_000);
        store.put(&k3, &[3u8; 100]).unwrap();
        let (entries, bytes) = store.usage().unwrap();
        assert_eq!(entries, 2);
        assert!(bytes <= 300);
        assert!(store.get(&k2).unwrap().is_none(), "older entry survived");
        assert!(store.get(&k1).unwrap().is_some());
        assert!(store.get(&k3).unwrap().is_some());
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn quarantine_stays_bounded_under_repeated_corruption() {
        let root = tmproot("qcap");
        let store = DiskStore::open(&root, None).unwrap();
        // Sustained corruption — more bad entries than the cap.
        for i in 0..QUARANTINE_CAP + 8 {
            let key = digest(&(i as u64).to_le_bytes());
            store.put(&key, b"payload").unwrap();
            let path = store.object_path(&key);
            let mut raw = fs::read(&path).unwrap();
            let last = raw.len() - 1;
            raw[last] ^= 0xFF;
            fs::write(&path, &raw).unwrap();
            assert!(matches!(store.get(&key), Err(CacheError::Corrupt { .. })));
            let kept = fs::read_dir(store.corrupt_dir()).unwrap().flatten().count();
            assert!(
                kept <= QUARANTINE_CAP,
                "quarantine grew past the cap: {kept}"
            );
        }
        // Evidence is still being kept, just bounded.
        let kept = fs::read_dir(store.corrupt_dir()).unwrap().flatten().count();
        assert!(kept > 0);
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn clear_removes_everything() {
        let root = tmproot("clear");
        let store = DiskStore::open(&root, None).unwrap();
        store.put(&digest(b"x"), b"x").unwrap();
        store.put(&digest(b"y"), b"y").unwrap();
        assert_eq!(store.clear().unwrap(), 2);
        assert_eq!(store.usage().unwrap(), (0, 0));
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn stale_lock_is_stolen() {
        let root = tmproot("lock");
        let store = DiskStore::open(&root, Some(50)).unwrap();
        // Plant a lock file dated far in the past.
        fs::write(root.join("lock"), b"dead").unwrap();
        let old = SystemTime::now() - Duration::from_secs(3600);
        fs::File::options()
            .write(true)
            .open(root.join("lock"))
            .unwrap()
            .set_modified(old)
            .unwrap();
        store.put(&digest(b"x"), &[0u8; 100]).unwrap();
        store.put(&digest(b"y"), &[0u8; 100]).unwrap();
        // Eviction stole the stale lock and ran.
        let (_, bytes) = store.usage().unwrap();
        assert!(bytes <= 150, "stale lock blocked eviction");
        fs::remove_dir_all(&root).ok();
    }
}
