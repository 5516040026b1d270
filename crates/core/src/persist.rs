//! A persistent, content-addressed on-disk kernel cache.
//!
//! The compile service (`crates/serve`) amortizes compilation across
//! *restarts*, not just across requests: every kernel the in-memory
//! [`KernelCache`](crate::cache::KernelCache) compiles is spilled to disk,
//! and a memory miss consults the disk before running the pipeline. The
//! daemon can be killed and restarted and warm traffic keeps hitting.
//!
//! **Addressing.** Entries are keyed by a *stable* 64-bit fingerprint of
//! the full cache key (BLAC/program structure × kernel name × pipeline ×
//! config × genome) computed by `StableHasher` — FNV-1a, byte-order
//! fixed, identical across processes and builds, unlike
//! `std::hash::DefaultHasher`, whose output is explicitly not guaranteed
//! stable. One entry per fingerprint: `<dir>/<fp:016x>.lgk`.
//!
//! **Integrity.** A 64-bit fingerprint can collide and a file can rot, so
//! every entry carries (a) the format magic + version, (b) the key
//! fingerprint it was stored under, (c) an FNV checksum over the variable
//! payload, and (d) the full `Debug` rendering of the key. On load all
//! four are checked: structural damage **quarantines** the file (moved
//! into `quarantine/`, never deleted, never trusted) and reports a miss; a
//! well-formed entry whose key description differs is a fingerprint
//! collision and reports a plain miss. The kernel bytes themselves decode
//! through the validating [`lgen_cir::codec`], which rejects rather than
//! panics on malformed input — a corrupt cache can cost a recompile, never
//! the daemon.
//!
//! **Atomicity.** Writers serialize into a process+sequence-unique temp
//! file in the cache directory and `rename(2)` it into place, so readers
//! (including concurrent daemons sharing a directory) only ever observe
//! complete entries; the last writer of a fingerprint wins with an
//! identical payload (compilation is deterministic).

use lgen_cir::{codec, Kernel};
use lgen_telemetry::metric_counter;
use std::fmt;
use std::fs;
use std::hash::{Hash, Hasher};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// On-disk entry format revision (independent of
/// [`codec::CODEC_VERSION`], which versions the kernel payload inside).
pub(crate) const DISK_FORMAT_VERSION: u32 = 1;

const MAGIC: [u8; 4] = *b"LGKC";
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a as a [`std::hash::Hasher`]: deterministic across processes,
/// platforms, and builds, which `DefaultHasher` is documented **not** to
/// be. Used for every fingerprint that leaves the process (disk entries,
/// wire-level request coalescing).
pub(crate) struct StableHasher(u64);

impl Default for StableHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl StableHasher {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        StableHasher(FNV_OFFSET)
    }
}

impl Hasher for StableHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }
}

/// The stable fingerprint of any hashable key (see `StableHasher`).
pub fn stable_fingerprint<T: Hash + ?Sized>(key: &T) -> u64 {
    let mut h = StableHasher::new();
    key.hash(&mut h);
    h.finish()
}

fn fnv_checksum(parts: &[&[u8]]) -> u64 {
    let mut h = StableHasher::new();
    for p in parts {
        Hasher::write(&mut h, p);
    }
    h.finish()
}

/// Counters describing disk-cache behaviour; all monotonic, cheap to read.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DiskStats {
    /// Loads that returned a verified kernel.
    pub hits: u64,
    /// Loads that found no (usable) entry.
    pub misses: u64,
    /// Entries written (temp-file + rename completed).
    pub persisted: u64,
    /// Corrupt entries moved into `quarantine/`.
    pub quarantined: u64,
    /// I/O errors (reads or writes) swallowed; the cache degrades to a
    /// pass-through, it never takes the compile path down.
    pub io_errors: u64,
}

impl fmt::Display for DiskStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} hits / {} misses, {} persisted, {} quarantined",
            self.hits, self.misses, self.persisted, self.quarantined
        )?;
        if self.io_errors > 0 {
            write!(f, ", {} io error(s)", self.io_errors)?;
        }
        Ok(())
    }
}

/// A directory of content-addressed kernel entries (see module docs).
pub struct DiskCache {
    dir: PathBuf,
    hits: AtomicU64,
    misses: AtomicU64,
    persisted: AtomicU64,
    quarantined: AtomicU64,
    io_errors: AtomicU64,
    tmp_seq: AtomicU64,
}

impl DiskCache {
    /// Opens (creating if needed) a cache rooted at `dir`, including its
    /// `quarantine/` subdirectory.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(dir.join("quarantine"))?;
        for name in [
            "lgen.disk.hits",
            "lgen.disk.misses",
            "lgen.disk.persisted",
            "lgen.disk.quarantined",
        ] {
            lgen_telemetry::counter(name);
        }
        Ok(DiskCache {
            dir,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            persisted: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
            io_errors: AtomicU64::new(0),
            tmp_seq: AtomicU64::new(0),
        })
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn entry_path(&self, fp: u64) -> PathBuf {
        self.dir.join(format!("{fp:016x}.lgk"))
    }

    /// Loads and fully verifies the entry for `fp`. `key_desc` must be the
    /// exact description the entry was stored under (the `Debug` rendering
    /// of the cache key); a mismatch is a fingerprint collision and loads
    /// nothing. Corrupt entries are quarantined. Never panics; any I/O or
    /// decode problem is a miss.
    pub fn load(&self, fp: u64, key_desc: &str) -> Option<Kernel> {
        let path = self.entry_path(fp);
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(e) => {
                if e.kind() != io::ErrorKind::NotFound {
                    self.io_errors.fetch_add(1, Ordering::Relaxed);
                }
                self.record_miss();
                return None;
            }
        };
        match parse_entry(&bytes, fp) {
            Ok((stored_desc, payload)) => {
                if stored_desc != key_desc.as_bytes() {
                    // A different key hashed to the same fingerprint: the
                    // entry is valid, just not ours.
                    self.record_miss();
                    return None;
                }
                match codec::decode_kernel(payload) {
                    Ok(kernel) => {
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        metric_counter!("lgen.disk.hits").inc();
                        Some(kernel)
                    }
                    Err(_) => {
                        // Checksum passed but the payload does not decode:
                        // a stale codec revision or a bug — either way,
                        // quarantine and recompile.
                        self.quarantine(&path);
                        self.record_miss();
                        None
                    }
                }
            }
            Err(_) => {
                self.quarantine(&path);
                self.record_miss();
                None
            }
        }
    }

    /// Serializes `kernel` and atomically installs it as the entry for
    /// `fp`. Returns whether the entry landed; failures are counted and
    /// swallowed (a full disk must not fail compiles).
    pub fn store(&self, fp: u64, key_desc: &str, kernel: &Kernel) -> bool {
        let payload = codec::encode_kernel(kernel);
        let desc = key_desc.as_bytes();
        let checksum = fnv_checksum(&[desc, &payload]);
        let mut bytes = Vec::with_capacity(4 + 4 + 8 + 8 + 8 + desc.len() + 8 + payload.len());
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&DISK_FORMAT_VERSION.to_le_bytes());
        bytes.extend_from_slice(&fp.to_le_bytes());
        bytes.extend_from_slice(&checksum.to_le_bytes());
        bytes.extend_from_slice(&(desc.len() as u64).to_le_bytes());
        bytes.extend_from_slice(desc);
        bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        bytes.extend_from_slice(&payload);

        let tmp = self.dir.join(format!(
            ".tmp-{}-{}-{fp:016x}",
            std::process::id(),
            self.tmp_seq.fetch_add(1, Ordering::Relaxed)
        ));
        let write = (|| -> io::Result<()> {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(&bytes)?;
            f.sync_all()?;
            fs::rename(&tmp, self.entry_path(fp))
        })();
        match write {
            Ok(()) => {
                self.persisted.fetch_add(1, Ordering::Relaxed);
                metric_counter!("lgen.disk.persisted").inc();
                true
            }
            Err(_) => {
                self.io_errors.fetch_add(1, Ordering::Relaxed);
                let _ = fs::remove_file(&tmp);
                false
            }
        }
    }

    fn record_miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
        metric_counter!("lgen.disk.misses").inc();
    }

    /// Moves a damaged entry into `quarantine/` (best effort; falls back
    /// to removal so the poisoned bytes are never re-read either way).
    fn quarantine(&self, path: &Path) {
        self.quarantined.fetch_add(1, Ordering::Relaxed);
        metric_counter!("lgen.disk.quarantined").inc();
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| "entry".to_string());
        let dest = self.dir.join("quarantine").join(name);
        if fs::rename(path, &dest).is_err() && fs::remove_file(path).is_err() {
            self.io_errors.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Number of live entries on disk (excludes `quarantine/` and temp
    /// files). Walks the directory; intended for tests and stats requests,
    /// not hot paths.
    pub fn entries(&self) -> usize {
        fs::read_dir(&self.dir)
            .map(|rd| {
                rd.filter_map(|e| e.ok())
                    .filter(|e| e.path().extension().map(|x| x == "lgk").unwrap_or(false))
                    .count()
            })
            .unwrap_or(0)
    }

    /// Number of quarantined entries.
    pub fn quarantine_entries(&self) -> usize {
        fs::read_dir(self.dir.join("quarantine"))
            .map(|rd| rd.filter_map(|e| e.ok()).count())
            .unwrap_or(0)
    }

    /// Snapshot of the behaviour counters.
    pub fn stats(&self) -> DiskStats {
        DiskStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            persisted: self.persisted.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
            io_errors: self.io_errors.load(Ordering::Relaxed),
        }
    }
}

impl fmt::Debug for DiskCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DiskCache")
            .field("dir", &self.dir)
            .field("stats", &self.stats())
            .finish()
    }
}

/// Splits a raw entry into `(key description, kernel payload)` after
/// checking magic, format version, stored fingerprint, and checksum.
fn parse_entry(bytes: &[u8], want_fp: u64) -> Result<(&[u8], &[u8]), &'static str> {
    let take = |pos: &mut usize, n: usize| -> Result<&[u8], &'static str> {
        if bytes.len() - *pos < n {
            return Err("truncated");
        }
        let s = &bytes[*pos..*pos + n];
        *pos += n;
        Ok(s)
    };
    let mut pos = 0;
    if take(&mut pos, 4)? != MAGIC {
        return Err("bad magic");
    }
    let version = u32::from_le_bytes(take(&mut pos, 4)?.try_into().expect("4 bytes"));
    if version != DISK_FORMAT_VERSION {
        return Err("format version");
    }
    let stored_fp = u64::from_le_bytes(take(&mut pos, 8)?.try_into().expect("8 bytes"));
    if stored_fp != want_fp {
        return Err("fingerprint mismatch");
    }
    let checksum = u64::from_le_bytes(take(&mut pos, 8)?.try_into().expect("8 bytes"));
    let desc_len = u64::from_le_bytes(take(&mut pos, 8)?.try_into().expect("8 bytes")) as usize;
    if desc_len > bytes.len() - pos {
        return Err("truncated");
    }
    let desc = take(&mut pos, desc_len)?;
    let payload_len = u64::from_le_bytes(take(&mut pos, 8)?.try_into().expect("8 bytes")) as usize;
    if payload_len > bytes.len() - pos {
        return Err("truncated");
    }
    let payload = take(&mut pos, payload_len)?;
    if pos != bytes.len() {
        return Err("trailing bytes");
    }
    if fnv_checksum(&[desc, payload]) != checksum {
        return Err("checksum");
    }
    Ok((desc, payload))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CompileConfig;
    use crate::pipeline::compile;
    use lgen_isa::Microarch;
    use lgen_ll::paper;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("lgen-disk-test-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn sample() -> Kernel {
        compile(
            &paper::gemv(4, 8),
            "disk_sample",
            &CompileConfig::full(Microarch::Atom),
        )
    }

    #[test]
    fn store_then_load_roundtrips() {
        let cache = DiskCache::open(tmpdir("roundtrip")).unwrap();
        let k = sample();
        assert!(cache.store(42, "key", &k));
        assert_eq!(cache.load(42, "key").as_ref(), Some(&k));
        assert_eq!(cache.entries(), 1);
        let s = cache.stats();
        assert_eq!((s.hits, s.persisted, s.quarantined), (1, 1, 0));
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn absent_and_collided_entries_are_plain_misses() {
        let cache = DiskCache::open(tmpdir("miss")).unwrap();
        assert!(cache.load(7, "key").is_none());
        let k = sample();
        cache.store(7, "key-a", &k);
        // Same fingerprint, different key: collision, not corruption.
        assert!(cache.load(7, "key-b").is_none());
        assert_eq!(cache.stats().quarantined, 0);
        assert_eq!(cache.entries(), 1, "collided entry must survive");
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn corrupt_entries_are_quarantined_not_loaded() {
        let cache = DiskCache::open(tmpdir("corrupt")).unwrap();
        let k = sample();
        cache.store(9, "key", &k);
        let path = cache.entry_path(9);
        // Flip a byte deep in the payload: checksum must catch it.
        let mut bytes = fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 3] ^= 0xff;
        fs::write(&path, &bytes).unwrap();
        assert!(cache.load(9, "key").is_none());
        assert_eq!(cache.stats().quarantined, 1);
        assert_eq!(cache.entries(), 0);
        assert_eq!(cache.quarantine_entries(), 1);
        // The quarantined entry stays out of the way of a fresh store.
        cache.store(9, "key", &k);
        assert!(cache.load(9, "key").is_some());
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn truncated_and_foreign_files_are_quarantined() {
        let cache = DiskCache::open(tmpdir("foreign")).unwrap();
        let k = sample();
        cache.store(11, "key", &k);
        let path = cache.entry_path(11);
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert!(cache.load(11, "key").is_none());
        fs::write(cache.entry_path(12), b"not a cache entry").unwrap();
        assert!(cache.load(12, "key").is_none());
        assert_eq!(cache.stats().quarantined, 2);
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn stable_fingerprint_is_fixed_across_runs() {
        // Pin the FNV output so an accidental hasher change (which would
        // orphan every existing cache directory) fails loudly.
        assert_eq!(stable_fingerprint(&()), FNV_OFFSET);
        assert_eq!(stable_fingerprint("lgen"), 8112686060438997640);
        let a = stable_fingerprint(&(1u32, "x"));
        let b = stable_fingerprint(&(1u32, "x"));
        assert_eq!(a, b);
        assert_ne!(a, stable_fingerprint(&(2u32, "x")));
    }
}
