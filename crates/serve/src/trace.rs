//! Tail-sampled slow-request trace log: size-bounded, rotating, JSONL.
//!
//! When `lgend` runs with `--slow-ms` and a request's wall time crosses
//! the threshold, the request's full span tree (captured by a per-worker
//! scoped collector — see `lgen_telemetry::scoped_collector`) is rendered
//! with [`lgen_telemetry::chrome_trace`] and appended here as **one line
//! per slow request**. Each line is a complete chrome-trace document, so
//! any single line can be cut out and dropped into Perfetto; the replay
//! harness and ci.sh count lines to assert "exactly one slow chunk".
//!
//! **Rotation.** Before an append would push the file past `max_bytes`,
//! the file is renamed to `<path>.1` (replacing any previous `.1`) and a
//! fresh file is started — at most two files (~2×`max_bytes`) ever exist,
//! so a misconfigured threshold cannot fill the disk.

use std::fs::OpenOptions;
use std::io::{self, Write as _};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

/// Default size bound per trace file (4 MiB).
pub(crate) const DEFAULT_MAX_BYTES: u64 = 4 << 20;

/// An append-only, size-bounded, rotating trace log (see module docs).
pub(crate) struct SlowTraceLog {
    path: PathBuf,
    max_bytes: u64,
    /// Serializes append+rotate; writers are already off the hot path
    /// (they just crossed a multi-millisecond threshold).
    lock: Mutex<()>,
    chunks: AtomicU64,
}

impl SlowTraceLog {
    /// A log writing to `path`, rotating to `<path>.1` at `max_bytes`.
    pub fn new(path: impl Into<PathBuf>, max_bytes: u64) -> SlowTraceLog {
        SlowTraceLog {
            path: path.into(),
            max_bytes: max_bytes.max(1),
            lock: Mutex::new(()),
            chunks: AtomicU64::new(0),
        }
    }

    /// Where the current file lives.
    #[cfg(test)]
    pub(crate) fn path(&self) -> &std::path::Path {
        &self.path
    }

    /// Where rotated content goes.
    pub(crate) fn rotated_path(&self) -> PathBuf {
        let mut s = self.path.as_os_str().to_os_string();
        s.push(".1");
        PathBuf::from(s)
    }

    /// Chunks appended by this instance (not counting pre-existing file
    /// content).
    pub fn chunks(&self) -> u64 {
        self.chunks.load(Ordering::Relaxed)
    }

    /// Appends `chunk` as one JSONL line, rotating first if the line
    /// would push the current file past the size bound.
    pub fn append(&self, chunk: &str) -> io::Result<()> {
        let _guard = self.lock.lock().unwrap_or_else(PoisonError::into_inner);
        let line_len = chunk.len() as u64 + 1;
        let current = std::fs::metadata(&self.path).map(|m| m.len()).unwrap_or(0);
        if current > 0 && current + line_len > self.max_bytes {
            // Replace any previous `.1`; two files is the hard bound.
            std::fs::rename(&self.path, self.rotated_path())?;
        }
        let mut f = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)?;
        f.write_all(chunk.as_bytes())?;
        f.write_all(b"\n")?;
        self.chunks.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("lgen-trace-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn appends_one_line_per_chunk() {
        let dir = tmpdir("append");
        let log = SlowTraceLog::new(dir.join("slow.jsonl"), 1 << 20);
        log.append("{\"traceEvents\":[]}").unwrap();
        log.append("{\"traceEvents\":[1]}").unwrap();
        let text = std::fs::read_to_string(log.path()).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert_eq!(log.chunks(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotates_before_exceeding_the_bound() {
        let dir = tmpdir("rotate");
        // Bound fits one ~40-byte line but not two.
        let log = SlowTraceLog::new(dir.join("slow.jsonl"), 60);
        let chunk = "x".repeat(40);
        log.append(&chunk).unwrap();
        log.append(&chunk).unwrap();
        let current = std::fs::read_to_string(log.path()).unwrap();
        let rotated = std::fs::read_to_string(log.rotated_path()).unwrap();
        assert_eq!(current.lines().count(), 1);
        assert_eq!(rotated.lines().count(), 1);
        // A third append replaces the old `.1`; never a third file.
        log.append(&chunk).unwrap();
        assert_eq!(
            std::fs::read_to_string(log.rotated_path())
                .unwrap()
                .lines()
                .count(),
            1
        );
        assert!(std::fs::metadata(log.path()).unwrap().len() <= 60);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn oversized_single_chunk_still_lands() {
        let dir = tmpdir("oversize");
        let log = SlowTraceLog::new(dir.join("slow.jsonl"), 8);
        // Larger than the whole bound: written anyway (bound is per-file
        // best effort, one chunk is never split), rotated out next append.
        log.append("0123456789abcdef").unwrap();
        assert_eq!(
            std::fs::read_to_string(log.path()).unwrap().lines().count(),
            1
        );
        log.append("yz").unwrap();
        assert!(log.rotated_path().exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
