//! Batch-artifact output files with truncate-once-per-process semantics.
//!
//! Experiment binaries run *many* Monte-Carlo batches per process (one
//! per configuration point), and every batch may append telemetry
//! (timeline bands, post-mortems, loss traces) to the same file named by
//! a `FARM_*` variable or CLI flag. The first open of a path in a
//! process truncates it — a fresh run never mixes with a previous
//! process's output — and every later open appends, so one file
//! accumulates the whole process's batches. The open index is returned
//! so callers can stamp rows with a batch id and write headers only on
//! the fresh open.
//!
//! The artifact specs share one grammar, `path[@param]`, split by
//! [`split_spec`]. Whole-document outputs — status snapshots, fleet
//! checkpoints and summaries, Chrome traces — are published with
//! [`write_atomic`] instead.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, OnceLock};

fn registry() -> &'static Mutex<BTreeMap<String, u64>> {
    static OPENED: OnceLock<Mutex<BTreeMap<String, u64>>> = OnceLock::new();
    OPENED.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// Split a `path[@param]` artifact spec at its first `@`, after
/// trimming. An empty or `"1"` path (a bare flag, `FARM_X=1`) comes back
/// as `None`: the spec's default path. The parameter is returned as is;
/// each spec validates its own.
pub fn split_spec(s: &str) -> (Option<&str>, Option<&str>) {
    let s = s.trim();
    let (path, param) = match s.split_once('@') {
        Some((p, q)) => (p, Some(q)),
        None => (s, None),
    };
    let path = match path {
        "" | "1" => None,
        p => Some(p),
    };
    (path, param)
}

/// Open `path` for batch-artifact output. Returns `(file, fresh, batch)`
/// where `fresh` is true exactly once per process per path (the open
/// that truncated) and `batch` counts prior opens of the path (0, 1, …)
/// — a process-stable batch id.
pub fn open_batch_file(path: &str) -> io::Result<(File, bool, u64)> {
    let mut reg = registry().lock().expect("sink registry poisoned");
    let count = reg.entry(path.to_string()).or_insert(0);
    let fresh = *count == 0;
    let file = if fresh {
        File::create(path)?
    } else {
        // create(true): the file may have been moved away between
        // batches (e.g. harvested by a test); recreate rather than fail.
        OpenOptions::new().append(true).create(true).open(path)?
    };
    let batch = *count;
    *count += 1;
    Ok((file, fresh, batch))
}

/// Publish `bytes` as the whole content of `path`: write
/// `{path}.tmp.{pid}` in the same directory, then rename it over `path`,
/// so a reader sees the previous document or the new one, never a torn
/// write, and two processes never share a temp file. On failure the
/// temp file is removed. The temp file is synced before the rename and
/// the directory after it, so the new document — not an empty or
/// missing one — is what survives a power loss.
pub fn write_atomic(path: impl AsRef<Path>, bytes: impl AsRef<[u8]>) -> io::Result<()> {
    let path = path.as_ref();
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".tmp.{}", std::process::id()));
    let tmp = PathBuf::from(tmp);
    let res = File::create(&tmp)
        .and_then(|mut f| {
            f.write_all(bytes.as_ref())?;
            f.sync_all()
        })
        .and_then(|()| std::fs::rename(&tmp, path));
    if res.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    res?;
    sync_parent_dir(path)
}

/// Sync the directory holding `path`, making a rename into it durable.
#[cfg(unix)]
fn sync_parent_dir(path: &Path) -> io::Result<()> {
    let dir = match path.parent() {
        Some(d) if !d.as_os_str().is_empty() => d,
        _ => Path::new("."),
    };
    File::open(dir)?.sync_all()
}

#[cfg(not(unix))]
fn sync_parent_dir(_path: &Path) -> io::Result<()> {
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_open_truncates_then_appends_with_batch_ids() {
        let path = std::env::temp_dir().join(format!("farm-sink-test-{}.txt", std::process::id()));
        let path_s = path.to_str().unwrap();
        std::fs::write(&path, "stale from a previous process\n").unwrap();

        let (mut f0, fresh0, b0) = open_batch_file(path_s).unwrap();
        assert!(fresh0);
        assert_eq!(b0, 0);
        writeln!(f0, "batch0").unwrap();
        drop(f0);

        let (mut f1, fresh1, b1) = open_batch_file(path_s).unwrap();
        assert!(!fresh1);
        assert_eq!(b1, 1);
        writeln!(f1, "batch1").unwrap();
        drop(f1);

        let body = std::fs::read_to_string(&path).unwrap();
        assert_eq!(body, "batch0\nbatch1\n");

        // A later batch recreates a harvested file instead of failing.
        std::fs::remove_file(&path).unwrap();
        let (mut f2, fresh2, b2) = open_batch_file(path_s).unwrap();
        assert!(!fresh2);
        assert_eq!(b2, 2);
        writeln!(f2, "batch2").unwrap();
        drop(f2);
        let body = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(body, "batch2\n");
    }

    #[test]
    fn write_atomic_replaces_and_cleans_up_on_failure() {
        let dir = std::env::temp_dir().join(format!("farm-sink-atomic-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("doc.json");
        write_atomic(&path, "old\n").unwrap();
        write_atomic(&path, "new\n").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "new\n");
        // A directory in the way fails the rename; the temp file goes.
        let blocked = dir.join("blocked");
        std::fs::create_dir(&blocked).unwrap();
        assert!(write_atomic(&blocked, "x").is_err());
        let mut names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(names, ["blocked", "doc.json"]);
    }
}
