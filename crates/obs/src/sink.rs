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
//! [`split_spec`].

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io;
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

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
}
