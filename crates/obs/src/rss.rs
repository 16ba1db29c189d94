//! Peak resident-set-size of the current process.
//!
//! The live campaign monitor stamps peak RSS into every status snapshot
//! and `/metrics` scrape, and farmbench reports it as `peak_rss_mb`.
//! On platforms without a readable `/proc/self/status` (macOS, or a
//! hardened container) the value is *absent*, not zero: callers get
//! `None`, report an explicit `null`, and a once-per-process diagnostic
//! explains the gap instead of silently publishing a bogus 0.

use crate::diag;

/// Key for the once-per-process "peak RSS unavailable" diagnostic.
pub const RSS_WARN_KEY: &str = "peak-rss";

/// Peak RSS (`VmHWM`) in bytes, from `/proc/self/status`. `None` — with
/// a warn-once diagnostic — when procfs is missing or the field cannot
/// be parsed.
pub fn peak_rss_bytes() -> Option<u64> {
    let parsed = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_vm_hwm(&s));
    if parsed.is_none() {
        diag::warn_once(
            RSS_WARN_KEY,
            "peak RSS unavailable on this platform (no parsable \
             VmHWM in /proc/self/status); reporting null",
        );
    }
    parsed
}

/// Extract `VmHWM` (kB) from a `/proc/self/status` body, in bytes.
fn parse_vm_hwm(status: &str) -> Option<u64> {
    let rest = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?;
    let kib: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kib * 1024)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg(target_os = "linux")]
    fn peak_rss_is_present_and_nonzero_on_linux() {
        assert!(peak_rss_bytes().unwrap() > 0);
        assert!(!diag::warned(RSS_WARN_KEY));
    }

    #[test]
    fn parses_a_procfs_status_body() {
        let body = "Name:\tfarm\nVmPeak:\t  999 kB\nVmHWM:\t  123456 kB\nThreads:\t4\n";
        assert_eq!(parse_vm_hwm(body), Some(123456 * 1024));
    }

    #[test]
    fn missing_or_garbled_field_is_none_not_zero() {
        assert_eq!(parse_vm_hwm(""), None);
        assert_eq!(parse_vm_hwm("Name:\tfarm\nThreads:\t4\n"), None);
        assert_eq!(parse_vm_hwm("VmHWM:\tnot-a-number kB\n"), None);
    }
}
