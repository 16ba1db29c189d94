//! The output gate: reference values recorded from the simulator, one
//! per point, in `reference_digests.txt`.
//!
//! A line reads `<workload> <point> <value>`. For a Monte-Carlo point
//! the value is the FNV-1a-64 digest of `McSummary::to_compact()`; for
//! a figure module it is the digest of its rows as `{:?}` prints them.
//! `farmbench --record` prints the file from the current program.

use crate::Checks;
use std::collections::BTreeMap;
use std::sync::Arc;

const RECORDED: &str = include_str!("../reference_digests.txt");

/// FNV-1a-64 of `s`, as 16 hex digits.
pub fn digest(s: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

#[derive(Clone)]
pub struct Reference {
    values: Arc<BTreeMap<(String, String), String>>,
    /// In record mode every check passes and prints its line instead.
    record: bool,
}

impl Reference {
    pub fn recorded() -> Reference {
        let mut values = BTreeMap::new();
        for line in RECORDED.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let f: Vec<&str> = line.split_whitespace().collect();
            assert_eq!(f.len(), 3, "malformed reference line {line:?}");
            values.insert((f[0].to_string(), f[1].to_string()), f[2].to_string());
        }
        Reference {
            values: Arc::new(values),
            record: false,
        }
    }

    pub fn recorder() -> Reference {
        Reference {
            values: Arc::new(BTreeMap::new()),
            record: true,
        }
    }

    /// Count one check of `point`'s output against its reference value.
    pub fn check(&self, checks: &mut Checks, workload: &str, point: &str, got: &str) {
        if self.record {
            println!("{workload} {point} {got}");
            return;
        }
        let want = self.values.get(&(workload.to_string(), point.to_string()));
        checks.check(want.map(String::as_str) == Some(got), || match want {
            Some(w) => format!("{workload} {point}: got {got}, reference {w}"),
            None => format!("{workload} {point}: no reference value recorded"),
        });
    }
}
