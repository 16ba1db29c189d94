//! Per-group flight recorder and data-loss post-mortems.
//!
//! Every redundancy group keeps a bounded ring of its most recent
//! failure / rebuild events. Recording is a few stores into a
//! preallocated flat buffer, so the recorder can stay on for a whole
//! Monte-Carlo batch. When a group drops below `m` available blocks the
//! recorder replays the group's ring in chronological order and emits
//! one structured JSON line — the causal chain that produced the loss,
//! ending in the exact event that killed the group.
//!
//! When the span recorder is also attached ([`crate::spans`]), the
//! post-mortem additionally carries a `critical_path` object: the
//! phase breakdown (detect / queue / transfer) of the fatal
//! vulnerability window, whose durations sum to the window.

use crate::spans::CriticalPath;

/// Ring capacity per redundancy group. Losses are caused by short
/// overlapping-failure windows, so a dozen events is plenty of context;
/// older events are counted in `dropped` rather than kept.
pub const RING: usize = 12;

/// Event kinds, stored as a byte in the ring.
pub mod kind {
    pub const FAILURE: u8 = 0;
    pub const REBUILD_START: u8 = 1;
    pub const REBUILD_DONE: u8 = 2;
    pub const REDIRECT: u8 = 3;
    pub const NO_TARGET: u8 = 4;
    pub const LATENT: u8 = 5;

    pub const NAMES: [&str; 6] = [
        "failure",
        "rebuild_start",
        "rebuild_done",
        "redirect",
        "no_target",
        "latent",
    ];
}

/// One ring slot: what happened to a group member, when.
#[derive(Clone, Copy, Debug, Default)]
pub struct FlightEvent {
    /// Simulated time in seconds.
    pub t_secs: f64,
    /// One of the [`kind`] constants.
    pub kind: u8,
    /// Block index within the group.
    pub idx: u8,
    /// Disk involved, or `u32::MAX` when no disk applies (e.g. a
    /// rebuild that found no target).
    pub disk: u32,
}

/// No-disk marker for [`FlightEvent::disk`].
pub const NO_DISK: u32 = u32::MAX;

/// Flight recorder for every group of one trial.
#[derive(Clone, Debug)]
pub struct FlightRecorder {
    trial: u64,
    /// `n_groups × RING` slots, flat.
    ring: Vec<FlightEvent>,
    /// Events ever written per group; `written % RING` is the next slot.
    written: Vec<u32>,
    /// Finished post-mortem JSON lines, in emission order.
    postmortems: Vec<String>,
}

impl FlightRecorder {
    pub fn new(trial: u64, n_groups: usize) -> Self {
        FlightRecorder {
            trial,
            ring: vec![FlightEvent::default(); n_groups * RING],
            written: vec![0; n_groups],
            postmortems: Vec::new(),
        }
    }

    /// Record one event against `group`.
    #[inline]
    pub fn record(&mut self, group: u32, t_secs: f64, kind: u8, disk: u32, idx: u8) {
        let g = group as usize;
        let slot = g * RING + self.written[g] as usize % RING;
        self.ring[slot] = FlightEvent {
            t_secs,
            kind,
            idx,
            disk,
        };
        self.written[g] += 1;
    }

    /// The group's retained events, oldest first.
    fn chain(&self, group: u32) -> impl Iterator<Item = &FlightEvent> {
        let g = group as usize;
        let written = self.written[g] as usize;
        let kept = written.min(RING);
        let ring = &self.ring[g * RING..(g + 1) * RING];
        (0..kept).map(move |i| &ring[(written - kept + i) % RING])
    }

    /// The group dropped below `m`: reconstruct its causal chain as one
    /// JSON line. `cause` names the fatal event class
    /// (`"disk_failure"` or `"latent_read_error"`); record the fatal
    /// event *before* calling this, so the chain ends with it.
    /// `critical_path` is the span-derived phase breakdown of the fatal
    /// window, when span tracing is on.
    pub fn postmortem(
        &mut self,
        group: u32,
        t_secs: f64,
        cause: &str,
        critical_path: Option<&CriticalPath>,
    ) {
        use std::fmt::Write as _;
        let dropped = (self.written[group as usize] as usize).saturating_sub(RING);
        let mut line = format!(
            "{{\"trial\":{},\"group\":{group},\"t_secs\":{t_secs},\"cause\":\"{cause}\",\
             \"dropped\":{dropped},\"chain\":[",
            self.trial,
        );
        for (i, ev) in self.chain(group).enumerate() {
            if i > 0 {
                line.push(',');
            }
            let _ = write!(
                line,
                "{{\"t_secs\":{},\"ev\":\"{}\",\"disk\":",
                ev.t_secs,
                kind::NAMES[ev.kind as usize],
            );
            if ev.disk == NO_DISK {
                line.push_str("null");
            } else {
                let _ = write!(line, "{}", ev.disk);
            }
            let _ = write!(line, ",\"idx\":{}}}", ev.idx);
        }
        line.push(']');
        if let Some(cp) = critical_path {
            line.push_str(",\"critical_path\":");
            cp.render(&mut line);
        }
        line.push('}');
        self.postmortems.push(line);
    }

    /// Post-mortems emitted so far.
    pub fn postmortems(&self) -> &[String] {
        &self.postmortems
    }

    /// Consume the recorder, yielding its post-mortem lines.
    pub fn take_postmortems(self) -> Vec<String> {
        self.postmortems
    }

    /// Events retained for `group` (oldest first) — test/debug helper.
    pub fn group_chain(&self, group: u32) -> Vec<FlightEvent> {
        self.chain(group).copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_is_chronological_and_bounded() {
        let mut fr = FlightRecorder::new(0, 2);
        for i in 0..(RING as u32 + 5) {
            fr.record(1, i as f64, kind::FAILURE, 100 + i, 0);
        }
        // Group 0 untouched.
        assert!(fr.group_chain(0).is_empty());
        let chain = fr.group_chain(1);
        assert_eq!(chain.len(), RING);
        // Oldest retained event is #5; newest is #16.
        assert_eq!(chain[0].t_secs, 5.0);
        assert_eq!(chain[RING - 1].t_secs, (RING + 4) as f64);
        assert!(chain.windows(2).all(|w| w[0].t_secs < w[1].t_secs));
    }

    #[test]
    fn postmortem_ends_with_fatal_event_and_counts_dropped() {
        let mut fr = FlightRecorder::new(7, 4);
        for i in 0..RING as u32 {
            fr.record(2, i as f64, kind::REBUILD_DONE, i, 1);
        }
        fr.record(2, 99.0, kind::FAILURE, 42, 3);
        fr.postmortem(2, 99.0, "disk_failure", None);

        let pm = &fr.postmortems()[0];
        assert!(
            pm.starts_with("{\"trial\":7,\"group\":2,\"t_secs\":99,"),
            "{pm}"
        );
        assert!(pm.contains("\"cause\":\"disk_failure\""), "{pm}");
        assert!(pm.contains("\"dropped\":1"), "{pm}");
        // The chain's last entry is the fatal failure itself.
        assert!(
            pm.ends_with("{\"t_secs\":99,\"ev\":\"failure\",\"disk\":42,\"idx\":3}]}"),
            "{pm}"
        );
    }

    #[test]
    fn critical_path_is_appended_after_the_chain() {
        let mut fr = FlightRecorder::new(3, 1);
        fr.record(0, 10.0, kind::FAILURE, 5, 0);
        let cp = CriticalPath {
            window_secs: 100.0,
            detect_secs: 30.0,
            queue_secs: 10.0,
            transfer_secs: 60.0,
        };
        fr.postmortem(0, 10.0, "disk_failure", Some(&cp));
        let pm = &fr.postmortems()[0];
        assert!(
            pm.ends_with(
                ",\"critical_path\":{\"window_secs\":100,\"detect_secs\":30,\
                 \"queue_secs\":10,\"transfer_secs\":60,\"dominant\":\"transfer\"}}"
            ),
            "{pm}"
        );
        // The chain itself is untouched.
        assert!(pm.contains("\"chain\":[{"), "{pm}");
    }

    #[test]
    fn no_disk_renders_as_null() {
        let mut fr = FlightRecorder::new(0, 1);
        fr.record(0, 1.5, kind::NO_TARGET, NO_DISK, 2);
        fr.postmortem(0, 1.5, "disk_failure", None);
        assert!(
            fr.postmortems()[0].contains("\"ev\":\"no_target\",\"disk\":null,\"idx\":2"),
            "{}",
            fr.postmortems()[0]
        );
    }
}
