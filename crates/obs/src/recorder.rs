//! The trial event stream: one typed record per simulator state
//! transition, and the recorder that fans it out.
//!
//! Every handler in the simulator reports each transition of a block's
//! causal chain (§2.3, Figure 2) — failure, detection, rebuild start,
//! rebuild or loss — exactly once, as a [`TrialEvent`]. The per-trial
//! [`TrialRecorder`] owns the three consumers of that stream (the
//! JSONL tracer, the flight recorder and the span recorder) and decides
//! which of them sees each event and how each one renders it, so the
//! handlers carry one hook per transition instead of one per consumer.

use crate::flight::{kind, FlightRecorder, NO_DISK};
use crate::spans::SpanRecorder;
use crate::trace::TrialTracer;

/// Why a redundancy group lost data.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LossCause {
    /// A disk failure left fewer than `m` available blocks.
    DiskFailure,
    /// Latent sector errors on the rebuild sources left too little clean
    /// redundancy to reconstruct.
    LatentReadError,
}

impl LossCause {
    /// The post-mortem `cause` string.
    pub fn as_str(self) -> &'static str {
        match self {
            LossCause::DiskFailure => "disk_failure",
            LossCause::LatentReadError => "latent_read_error",
        }
    }
}

/// The block an event is about: its group, its index within the group,
/// and its raw id (unique within the trial).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TrialBlock {
    pub group: u32,
    pub idx: u8,
    pub id: u32,
}

/// One state transition of a trial.
#[derive(Clone, Copy, Debug)]
pub enum TrialEvent<'a> {
    /// A drive died.
    DiskFailed { disk: u32 },
    /// A drive failure made an available block unavailable.
    BlockFailed { b: TrialBlock, disk: u32 },
    /// A drive failure hit the target of an in-flight rebuild, which is
    /// invalidated and waits for the next detection (recovery
    /// redirection).
    Redirect { b: TrialBlock, disk: u32 },
    /// A drive failure was detected and `rebuilds` rebuilds start.
    Detect { disk: u32, rebuilds: usize },
    /// No eligible recovery target exists for the block.
    NoTarget { b: TrialBlock },
    /// A rebuild source read tripped a latent sector error.
    LatentTrip { b: TrialBlock, source: u32 },
    /// A rebuild was scheduled on `target`, reading from `sources`: it
    /// waits `wait` seconds, then transfers from `start` for `duration`
    /// seconds.
    RebuildStart {
        b: TrialBlock,
        target: u32,
        wait: f64,
        start: f64,
        duration: f64,
        sources: &'a [u32],
    },
    /// A rebuild completed onto `home`; `window` is the block's closed
    /// window of vulnerability, when one was open.
    RebuildDone {
        b: TrialBlock,
        home: u32,
        window: Option<f64>,
    },
    /// The group dropped below `m` available blocks. Emitted after the
    /// fatal event, so post-mortem chains end with it.
    Loss { group: u32, cause: LossCause },
}

/// The per-trial consumers of the event stream. A consumer that is
/// `None` is off for this trial.
#[derive(Debug)]
pub struct TrialRecorder {
    block_bytes: u64,
    /// JSONL trace of the trial (`FARM_TRACE`).
    pub trace: Option<TrialTracer>,
    /// Per-group rings and data-loss post-mortems (`FARM_POSTMORTEM`).
    pub flight: Option<FlightRecorder>,
    /// Recovery-lifecycle spans (`FARM_SPANS`).
    pub spans: Option<SpanRecorder>,
}

impl TrialRecorder {
    /// A recorder over the given consumers for a trial whose blocks are
    /// `block_bytes` long; `None` when every consumer is off, so the
    /// simulation keeps its recorder-off path.
    pub fn new(
        block_bytes: u64,
        trace: Option<TrialTracer>,
        flight: Option<FlightRecorder>,
        spans: Option<SpanRecorder>,
    ) -> Option<TrialRecorder> {
        (trace.is_some() || flight.is_some() || spans.is_some()).then_some(TrialRecorder {
            block_bytes,
            trace,
            flight,
            spans,
        })
    }

    /// Hand one event at simulated time `t` (seconds) to every consumer
    /// that observes it.
    pub fn record(&mut self, t: f64, ev: &TrialEvent<'_>) {
        match *ev {
            TrialEvent::DiskFailed { disk } => {
                self.trace(t, "failure", format_args!(",\"disk\":{disk}"));
            }
            TrialEvent::BlockFailed { b, disk } => {
                self.flight(b, t, kind::FAILURE, disk);
                if let Some(s) = &mut self.spans {
                    s.on_fail(b.group, b.id, disk, t);
                }
            }
            TrialEvent::Redirect { b, disk } => {
                self.flight(b, t, kind::REDIRECT, disk);
                if let Some(s) = &mut self.spans {
                    s.on_redirect(b.id, t);
                }
                self.trace_block(t, "redirect", b);
            }
            TrialEvent::Detect { disk, rebuilds } => {
                self.trace(
                    t,
                    "detect",
                    format_args!(",\"disk\":{disk},\"rebuilds\":{rebuilds}"),
                );
            }
            TrialEvent::NoTarget { b } => {
                self.flight(b, t, kind::NO_TARGET, NO_DISK);
                if let Some(s) = &mut self.spans {
                    s.on_no_target(b.id, t);
                }
                self.trace_block(t, "no_target", b);
            }
            TrialEvent::LatentTrip { b, source } => self.flight(b, t, kind::LATENT, source),
            TrialEvent::RebuildStart {
                b,
                target,
                wait,
                start,
                duration,
                sources,
            } => {
                self.flight(b, t, kind::REBUILD_START, target);
                let TrialBlock { group, idx, .. } = b;
                self.trace(
                    t,
                    "rebuild_start",
                    format_args!(
                        ",\"group\":{group},\"idx\":{idx},\"target\":{target},\"wait\":{wait:.3}"
                    ),
                );
                if let Some(s) = &mut self.spans {
                    s.on_schedule(b.id, t, start, duration, target, sources, self.block_bytes);
                }
            }
            TrialEvent::RebuildDone { b, home, window } => {
                if let Some(s) = &mut self.spans {
                    s.on_done(b.id, t, self.block_bytes);
                }
                self.flight(b, t, kind::REBUILD_DONE, home);
                if let Some(w) = window {
                    let TrialBlock { group, idx, .. } = b;
                    self.trace(
                        t,
                        "rebuild_done",
                        format_args!(",\"group\":{group},\"idx\":{idx},\"window\":{w:.3}"),
                    );
                }
            }
            TrialEvent::Loss { group, cause } => {
                // Spans first: closing the dying group's spans yields the
                // critical path the post-mortem attaches.
                let cp = self
                    .spans
                    .as_mut()
                    .and_then(|s| s.on_group_loss(group, t, cause == LossCause::LatentReadError));
                if let Some(f) = &mut self.flight {
                    f.postmortem(group, t, cause.as_str(), cp.as_ref());
                }
                self.trace(t, "loss", format_args!(",\"group\":{group}"));
            }
        }
    }

    /// End of trial at `t`: close every still-open span as `truncated`.
    pub fn finish(&mut self, t: f64) {
        if let Some(s) = &mut self.spans {
            s.finalize(t);
        }
    }

    fn flight(&mut self, b: TrialBlock, t: f64, kind: u8, disk: u32) {
        if let Some(f) = &mut self.flight {
            f.record(b.group, t, kind, disk, b.idx);
        }
    }

    fn trace(&mut self, t: f64, ev: &str, extra: std::fmt::Arguments<'_>) {
        if let Some(tr) = &mut self.trace {
            tr.emit(t, ev, extra);
        }
    }

    /// A trace record carrying just the block's group and index.
    fn trace_block(&mut self, t: f64, ev: &str, b: TrialBlock) {
        let TrialBlock { group, idx, .. } = b;
        self.trace(t, ev, format_args!(",\"group\":{group},\"idx\":{idx}"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_transition_reaches_its_consumers() {
        let (trace, flight) = (TrialTracer::new(4), FlightRecorder::new(4, 2));
        let mut r =
            TrialRecorder::new(64, Some(trace), Some(flight), Some(SpanRecorder::new())).unwrap();
        let b = TrialBlock {
            group: 1,
            idx: 2,
            id: 9,
        };
        let rebuild_start = TrialEvent::RebuildStart {
            b,
            target: 6,
            wait: 0.25,
            start: 3.25,
            duration: 10.0,
            sources: &[4],
        };
        let evs = [
            TrialEvent::DiskFailed { disk: 3 },
            TrialEvent::BlockFailed { b, disk: 3 },
            TrialEvent::Detect {
                disk: 3,
                rebuilds: 1,
            },
            rebuild_start,
            TrialEvent::Redirect { b, disk: 6 },
            TrialEvent::NoTarget { b },
            rebuild_start,
            TrialEvent::RebuildDone {
                b,
                home: 6,
                window: Some(40.25),
            },
        ];
        for (i, ev) in evs.iter().enumerate() {
            r.record(i as f64, ev);
        }
        let trace = String::from_utf8(r.trace.as_mut().unwrap().take_buffer()).unwrap();
        let events: Vec<&str> = trace
            .lines()
            .map(|l| l.split("\"ev\":\"").nth(1).unwrap())
            .collect();
        assert_eq!(
            events,
            [
                "failure\",\"disk\":3}",
                "detect\",\"disk\":3,\"rebuilds\":1}",
                "rebuild_start\",\"group\":1,\"idx\":2,\"target\":6,\"wait\":0.250}",
                "redirect\",\"group\":1,\"idx\":2}",
                "no_target\",\"group\":1,\"idx\":2}",
                "rebuild_start\",\"group\":1,\"idx\":2,\"target\":6,\"wait\":0.250}",
                "rebuild_done\",\"group\":1,\"idx\":2,\"window\":40.250}",
            ]
        );
        let chain = r.flight.as_ref().unwrap().group_chain(1);
        let kinds: Vec<&str> = chain.iter().map(|e| kind::NAMES[e.kind as usize]).collect();
        assert_eq!(
            kinds,
            [
                "failure",
                "rebuild_start",
                "redirect",
                "no_target",
                "rebuild_start",
                "rebuild_done"
            ]
        );
        let span = &r.spans.as_mut().unwrap().take().spans[0];
        assert_eq!(
            (span.outcome, span.bytes, span.redirects, span.no_target),
            ("rebuilt", 64, 1, 1)
        );
    }
}
