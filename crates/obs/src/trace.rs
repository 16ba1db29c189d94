//! Structured trial tracing: one sampled Monte-Carlo trial emits a
//! JSONL record per simulator action (failure, detection, redirection,
//! rebuild start/finish, loss), replacing printf-debugging of the event
//! loop with a machine-readable narrative.
//!
//! Records are one JSON object per line, always carrying `trial`, `t`
//! (simulated seconds) and `ev`; event-specific fields follow (rendered
//! from the trial event stream by [`crate::recorder::TrialRecorder`]).
//! The buffer is owned by the trial being traced, so untraced trials
//! pay nothing.
//!
//! Two selection modes: `FARM_TRACE=7` traces the one trial you name in
//! every batch; `FARM_TRACE=loss` traces *every* trial into memory and
//! keeps only the trials that actually lose data — no guessing a trial
//! index up front when hunting a loss. Either way the batch appends its
//! selected traces, in trial order, to the output.

use std::fmt;
use std::io::Write;

/// Which trials to trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceSel {
    /// Trace exactly this trial index.
    Trial(u64),
    /// Trace every trial into memory; keep only trials that lose data.
    Loss,
}

impl TraceSel {
    /// Is trial `trial` traced? (In loss mode every trial is, and the
    /// batch driver keeps only the losing ones.)
    pub fn selects(self, trial: u64) -> bool {
        match self {
            TraceSel::Trial(t) => t == trial,
            TraceSel::Loss => true,
        }
    }
}

impl Default for TraceSel {
    fn default() -> Self {
        TraceSel::Trial(0)
    }
}

/// Which trials to trace, and where the JSONL goes.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceSpec {
    /// Trial selection (an index, or all data-losing trials).
    pub sel: TraceSel,
    /// Output path; `None` = stderr.
    pub path: Option<String>,
}

impl TraceSpec {
    /// Parse a `FARM_TRACE` spec:
    ///
    /// * `""` or `"0"` — trace trial 0 to stderr,
    /// * `"7"` — trace trial 7 to stderr,
    /// * `"7:out.jsonl"` — trace trial 7 to `out.jsonl`,
    /// * `"loss"` — trace only data-losing trials, to stderr,
    /// * `"loss:out.jsonl"` — data-losing trials to `out.jsonl`,
    /// * `"out.jsonl"` — trace trial 0 to `out.jsonl`.
    pub fn parse(s: &str) -> Result<TraceSpec, String> {
        let s = s.trim();
        if s.is_empty() {
            return Ok(TraceSpec::default());
        }
        if let Some((sel, path)) = s.split_once(':') {
            if path.is_empty() {
                return Err("empty output path after ':'".into());
            }
            let sel = parse_sel(sel)?;
            return Ok(TraceSpec {
                sel,
                path: Some(path.to_string()),
            });
        }
        if s == "loss" {
            return Ok(TraceSpec {
                sel: TraceSel::Loss,
                path: None,
            });
        }
        match s.parse::<u64>() {
            Ok(trial) => Ok(TraceSpec {
                sel: TraceSel::Trial(trial),
                path: None,
            }),
            Err(_) => Ok(TraceSpec {
                sel: TraceSel::default(),
                path: Some(s.to_string()),
            }),
        }
    }
}

fn parse_sel(s: &str) -> Result<TraceSel, String> {
    if s == "loss" {
        return Ok(TraceSel::Loss);
    }
    s.parse::<u64>()
        .map(TraceSel::Trial)
        .map_err(|e| format!("trial selector {s:?} (want an index or \"loss\"): {e}"))
}

/// One trial's trace, rendered into memory as JSONL. The batch driver
/// takes the bytes after the trial and writes the selected trials'
/// traces in trial order, through the same append-per-batch file rule
/// as every other artifact ([`crate::sink::open_batch_file`]).
#[derive(Debug)]
pub struct TrialTracer {
    trial: u64,
    buf: Vec<u8>,
}

impl TrialTracer {
    /// An empty trace of trial `trial`.
    pub fn new(trial: u64) -> TrialTracer {
        TrialTracer {
            trial,
            buf: Vec::new(),
        }
    }

    /// Emit one record. `extra` is a pre-formatted JSON fragment of
    /// event-specific fields, either empty or starting with a comma
    /// (e.g. `,"disk":17`).
    pub fn emit(&mut self, t_secs: f64, ev: &str, extra: fmt::Arguments<'_>) {
        // Writing into a Vec cannot fail.
        let _ = writeln!(
            self.buf,
            "{{\"trial\":{},\"t\":{:.3},\"ev\":\"{}\"{}}}",
            self.trial, t_secs, ev, extra
        );
    }

    /// Take the accumulated JSONL bytes, leaving the trace empty.
    pub fn take_buffer(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_parsing_forms() {
        assert_eq!(TraceSpec::parse("").unwrap(), TraceSpec::default());
        assert_eq!(
            TraceSpec::parse("7").unwrap(),
            TraceSpec {
                sel: TraceSel::Trial(7),
                path: None
            }
        );
        assert_eq!(
            TraceSpec::parse("3:t.jsonl").unwrap(),
            TraceSpec {
                sel: TraceSel::Trial(3),
                path: Some("t.jsonl".into())
            }
        );
        assert_eq!(
            TraceSpec::parse("t.jsonl").unwrap(),
            TraceSpec {
                sel: TraceSel::Trial(0),
                path: Some("t.jsonl".into())
            }
        );
        assert_eq!(
            TraceSpec::parse("loss").unwrap(),
            TraceSpec {
                sel: TraceSel::Loss,
                path: None
            }
        );
        assert_eq!(
            TraceSpec::parse("loss:losses.jsonl").unwrap(),
            TraceSpec {
                sel: TraceSel::Loss,
                path: Some("losses.jsonl".into())
            }
        );
        assert!(TraceSpec::parse("x:").is_err());
        assert!(TraceSpec::parse("nope:file").is_err());
    }

    #[test]
    fn records_are_one_json_object_per_line() {
        let mut t = TrialTracer::new(5);
        t.emit(0.0, "failure", format_args!(",\"disk\":17"));
        t.emit(30.0, "detect", format_args!(",\"disk\":17,\"blocks\":3"));
        t.emit(94.5, "rebuild_done", format_args!(""));
        let body = String::from_utf8(t.take_buffer()).unwrap();
        let lines: Vec<&str> = body.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(
            lines[0],
            "{\"trial\":5,\"t\":0.000,\"ev\":\"failure\",\"disk\":17}"
        );
        assert_eq!(
            lines[2],
            "{\"trial\":5,\"t\":94.500,\"ev\":\"rebuild_done\"}"
        );
        for l in lines {
            assert!(l.starts_with('{') && l.ends_with('}'));
        }
    }

    #[test]
    fn buffered_tracer_accumulates_and_yields_bytes() {
        let mut t = TrialTracer::new(9);
        t.emit(1.0, "failure", format_args!(",\"disk\":3"));
        t.emit(2.0, "loss", format_args!(""));
        let body = String::from_utf8(t.take_buffer()).unwrap();
        assert_eq!(
            body,
            "{\"trial\":9,\"t\":1.000,\"ev\":\"failure\",\"disk\":3}\n\
             {\"trial\":9,\"t\":2.000,\"ev\":\"loss\"}\n"
        );
        // Taking leaves the buffer empty.
        assert!(t.take_buffer().is_empty());
    }
}
