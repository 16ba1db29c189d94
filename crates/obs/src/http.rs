//! Std-only HTTP exporter: `/metrics` (Prometheus/OpenMetrics text
//! exposition) and `/status` (the same JSON as the status file), served
//! from one `TcpListener` thread by `serve`. Both monitors use it: the
//! campaign monitor (`FARM_HTTP=addr`) and the fleet coordinator
//! (`fleet --http addr`), each passing a route that renders its own
//! pages.
//!
//! This is a scrape endpoint, not a web server: requests are handled
//! sequentially on the listener thread, each response closes the
//! connection, and reads carry a short timeout so a stuck client cannot
//! wedge the exporter. Rendering reads the sharded registry on *this*
//! thread — workers are never stalled by a scrape.
//!
//! Exposition rules (validated by `scripts/check_telemetry.py metrics`):
//! cumulative series end in `_total` and only ever grow; per-batch
//! series carry `batch` and `config` labels; the per-trial wall-time
//! distribution is exported as a Prometheus `summary` (quantiles +
//! `_sum`/`_count`).

use crate::registry::MonitorCore;
use crate::{diag, rss};
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::Duration;

/// Escape a Prometheus label value (`\`, `"`, newline).
fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Render the `/metrics` exposition for the current instant.
pub(crate) fn render_metrics(core: &MonitorCore) -> String {
    let mut out = String::with_capacity(2048);
    let batches = core.batches();

    let _ = writeln!(
        out,
        "# HELP farm_campaign_elapsed_seconds Wall seconds since the campaign monitor started.\n\
         # TYPE farm_campaign_elapsed_seconds gauge\n\
         farm_campaign_elapsed_seconds {:.3}",
        core.elapsed_secs()
    );
    let _ = writeln!(
        out,
        "# HELP farm_batches Monte-Carlo batches begun by this process.\n\
         # TYPE farm_batches gauge\n\
         farm_batches {}",
        batches.len()
    );
    if let Some(rss) = rss::peak_rss_bytes() {
        let _ = writeln!(
            out,
            "# HELP farm_peak_rss_bytes Peak resident set size of the process.\n\
             # TYPE farm_peak_rss_bytes gauge\n\
             farm_peak_rss_bytes {rss}"
        );
    }

    // Pre-render each batch's label set once; series grouped by metric
    // name as the exposition format requires.
    let labels: Vec<String> = batches
        .iter()
        .map(|b| {
            format!(
                "batch=\"{}\",config=\"{}\"",
                b.index,
                escape_label(&b.label)
            )
        })
        .collect();
    let totals: Vec<_> = batches.iter().map(|b| b.totals()).collect();

    let mut counter = |name: &str, help: &str, values: &dyn Fn(usize) -> u64| {
        let _ = writeln!(out, "# HELP {name} {help}\n# TYPE {name} counter");
        for (i, l) in labels.iter().enumerate() {
            let _ = writeln!(out, "{name}{{{l}}} {}", values(i));
        }
    };
    counter("farm_trials_total", "Trials completed per batch.", &|i| {
        totals[i].trials
    });
    counter(
        "farm_losses_total",
        "Trials that lost data, per batch.",
        &|i| totals[i].losses,
    );
    counter(
        "farm_events_total",
        "Discrete events processed per batch.",
        &|i| totals[i].events,
    );

    let _ = writeln!(
        out,
        "# HELP farm_trials_expected Trials requested per batch.\n\
         # TYPE farm_trials_expected gauge"
    );
    for (b, l) in batches.iter().zip(&labels) {
        let _ = writeln!(out, "farm_trials_expected{{{l}}} {}", b.total);
    }
    let _ = writeln!(
        out,
        "# HELP farm_batch_done 1 once the batch's driver finished it.\n\
         # TYPE farm_batch_done gauge"
    );
    for (b, l) in batches.iter().zip(&labels) {
        let _ = writeln!(out, "farm_batch_done{{{l}}} {}", b.is_finished() as u32);
    }

    // The online loss estimate and its Wilson 95 % interval.
    for (name, help, pick) in [
        (
            "farm_p_loss",
            "Online data-loss probability estimate (losses / trials).",
            0usize,
        ),
        (
            "farm_p_loss_wilson95_lo",
            "Wilson score 95% interval, lower bound.",
            1,
        ),
        (
            "farm_p_loss_wilson95_hi",
            "Wilson score 95% interval, upper bound.",
            2,
        ),
    ] {
        let _ = writeln!(out, "# HELP {name} {help}\n# TYPE {name} gauge");
        for (t, l) in totals.iter().zip(&labels) {
            let p = t.p_loss();
            let (lo, hi) = p.wilson95();
            let v = [p.value(), lo, hi][pick];
            let _ = writeln!(out, "{name}{{{l}}} {v}");
        }
    }

    // Convergence gauges (PR 7). The absolute half-width always exists;
    // the relative width and the anchor-drift pair are emitted only for
    // batches where they are informative (losses seen; config admits an
    // analytic chain) — absent samples, not NaN, per exposition rules.
    let _ = writeln!(
        out,
        "# HELP farm_ci_half_width Wilson 95% half-width of the loss estimate.\n\
         # TYPE farm_ci_half_width gauge"
    );
    for (t, l) in totals.iter().zip(&labels) {
        let _ = writeln!(
            out,
            "farm_ci_half_width{{{l}}} {}",
            t.p_loss().wilson95_half_width()
        );
    }
    let _ = writeln!(
        out,
        "# HELP farm_rel_ci_half_width Relative Wilson 95% half-width (half-width / estimate); absent until a loss is observed.\n\
         # TYPE farm_rel_ci_half_width gauge"
    );
    for (t, l) in totals.iter().zip(&labels) {
        if let Some(rel) = t.p_loss().rel_half_width() {
            let _ = writeln!(out, "farm_rel_ci_half_width{{{l}}} {rel}");
        }
    }
    let _ = writeln!(
        out,
        "# HELP farm_anchor_p_loss Analytic Markov/MTTDL loss probability for the config; absent when no exact chain applies.\n\
         # TYPE farm_anchor_p_loss gauge"
    );
    for (b, l) in batches.iter().zip(&labels) {
        if let Some(a) = b.anchor_p_loss {
            let _ = writeln!(out, "farm_anchor_p_loss{{{l}}} {a}");
        }
    }
    let _ = writeln!(
        out,
        "# HELP farm_anchor_drift Signed relative drift of the estimate from the analytic anchor ((p - anchor) / anchor).\n\
         # TYPE farm_anchor_drift gauge"
    );
    for ((b, t), l) in batches.iter().zip(&totals).zip(&labels) {
        if let Some(a) = b.anchor_p_loss {
            if a > 0.0 {
                let _ = writeln!(
                    out,
                    "farm_anchor_drift{{{l}}} {}",
                    (t.p_loss().value() - a) / a
                );
            }
        }
    }

    let _ = writeln!(
        out,
        "# HELP farm_trial_wall_seconds Wall-clock seconds per finished trial.\n\
         # TYPE farm_trial_wall_seconds summary"
    );
    for (t, l) in totals.iter().zip(&labels) {
        let h = &t.trial_secs;
        if !h.is_empty() {
            for (q, v) in [(0.5, h.p50()), (0.9, h.p90()), (0.99, h.p99())] {
                let _ = writeln!(out, "farm_trial_wall_seconds{{{l},quantile=\"{q}\"}} {v}");
            }
        }
        let _ = writeln!(out, "farm_trial_wall_seconds_sum{{{l}}} {}", h.sum());
        let _ = writeln!(out, "farm_trial_wall_seconds_count{{{l}}} {}", h.count());
    }

    // Recovery-span phase summaries (simulated seconds), published per
    // batch by the Monte-Carlo driver once the batch summary is final.
    // Absent until then — never a hollow series.
    let phases: Vec<_> = batches.iter().map(|b| b.span_phases()).collect();
    for (phase, metric, help) in [
        (
            "detect",
            "farm_span_detect_seconds",
            "Detection lag per scheduled rebuild (simulated seconds).",
        ),
        (
            "queue",
            "farm_span_queue_seconds",
            "Queue wait behind busy recovery pipes per rebuild (simulated seconds).",
        ),
        (
            "transfer",
            "farm_span_transfer_seconds",
            "Bandwidth-limited transfer time per rebuild (simulated seconds).",
        ),
        (
            "repair",
            "farm_span_repair_seconds",
            "End-to-end repair window per completed rebuild (simulated seconds).",
        ),
    ] {
        if !phases.iter().any(|p| {
            p.as_ref()
                .is_some_and(|p| p.named().iter().any(|(n, h)| *n == phase && !h.is_empty()))
        }) {
            continue;
        }
        let _ = writeln!(out, "# HELP {metric} {help}\n# TYPE {metric} summary");
        for (p, l) in phases.iter().zip(&labels) {
            let Some(p) = p else { continue };
            let (_, h) = p.named()[match phase {
                "detect" => 0,
                "queue" => 1,
                "transfer" => 2,
                _ => 3,
            }];
            if h.is_empty() {
                continue;
            }
            for (q, v) in [(0.5, h.p50()), (0.9, h.p90()), (0.99, h.p99())] {
                let _ = writeln!(out, "{metric}{{{l},quantile=\"{q}\"}} {v}");
            }
            let _ = writeln!(out, "{metric}_sum{{{l}}} {}", h.sum());
            let _ = writeln!(out, "{metric}_count{{{l}}} {}", h.count());
        }
    }
    out
}

/// The two pages a monitor serves.
pub(crate) enum Page {
    /// `/metrics`: Prometheus text exposition.
    Metrics,
    /// `/status`: the monitor's JSON status document.
    Status,
}

/// Serve a monitor from one listener thread: bind `addr` (port 0 picks
/// a free port), answer `/metrics` and `/status` with what `route`
/// renders for that page, and 404 anything else. Returns the bound
/// address, which the monitor publishes in its `http_addr` field. A
/// bind or thread-spawn failure warns once and returns `None`: the
/// campaign runs on without the exporter, since monitoring must never
/// take it down.
pub(crate) fn serve(
    addr: &str,
    route: impl Fn(Page) -> String + Send + 'static,
) -> Option<SocketAddr> {
    let bound = TcpListener::bind(addr).and_then(|listener| {
        let bound = listener.local_addr()?;
        std::thread::Builder::new()
            .name("farm-http".into())
            .spawn(move || {
                for conn in listener.incoming() {
                    let Ok(stream) = conn else { continue };
                    // Best-effort: a broken scraper never kills the thread.
                    let _ = handle_conn(stream, &route);
                }
            })?;
        Ok(bound)
    });
    match bound {
        Ok(bound) => Some(bound),
        Err(e) => {
            diag::warn_once(
                "http-bind",
                &format!("cannot serve HTTP on {addr:?}: {e}; running without the exporter"),
            );
            None
        }
    }
}

fn handle_conn(stream: TcpStream, route: &impl Fn(Page) -> String) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;
    let mut reader = BufReader::new(stream);
    let mut request_line = String::new();
    reader.read_line(&mut request_line)?;
    // Drain the request headers so the client's send completes cleanly.
    let mut line = String::new();
    loop {
        line.clear();
        let n = reader.read_line(&mut line)?;
        if n == 0 || line == "\r\n" || line == "\n" {
            break;
        }
    }
    let path = request_line.split_whitespace().nth(1).unwrap_or("");
    let (code, content_type, body) = match path {
        "/metrics" => (
            "200 OK",
            "text/plain; version=0.0.4; charset=utf-8",
            route(Page::Metrics),
        ),
        "/status" => (
            "200 OK",
            "application/json; charset=utf-8",
            route(Page::Status),
        ),
        _ => (
            "404 Not Found",
            "text/plain; charset=utf-8",
            "not found; try /metrics or /status\n".to_string(),
        ),
    };
    let mut stream = reader.into_inner();
    write!(
        stream,
        "HTTP/1.1 {code}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::registry::CampaignMonitor;
    use std::io::Read;

    /// GET `path` from a test exporter; returns (head, body).
    pub(crate) fn scrape(addr: SocketAddr, path: &str) -> (String, String) {
        let mut s = TcpStream::connect(addr).expect("connect");
        write!(
            s,
            "GET {path} HTTP/1.1\r\nHost: farm\r\nConnection: close\r\n\r\n"
        )
        .unwrap();
        let mut body = String::new();
        s.read_to_string(&mut body).unwrap();
        let (head, payload) = body.split_once("\r\n\r\n").expect("header/body split");
        (head.to_string(), payload.to_string())
    }

    #[test]
    fn exporter_serves_metrics_status_and_404() {
        let mon = CampaignMonitor::new(None, Some("127.0.0.1:0"));
        let addr = mon.http_addr().expect("listener bound");
        let b = mon.begin_batch("unit \"quoted\" cfg".into(), 8);
        let shard = b.shard();
        shard.record_trial(true, 500, 0.01);
        shard.record_trial(false, 500, 0.01);

        let (head, body) = scrape(addr, "/metrics");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(head.contains("text/plain; version=0.0.4"), "{head}");
        assert!(body.contains("# TYPE farm_trials_total counter"), "{body}");
        assert!(
            body.contains("farm_trials_total{batch=\"0\",config=\"unit \\\"quoted\\\" cfg\"} 2"),
            "{body}"
        );
        assert!(body.contains("farm_losses_total{"), "{body}");
        assert!(body.contains("farm_p_loss_wilson95_hi{"), "{body}");
        assert!(body.contains("quantile=\"0.5\""), "{body}");
        assert!(body.contains("farm_trial_wall_seconds_count{"), "{body}");

        let (head, body) = scrape(addr, "/status");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(head.contains("application/json"), "{head}");
        assert!(body.contains("\"schema\":\"farm-status-v1\""), "{body}");
        assert!(
            body.contains(&format!("\"http_addr\":\"{addr}\"")),
            "{body}"
        );

        let (head, _) = scrape(addr, "/nope");
        assert!(head.starts_with("HTTP/1.1 404"), "{head}");
    }

    #[test]
    fn convergence_gauges_follow_informativeness() {
        let mon = CampaignMonitor::new(None, None);
        let anchored = mon.begin_batch_anchored("anchored".into(), 8, Some(0.25));
        let plain = mon.begin_batch("plain".into(), 8);
        anchored.shard().record_trial(true, 10, 0.01);
        anchored.shard().record_trial(false, 10, 0.01);
        plain.shard().record_trial(false, 10, 0.01);

        let body = mon.render_metrics();
        // Absolute half-width: always, for every batch.
        assert!(body.contains("farm_ci_half_width{batch=\"0\""), "{body}");
        assert!(body.contains("farm_ci_half_width{batch=\"1\""), "{body}");
        // Relative width: only where a loss has been seen.
        assert!(
            body.contains("farm_rel_ci_half_width{batch=\"0\""),
            "{body}"
        );
        assert!(
            !body.contains("farm_rel_ci_half_width{batch=\"1\""),
            "{body}"
        );
        // Anchor + drift: only where the config admits a chain. The
        // anchored batch sits at p = 0.5 vs anchor 0.25 → drift +1.
        assert!(body.contains("farm_anchor_p_loss{batch=\"0\",config=\"anchored\"} 0.25"));
        assert!(body.contains("farm_anchor_drift{batch=\"0\",config=\"anchored\"} 1"));
        assert!(!body.contains("farm_anchor_p_loss{batch=\"1\""), "{body}");
        // And the same fields appear on /status.
        let status = mon.render_status();
        assert!(status.contains("\"ci_half_width\":"), "{status}");
        assert!(status.contains("\"anchor_p_loss\":0.25"), "{status}");
        assert!(status.contains("\"anchor_p_loss\":null"), "{status}");
        assert!(status.contains("\"anchor_drift\":1"), "{status}");
    }

    #[test]
    fn label_escaping() {
        assert_eq!(escape_label(r#"a"b\c"#), r#"a\"b\\c"#);
        assert_eq!(escape_label("x\ny"), "x\\ny");
    }
}
