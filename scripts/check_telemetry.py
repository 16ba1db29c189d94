#!/usr/bin/env python3
"""Validate telemetry artifacts against the documented schema.

Usage:
    check_telemetry.py TIMELINE.csv POSTMORTEM.jsonl [--expect-loss]
    check_telemetry.py status STATUS.json
    check_telemetry.py fleet FLEET_STATUS.json [LATER_FLEET_STATUS.json]
    check_telemetry.py metrics METRICS.txt [LATER_METRICS.txt]
    check_telemetry.py convergence STREAM.jsonl [--expect-stop]
    check_telemetry.py spans SPANS.jsonl [--expect-loss]
    check_telemetry.py spans TRACE.json --chrome

The first form checks the timeline CSV and post-mortem JSONL produced
by `--timeline` and `FARM_POSTMORTEM` (schema: DESIGN.md section 11).
With `--expect-loss`, at least one post-mortem line must be present.

`status` validates a campaign status snapshot (`FARM_STATUS` /
`--status`, schema `farm-status-v1`, DESIGN.md section 13): required
keys, internal consistency (losses <= trials, p_loss == losses/trials,
Wilson interval brackets the estimate, campaign totals equal the batch
sums).

`fleet` validates a merged fleet coordinator snapshot (`farm-fleet` /
the `fleet` binary, schema `fleet-status-v1`, DESIGN.md section 18):
merged rollups equal to the per-worker sums, the pooled Wilson
interval bracketing the pooled p_loss, and — given a second, later
snapshot — per-worker counter monotonicity across scrapes (a worker
whose attempt count grew is skipped: a respawn restarts its range, so
its live counters legitimately reset).

`metrics` validates a `/metrics` scrape (`FARM_HTTP`): Prometheus text
exposition syntax (metric/label names, label escaping, HELP/TYPE
comments), counters named `*_total`, and — given a second, later
scrape — that every counter series is monotone non-decreasing.

`convergence` validates a convergence stream (`FARM_CONVERGENCE` /
`--convergence`, schema `farm-convergence-v1`, DESIGN.md section 15):
per-(batch, config) strictly-increasing trial counts with a thinning
decimation schedule, Wilson brackets, half-width consistency, losses
never informative-null, and exactly one final record per stream. With
`--expect-stop`, at least one stream must end at a stop-boundary
multiple (64 trials) with an informative rel_half_width — callers
request a batch total that is *not* a multiple of 64, so a boundary-
aligned final record proves the sequential stopping rule fired.

`spans` validates a recovery-span artifact (`FARM_SPANS` / `--spans`,
schemas `farm-spans-v1` + `farm-spans-bw-v1`, DESIGN.md section 16):
monotone phase timestamps, non-negative bytes and phase durations,
phase durations telescoping to the span window, exactly one terminal
outcome per span, and well-formed bandwidth-attribution rows. With
`--expect-loss`, at least one span must end in a loss outcome. With
`--chrome`, the file is instead validated as a Chrome trace-event
document (one JSON object with a `traceEvents` array of complete
events), the format Perfetto / chrome://tracing load.

Stdlib only; exits non-zero with a message on the first violation.
"""

import csv
import json
import re
import sys

GAUGES = [
    "failed_disks",
    "rebuilds_in_flight",
    "vulnerable_groups",
    "recovery_util",
    "spare_frac",
]
HEADER = ["batch", "sample", "t_secs", "gauge", "trials", "mean", "p10", "p90", "min", "max"]
CAUSE_TO_FATAL_EV = {"disk_failure": "failure", "latent_read_error": "latent"}
CHAIN_EVS = {"failure", "rebuild_start", "rebuild_done", "redirect", "no_target", "latent"}


def fail(msg):
    print(f"check_telemetry: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_timeline(path):
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    if not rows:
        fail(f"{path}: empty timeline")
    if rows[0] != HEADER:
        fail(f"{path}: bad header {rows[0]!r}")

    # Per batch: contiguous 1-based samples, all gauges in order per
    # sample, monotone t_secs, ordered bands.
    per_batch = {}
    for n, row in enumerate(rows[1:], start=2):
        if len(row) != len(HEADER):
            fail(f"{path}:{n}: expected {len(HEADER)} fields, got {len(row)}")
        batch, sample, gauge, trials = row[0], int(row[1]), row[3], int(row[4])
        t, mean, p10, p90 = (float(row[i]) for i in (2, 5, 6, 7))
        lo, hi = float(row[8]), float(row[9])
        if gauge not in GAUGES:
            fail(f"{path}:{n}: unknown gauge {gauge!r}")
        if trials < 1:
            fail(f"{path}:{n}: no trials pooled")
        if not (lo <= p10 <= p90 <= hi):
            fail(f"{path}:{n}: bands out of order min={lo} p10={p10} p90={p90} max={hi}")
        if not (0.0 <= mean <= hi):
            fail(f"{path}:{n}: mean {mean} outside [0, max={hi}]")
        seq = per_batch.setdefault(batch, [])
        expect_sample = len(seq) // len(GAUGES) + 1
        expect_gauge = GAUGES[len(seq) % len(GAUGES)]
        if sample != expect_sample or gauge != expect_gauge:
            fail(f"{path}:{n}: expected sample {expect_sample}/{expect_gauge}, "
                 f"got {sample}/{gauge}")
        if seq and sample > seq[-1][0] and t <= seq[-1][1]:
            fail(f"{path}:{n}: t_secs not increasing across samples")
        seq.append((sample, t))
    for batch, seq in per_batch.items():
        if len(seq) % len(GAUGES) != 0:
            fail(f"{path}: batch {batch} ends mid-sample ({len(seq)} rows)")
    n_rows = len(rows) - 1
    print(f"check_telemetry: {path}: {n_rows} rows, "
          f"{len(per_batch)} batch(es), all gauges present")


def check_postmortems(path, expect_loss):
    with open(path) as f:
        lines = [l for l in f.read().splitlines() if l]
    if expect_loss and not lines:
        fail(f"{path}: expected at least one post-mortem")
    for n, line in enumerate(lines, start=1):
        try:
            pm = json.loads(line)
        except json.JSONDecodeError as e:
            fail(f"{path}:{n}: invalid JSON: {e}")
        for key in ("trial", "group", "t_secs", "cause", "dropped", "chain"):
            if key not in pm:
                fail(f"{path}:{n}: missing key {key!r}")
        if pm["cause"] not in CAUSE_TO_FATAL_EV:
            fail(f"{path}:{n}: unknown cause {pm['cause']!r}")
        chain = pm["chain"]
        if not chain:
            fail(f"{path}:{n}: empty causal chain")
        for ev in chain:
            if ev["ev"] not in CHAIN_EVS:
                fail(f"{path}:{n}: unknown chain event {ev['ev']!r}")
            if ev["t_secs"] > pm["t_secs"]:
                fail(f"{path}:{n}: chain event after the loss instant")
        ts = [ev["t_secs"] for ev in chain]
        if ts != sorted(ts):
            fail(f"{path}:{n}: chain is not chronological")
        # The chain must end in the exact event that dropped the group
        # below m.
        fatal = CAUSE_TO_FATAL_EV[pm["cause"]]
        if chain[-1]["ev"] != fatal:
            fail(f"{path}:{n}: cause {pm['cause']!r} but chain ends in "
                 f"{chain[-1]['ev']!r} (want {fatal!r})")
    print(f"check_telemetry: {path}: {len(lines)} post-mortem(s), "
          f"chains chronological and cause-consistent")


def _num_or_null(doc, key, where):
    v = doc.get(key)
    if v is not None and not isinstance(v, (int, float)):
        fail(f"{where}: {key} must be a number or null, got {v!r}")
    return v


STATUS_BATCH_KEYS = [
    "batch", "config", "done", "trials_done", "trials_total", "losses",
    "events", "trials_per_sec", "eta_secs", "p_loss", "wilson95_lo",
    "wilson95_hi", "ci_half_width", "rel_half_width", "anchor_p_loss",
    "anchor_drift", "trial_secs_p50", "trial_secs_p99",
]


def check_status(path):
    with open(path) as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as e:
            fail(f"{path}: invalid JSON: {e}")
    if doc.get("schema") != "farm-status-v1":
        fail(f"{path}: schema {doc.get('schema')!r}, want 'farm-status-v1'")
    for key in ("pid", "seq", "trials_done", "trials_total", "losses", "events"):
        if not isinstance(doc.get(key), int):
            fail(f"{path}: {key} must be an integer, got {doc.get(key)!r}")
    if not isinstance(doc.get("elapsed_secs"), (int, float)) or doc["elapsed_secs"] < 0:
        fail(f"{path}: bad elapsed_secs {doc.get('elapsed_secs')!r}")
    addr = doc.get("http_addr")
    if addr is not None and not isinstance(addr, str):
        fail(f"{path}: http_addr must be a string or null, got {addr!r}")
    rss = doc.get("peak_rss_bytes")
    if rss is not None and (not isinstance(rss, int) or rss <= 0):
        fail(f"{path}: peak_rss_bytes must be a positive integer or null "
             f"(never a fake 0), got {rss!r}")
    _num_or_null(doc, "events_per_sec", path)

    batches = doc.get("batches")
    if not isinstance(batches, list):
        fail(f"{path}: batches must be an array")
    sums = {"trials_done": 0, "trials_total": 0, "losses": 0, "events": 0}
    for i, b in enumerate(batches):
        where = f"{path}: batches[{i}]"
        for key in STATUS_BATCH_KEYS:
            if key not in b:
                fail(f"{where}: missing key {key!r}")
        if not isinstance(b["config"], str) or not b["config"]:
            fail(f"{where}: config must be a non-empty string")
        if not isinstance(b["done"], bool):
            fail(f"{where}: done must be a boolean")
        done, total, losses = b["trials_done"], b["trials_total"], b["losses"]
        if not (0 <= losses <= done <= total):
            fail(f"{where}: want 0 <= losses <= trials_done <= trials_total, "
                 f"got {losses}/{done}/{total}")
        if b["done"] and done != total:
            fail(f"{where}: done but only {done}/{total} trials")
        for key in ("trials_per_sec", "eta_secs", "trial_secs_p50",
                    "trial_secs_p99", "ci_half_width", "rel_half_width",
                    "anchor_p_loss", "anchor_drift"):
            _num_or_null(b, key, where)
        if losses == 0 and b["rel_half_width"] is not None:
            fail(f"{where}: rel_half_width must be null at zero losses")
        p = b["p_loss"]
        if done == 0:
            if p != 0:
                fail(f"{where}: p_loss {p} with no trials")
        elif p != losses / done:
            fail(f"{where}: p_loss {p} != losses/trials = {losses / done}")
        lo, hi = b["wilson95_lo"], b["wilson95_hi"]
        if not (0.0 <= lo <= p <= hi <= 1.0):
            fail(f"{where}: Wilson interval [{lo}, {hi}] does not bracket "
                 f"p_loss {p} inside [0, 1]")
    for key in sums:
        sums[key] = sum(b[key] for b in batches)
    for key, want in sums.items():
        if doc[key] != want:
            fail(f"{path}: campaign {key} {doc[key]} != batch sum {want}")
    print(f"check_telemetry: {path}: seq {doc['seq']}, {len(batches)} "
          f"batch(es), totals consistent")


FLEET_WORKER_KEYS = [
    "worker", "pid", "range_lo", "range_hi", "alive", "done", "attempts",
    "trials_done", "losses", "events", "trials_per_sec",
]


def _load_fleet(path):
    with open(path) as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as e:
            fail(f"{path}: invalid JSON: {e}")
    if doc.get("schema") != "fleet-status-v1":
        fail(f"{path}: schema {doc.get('schema')!r}, want 'fleet-status-v1'")
    return doc


def check_fleet(path, later=None):
    """Validate a fleet-status-v1 snapshot (schema: DESIGN.md sec 18).

    Checks the merged rollups against the per-worker rows (merged
    trials == sum of worker trials, likewise losses/events), the
    pooled Wilson interval bracketing the pooled p_loss, and — given a
    second, later snapshot — per-worker counter monotonicity (skipped
    for a worker whose attempt count grew: a respawned worker restarts
    its range from scratch, so its live counters legitimately reset).
    """
    doc = _load_fleet(path)
    for key in ("pid", "seq", "trials_total", "trials_done", "losses",
                "events", "workers_total", "workers_up"):
        if not isinstance(doc.get(key), int):
            fail(f"{path}: {key} must be an integer, got {doc.get(key)!r}")
    if not isinstance(doc.get("elapsed_secs"), (int, float)) or doc["elapsed_secs"] < 0:
        fail(f"{path}: bad elapsed_secs {doc.get('elapsed_secs')!r}")
    addr = doc.get("http_addr")
    if addr is not None and not isinstance(addr, str):
        fail(f"{path}: http_addr must be a string or null, got {addr!r}")
    _num_or_null(doc, "trials_per_sec", path)
    _num_or_null(doc, "eta_secs", path)

    pooled = doc.get("pooled")
    if not isinstance(pooled, dict):
        fail(f"{path}: pooled must be an object")
    for key in ("p_loss", "wilson95_lo", "wilson95_hi"):
        if not isinstance(pooled.get(key), (int, float)):
            fail(f"{path}: pooled.{key} must be a number, got {pooled.get(key)!r}")
    p, lo, hi = pooled["p_loss"], pooled["wilson95_lo"], pooled["wilson95_hi"]
    if not (0.0 <= lo <= p <= hi <= 1.0):
        fail(f"{path}: pooled Wilson interval [{lo}, {hi}] does not bracket "
             f"p_loss {p} inside [0, 1]")
    done, losses = doc["trials_done"], doc["losses"]
    want_p = 0 if done == 0 else min(losses, done) / done
    if p != want_p:
        fail(f"{path}: pooled p_loss {p} != losses/trials = {want_p}")

    workers = doc.get("workers")
    if not isinstance(workers, list):
        fail(f"{path}: workers must be an array")
    if len(workers) != doc["workers_total"]:
        fail(f"{path}: workers_total {doc['workers_total']} != "
             f"{len(workers)} worker rows")
    sums = {"trials_done": 0, "losses": 0, "events": 0}
    up = 0
    for i, w in enumerate(workers):
        where = f"{path}: workers[{i}]"
        for key in FLEET_WORKER_KEYS:
            if key not in w:
                fail(f"{where}: missing key {key!r}")
        if w["worker"] != i:
            fail(f"{where}: worker index {w['worker']}, want {i}")
        for key in ("range_lo", "range_hi", "attempts", "trials_done",
                    "losses", "events"):
            if not isinstance(w[key], int) or w[key] < 0:
                fail(f"{where}: {key} must be a non-negative integer, "
                     f"got {w[key]!r}")
        for key in ("alive", "done"):
            if not isinstance(w[key], bool):
                fail(f"{where}: {key} must be a boolean")
        if w["pid"] is not None and not isinstance(w["pid"], int):
            fail(f"{where}: pid must be an integer or null")
        _num_or_null(w, "trials_per_sec", where)
        span = w["range_hi"] - w["range_lo"]
        if span < 0:
            fail(f"{where}: range [{w['range_lo']}, {w['range_hi']}) inverted")
        if not (w["losses"] <= w["trials_done"] <= span):
            fail(f"{where}: want losses <= trials_done <= range span, got "
                 f"{w['losses']}/{w['trials_done']}/{span}")
        if w["done"]:
            if w["alive"]:
                fail(f"{where}: done worker still alive")
            if w["trials_done"] != span:
                fail(f"{where}: done but {w['trials_done']}/{span} trials")
        up += w["alive"]
        for key in sums:
            sums[key] += w[key]
    if up != doc["workers_up"]:
        fail(f"{path}: workers_up {doc['workers_up']} != {up} alive rows")
    for key, want in sums.items():
        if doc[key] != want:
            fail(f"{path}: merged {key} {doc[key]} != worker sum {want}")
    print(f"check_telemetry: {path}: seq {doc['seq']}, "
          f"{len(workers)} worker(s), merged totals == worker sums")

    if later is None:
        return
    doc2 = _load_fleet(later)
    if doc2["seq"] <= doc["seq"]:
        fail(f"{later}: seq went backwards or stalled: "
             f"{doc['seq']} -> {doc2['seq']}")
    before = {w["worker"]: w for w in workers}
    for w2 in doc2.get("workers", []):
        w1 = before.get(w2["worker"])
        if w1 is None:
            continue
        if w2["attempts"] < w1["attempts"]:
            fail(f"{later}: workers[{w2['worker']}] attempts went backwards: "
                 f"{w1['attempts']} -> {w2['attempts']}")
        if w2["attempts"] > w1["attempts"]:
            continue  # respawned: live counters legitimately reset
        for key in ("trials_done", "losses", "events"):
            if w2[key] < w1[key]:
                fail(f"{later}: workers[{w2['worker']}] counter {key} went "
                     f"backwards: {w1[key]} -> {w2[key]}")
        if w1["done"] and not w2["done"]:
            fail(f"{later}: workers[{w2['worker']}] un-finished itself")
    print(f"check_telemetry: {later}: per-worker counters monotone vs {path}")


CONVERGENCE_KEYS = [
    "schema", "batch", "config", "checkpoint", "trials", "losses",
    "p_loss", "wilson95_lo", "wilson95_hi", "ci_half_width",
    "rel_half_width", "anchor_p_loss", "anchor_drift", "batch_var_ratio",
    "first_loss_p50_secs", "first_loss_p99_secs", "loss_gap_p50_trials",
    "final",
]
STOP_CHECK_EVERY = 64  # keep in sync with farm_obs::STOP_CHECK_EVERY


def check_convergence(path, expect_stop=False):
    with open(path) as f:
        lines = [l for l in f.read().splitlines() if l]
    if not lines:
        fail(f"{path}: empty convergence stream")
    streams = {}  # (batch, config) -> list of records
    for n, line in enumerate(lines, start=1):
        where = f"{path}:{n}"
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as e:
            fail(f"{where}: invalid JSON: {e}")
        if rec.get("schema") != "farm-convergence-v1":
            fail(f"{where}: schema {rec.get('schema')!r}, "
                 f"want 'farm-convergence-v1'")
        for key in CONVERGENCE_KEYS:
            if key not in rec:
                fail(f"{where}: missing key {key!r}")
        for key in ("batch", "checkpoint", "trials", "losses"):
            if not isinstance(rec[key], int) or rec[key] < 0:
                fail(f"{where}: {key} must be a non-negative integer, "
                     f"got {rec[key]!r}")
        if not isinstance(rec["config"], str) or not rec["config"]:
            fail(f"{where}: config must be a non-empty string")
        if not isinstance(rec["final"], bool):
            fail(f"{where}: final must be a boolean")
        # Core trajectory numbers must be present and finite (jnum
        # renders non-finite values as null, which is a violation here).
        for key in ("p_loss", "wilson95_lo", "wilson95_hi", "ci_half_width"):
            if not isinstance(rec[key], (int, float)):
                fail(f"{where}: {key} must be a finite number, "
                     f"got {rec[key]!r}")
        trials, losses, p = rec["trials"], rec["losses"], rec["p_loss"]
        if not (0 <= losses <= trials) or trials == 0:
            fail(f"{where}: want 0 <= losses <= trials with trials >= 1, "
                 f"got {losses}/{trials}")
        if p != losses / trials:
            fail(f"{where}: p_loss {p} != losses/trials = {losses / trials}")
        lo, hi, hw = rec["wilson95_lo"], rec["wilson95_hi"], rec["ci_half_width"]
        # The score interval's endpoints carry ~1 ulp of rounding (lo can
        # surface as ~7e-18 instead of 0 at zero losses), so the bracket
        # check allows that much slack.
        if not (0.0 <= lo <= p + 1e-12 and p - 1e-12 <= hi <= 1.0):
            fail(f"{where}: Wilson interval [{lo}, {hi}] does not bracket "
                 f"p_loss {p} inside [0, 1]")
        if abs(hw - (hi - lo) / 2) > 1e-12:
            fail(f"{where}: ci_half_width {hw} != (hi - lo)/2")
        rel = _num_or_null(rec, "rel_half_width", where)
        if losses == 0 and rel is not None:
            fail(f"{where}: rel_half_width must be null at zero losses")
        if losses > 0 and (rel is None or abs(rel - hw / p) > 1e-9 * max(1.0, rel)):
            fail(f"{where}: rel_half_width {rel!r} != half-width/p̂ = {hw / p}")
        for key in ("anchor_p_loss", "anchor_drift", "batch_var_ratio",
                    "first_loss_p50_secs", "first_loss_p99_secs",
                    "loss_gap_p50_trials"):
            _num_or_null(rec, key, where)
        streams.setdefault((rec["batch"], rec["config"]), []).append((n, rec))

    stopped = 0
    for (batch, config), recs in streams.items():
        where = f"{path}: batch {batch} ({config!r})"
        trials = [r["trials"] for _, r in recs]
        if any(b <= a for a, b in zip(trials, trials[1:])):
            fail(f"{where}: checkpoint trials not strictly increasing: "
                 f"{trials}")
        # Geometric decimation only thins: gaps are non-decreasing,
        # except the final record, which lands wherever the batch ends.
        gaps = [b - a for a, b in zip(trials, trials[1:])]
        body = gaps[:-1] if len(gaps) >= 2 else []
        if any(b < a for a, b in zip(body, body[1:])):
            fail(f"{where}: decimation gaps shrink mid-stream: {trials}")
        finals = [r["final"] for _, r in recs]
        if finals.count(True) != 1 or not finals[-1]:
            fail(f"{where}: want exactly one final record, at the end")
        losses = [r["losses"] for _, r in recs]
        if any(b < a for a, b in zip(losses, losses[1:])):
            fail(f"{where}: loss counter went backwards: {losses}")
        last = recs[-1][1]
        if (last["trials"] % STOP_CHECK_EVERY == 0
                and last["rel_half_width"] is not None):
            stopped += 1
    if expect_stop and stopped == 0:
        fail(f"{path}: --expect-stop but no stream ended at a "
             f"boundary-aligned trial count with an informative CI")
    print(f"check_telemetry: {path}: {len(lines)} record(s), "
          f"{len(streams)} stream(s), trajectories consistent")


SPAN_OUTCOMES = {"rebuilt", "loss_disk", "loss_latent", "truncated"}
SPAN_INT_KEYS = ("batch", "trial", "span", "group", "block", "fail_disk",
                 "bytes", "attempts", "redirects", "no_target")
SPAN_SECS_KEYS = ("detect_secs", "queue_secs", "transfer_secs")
BW_INT_KEYS = ("batch", "trial", "id", "bytes_read", "bytes_written", "spans")


def _finite_num(rec, key, where):
    v = rec.get(key)
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        fail(f"{where}: {key} must be a number, got {v!r}")
    return v


def check_spans(path, expect_loss=False):
    with open(path) as f:
        lines = [l for l in f.read().splitlines() if l]
    if not lines:
        fail(f"{path}: empty spans artifact")
    n_spans = n_bw = n_loss = 0
    seen = set()  # (batch, trial, span): exactly one terminal row each
    for n, line in enumerate(lines, start=1):
        where = f"{path}:{n}"
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as e:
            fail(f"{where}: invalid JSON: {e}")
        schema = rec.get("schema")
        if not isinstance(rec.get("config"), str) or not rec["config"]:
            fail(f"{where}: config must be a non-empty string")
        if schema == "farm-spans-v1":
            n_spans += 1
            for key in SPAN_INT_KEYS:
                v = rec.get(key)
                if not isinstance(v, int) or v < 0:
                    fail(f"{where}: {key} must be a non-negative integer, "
                         f"got {v!r}")
            target = rec.get("target")
            if target is not None and (not isinstance(target, int) or target < 0):
                fail(f"{where}: target must be a non-negative integer or "
                     f"null, got {target!r}")
            key = (rec["batch"], rec["trial"], rec["span"])
            if key in seen:
                fail(f"{where}: span {key} has more than one terminal row")
            seen.add(key)
            outcome = rec.get("outcome")
            if outcome not in SPAN_OUTCOMES:
                fail(f"{where}: unknown outcome {outcome!r}")
            if outcome.startswith("loss_"):
                n_loss += 1
            # Phase timestamps are monotone where present (null = the
            # span never reached that phase). `t_start` is the *planned*
            # transfer start: a span that dies while still queued closes
            # with t_end < t_start and zero transfer time, so t_end must
            # only follow t_start once a transfer actually ran.
            t_fail = _finite_num(rec, "t_fail", where)
            t_end = _finite_num(rec, "t_end", where)
            last, last_key = t_fail, "t_fail"
            for key in ("t_detect", "t_start"):
                v = rec.get(key)
                if v is None:
                    continue
                if not isinstance(v, (int, float)):
                    fail(f"{where}: {key} must be a number or null, got {v!r}")
                if v < last:
                    fail(f"{where}: {key} {v} precedes {last_key} {last}")
                last, last_key = v, key
            t_detect = rec.get("t_detect")
            if t_detect is not None and t_end < t_detect:
                fail(f"{where}: t_end {t_end} precedes t_detect {t_detect}")
            if t_end < t_fail:
                fail(f"{where}: t_end {t_end} precedes t_fail {t_fail}")
            if rec.get("transfer_secs", 0) > 0 and rec.get("t_start") is not None \
                    and t_end < rec["t_start"]:
                fail(f"{where}: transfer ran but t_end {t_end} precedes "
                     f"t_start {rec['t_start']}")
            total = 0.0
            for key in SPAN_SECS_KEYS:
                v = _finite_num(rec, key, where)
                if v < 0:
                    fail(f"{where}: {key} must be >= 0, got {v}")
                total += v
            window = t_end - t_fail
            if abs(total - window) > 1e-6 * max(1.0, window):
                fail(f"{where}: phase durations {total} don't telescope "
                     f"to the span window {window}")
        elif schema == "farm-spans-bw-v1":
            n_bw += 1
            if rec.get("resource") not in ("disk", "group"):
                fail(f"{where}: resource must be 'disk' or 'group', "
                     f"got {rec.get('resource')!r}")
            for key in BW_INT_KEYS:
                v = rec.get(key)
                if not isinstance(v, int) or v < 0:
                    fail(f"{where}: {key} must be a non-negative integer, "
                         f"got {v!r}")
            if _finite_num(rec, "busy_secs", where) < 0:
                fail(f"{where}: busy_secs must be >= 0")
        else:
            fail(f"{where}: unknown schema {schema!r}")
    if n_spans == 0:
        fail(f"{path}: no farm-spans-v1 rows")
    if expect_loss and n_loss == 0:
        fail(f"{path}: --expect-loss but no span ended in a loss outcome")
    print(f"check_telemetry: {path}: {n_spans} span(s), {n_bw} bandwidth "
          f"row(s), {n_loss} loss(es), phases telescoped")


def check_chrome_trace(path):
    with open(path) as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as e:
            fail(f"{path}: invalid JSON: {e}")
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail(f"{path}: traceEvents must be a non-empty array")
    for i, ev in enumerate(events):
        where = f"{path}: traceEvents[{i}]"
        if not isinstance(ev, dict):
            fail(f"{where}: event must be an object")
        if not isinstance(ev.get("name"), str) or not ev["name"]:
            fail(f"{where}: name must be a non-empty string")
        if ev.get("ph") != "X":
            fail(f"{where}: ph must be 'X' (complete events), "
                 f"got {ev.get('ph')!r}")
        for key in ("ts", "dur"):
            _finite_num(ev, key, where)
        if ev["dur"] < 0:
            fail(f"{where}: dur must be >= 0, got {ev['dur']}")
        for key in ("pid", "tid"):
            if not isinstance(ev.get(key), int):
                fail(f"{where}: {key} must be an integer, got {ev.get(key)!r}")
    print(f"check_telemetry: {path}: {len(events)} trace event(s), "
          f"document well-formed")


METRIC_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
SAMPLE_RE = re.compile(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(.*)\})?\s+(\S+)$")
LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:\\.|[^"\\])*)"(,|$)')


def parse_labels(raw, where):
    """Parse `k="v",...`, enforcing full consumption (catches bad
    escapes, bare values, stray commas)."""
    labels, pos = {}, 0
    while pos < len(raw):
        m = LABEL_RE.match(raw, pos)
        if not m:
            fail(f"{where}: bad label syntax at {raw[pos:]!r}")
        labels[m.group(1)] = m.group(2)
        pos = m.end()
    return labels


def parse_metrics(path):
    """Return ({series: value}, {family: type}) for one exposition."""
    series, types = {}, {}
    with open(path) as f:
        lines = f.read().splitlines()
    for n, line in enumerate(lines, start=1):
        where = f"{path}:{n}"
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) < 3 or parts[1] not in ("HELP", "TYPE"):
                fail(f"{where}: bad comment {line!r}")
            if not METRIC_NAME_RE.match(parts[2]):
                fail(f"{where}: bad metric name {parts[2]!r}")
            if parts[1] == "TYPE":
                kind = parts[3] if len(parts) > 3 else ""
                if kind not in ("counter", "gauge", "summary", "histogram",
                                "untyped"):
                    fail(f"{where}: bad metric type {kind!r}")
                types[parts[2]] = kind
            continue
        m = SAMPLE_RE.match(line)
        if not m:
            fail(f"{where}: bad sample line {line!r}")
        name, raw_labels, value = m.groups()
        labels = parse_labels(raw_labels, where) if raw_labels else {}
        try:
            float(value)
        except ValueError:
            fail(f"{where}: bad sample value {value!r}")
        family = name
        for suffix in ("_sum", "_count", "_bucket"):
            if family not in types and name.endswith(suffix):
                family = name[: -len(suffix)]
        if family not in types:
            fail(f"{where}: sample {name!r} has no # TYPE")
        if types[family] == "counter" and not name.endswith("_total"):
            fail(f"{where}: counter {name!r} must end in _total")
        key = (name, tuple(sorted(labels.items())))
        if key in series:
            fail(f"{where}: duplicate series {name}{{{raw_labels}}}")
        series[key] = (types[family], float(value))
    return series


def check_metrics(path, later=None):
    series = parse_metrics(path)
    counters = {k: v for k, (t, v) in series.items() if t == "counter"}
    if not counters:
        fail(f"{path}: no counters exposed")
    print(f"check_telemetry: {path}: {len(series)} series "
          f"({len(counters)} counter(s)), exposition well-formed")
    if later is None:
        return
    series2 = parse_metrics(later)
    for key, v1 in counters.items():
        name = f"{key[0]}{{{','.join(f'{k}={v!r}' for k, v in key[1])}}}"
        if key not in series2:
            fail(f"{later}: counter {name} disappeared")
        v2 = series2[key][1]
        if v2 < v1:
            fail(f"{later}: counter {name} went backwards: {v1} -> {v2}")
    print(f"check_telemetry: {later}: all {len(counters)} counter(s) "
          f"monotone vs {path}")


def main(argv):
    if argv and argv[0] == "status":
        if len(argv) != 2:
            print(__doc__.strip(), file=sys.stderr)
            return 2
        check_status(argv[1])
        print("check_telemetry: OK")
        return 0
    if argv and argv[0] == "fleet":
        if len(argv) not in (2, 3):
            print(__doc__.strip(), file=sys.stderr)
            return 2
        check_fleet(argv[1], argv[2] if len(argv) == 3 else None)
        print("check_telemetry: OK")
        return 0
    if argv and argv[0] == "metrics":
        if len(argv) not in (2, 3):
            print(__doc__.strip(), file=sys.stderr)
            return 2
        check_metrics(argv[1], argv[2] if len(argv) == 3 else None)
        print("check_telemetry: OK")
        return 0
    if argv and argv[0] == "spans":
        args = [a for a in argv[1:] if a not in ("--expect-loss", "--chrome")]
        if len(args) != 1:
            print(__doc__.strip(), file=sys.stderr)
            return 2
        if "--chrome" in argv:
            check_chrome_trace(args[0])
        else:
            check_spans(args[0], expect_loss="--expect-loss" in argv)
        print("check_telemetry: OK")
        return 0
    if argv and argv[0] == "convergence":
        args = [a for a in argv[1:] if a != "--expect-stop"]
        if len(args) != 1:
            print(__doc__.strip(), file=sys.stderr)
            return 2
        check_convergence(args[0], expect_stop="--expect-stop" in argv)
        print("check_telemetry: OK")
        return 0
    args = [a for a in argv if a != "--expect-loss"]
    if len(args) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    check_timeline(args[0])
    check_postmortems(args[1], expect_loss="--expect-loss" in argv)
    print("check_telemetry: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
