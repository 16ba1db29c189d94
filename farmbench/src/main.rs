//! `farmbench`: the FARM reproduction's benchmark.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path farmbench/Cargo.toml -- \
//!     --workload <paper_slice|fig3_sweep|raid_to_target|osd_mix|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it measures the workload's end-to-end metrics for
//! `--seconds` seconds; with `--trace 1` it makes the traced run that
//! gives the per-layer metrics. The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics`. The line
//! before it is a detail record (every sample, the host, the checks);
//! standard error gets the end-to-end figures as a table. `--workload
//! all` runs the four workloads one after another, each in its own
//! process.
//! `--record` prints `reference_digests.txt` from the current program.
//! See README.md for the workloads and how to read a comparison.

mod json;
mod metrics;
mod probes;
mod reference;
mod trace;
mod workloads;

use json::J;
use probes::Val;
use reference::Reference;
use std::path::{Path, PathBuf};
use std::time::Instant;
use trace::Tracer;

/// Each of these selects a different program (kernel, placement engine
/// or trial recycling), so a run under any of them is refused.
const REFUSED_ENV: [&str; 4] = [
    "FARM_PLACE_KERNEL",
    "FARM_GF_KERNEL",
    "FARM_PLACE_ENGINE",
    "FARM_WORKSPACE",
];

/// Timed repetitions a run makes at least, whatever `--seconds` says.
const MIN_REPS: usize = 3;

/// Where the traced run leaves its spans, relative to the checkout.
const OUT_DIR: &str = ".farmbench_out";
/// Scratch artifacts (telemetry files, probe outputs), removed at exit.
const TMP_DIR: &str = ".farmbench_tmp";

/// Counts checked outputs; a failure is any output that differs from
/// what it must be.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            let msg = what();
            eprintln!("farmbench: check failed: {msg}");
            if self.failures.len() < 20 {
                self.failures.push(msg);
            }
        }
    }
}

/// SplitMix64: the benchmark's own generator for the inputs it makes.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)` (n ≥ 1; the bias is below 2^-40 here).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    pub fn fill(&mut self, buf: &mut [u8]) {
        let mut chunks = buf.chunks_exact_mut(8);
        for c in &mut chunks {
            c.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let tail = chunks.into_remainder();
        let last = self.next_u64().to_le_bytes();
        tail.copy_from_slice(&last[..tail.len()]);
    }
}

pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Nearest-rank quantile.
pub fn quantile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(val),
            "--seed" => seed = Some(val.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = val.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds {s} outside (0, 3600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, not {val}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (one of {}, or all)",
            workloads::NAMES.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn host(threads: usize) -> J {
    let farm_env: Vec<(String, J)> = std::env::vars()
        .filter(|(k, _)| k.starts_with("FARM_"))
        .map(|(k, v)| (k, J::Str(v)))
        .collect();
    J::obj([
        ("nproc", J::Int(nproc() as u64)),
        ("threads", J::Int(threads as u64)),
        ("rustc", J::str(env!("FARMBENCH_RUSTC"))),
        (
            "place_kernel",
            J::str(farm_placement::kernel::active().name()),
        ),
        (
            "gf_kernel",
            J::str(farm_erasure::gf256::kernel::active().name()),
        ),
        ("farm_env", J::Obj(farm_env)),
    ])
}

fn num(value: f64, unit: &str) -> J {
    J::obj([("value", J::Num(value)), ("unit", J::str(unit))])
}

fn null(unit: &str, reason: &str) -> J {
    J::obj([
        ("value", J::Null),
        ("unit", J::str(unit)),
        ("reason", J::str(reason)),
    ])
}

const INCORRECT: &str = "outputs failed their checks; not reported as a speed";

/// A scratch directory inside the checkout, removed when dropped.
struct TempDir(PathBuf);

impl TempDir {
    fn new() -> std::io::Result<TempDir> {
        let dir = Path::new(TMP_DIR).join(format!("run-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(TempDir(dir))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty parent behind either (fails harmlessly while
        // another run still uses it).
        let _ = std::fs::remove_dir(TMP_DIR);
    }
}

/// The untraced run: timed repetitions for at least `seconds`, with the
/// set-up samples taken between them.
fn end_to_end(args: &Args, w: &mut dyn workloads::Workload, checks: &mut Checks) -> (J, J) {
    let mut tr = Tracer::new(false);
    let start = Instant::now();
    let (mut setup, mut walls) = (Vec::new(), Vec::new());
    let mut rates: Vec<(&str, Vec<f64>)> = Vec::new();
    let n_setup = w.setup_samples();
    while walls.len() < MIN_REPS || start.elapsed().as_secs_f64() < args.seconds {
        // Spread the set-up samples over the run: the host's speed
        // drifts within seconds, and samples taken in one burst at the
        // start saw only one of its phases.
        let share = (start.elapsed().as_secs_f64() / args.seconds).min(1.0);
        while setup.len() < ((share * n_setup as f64).ceil() as usize).max(1) {
            setup.push(w.setup_once());
        }
        let rep = w.run_once(&mut tr, checks);
        walls.push(rep.wall_s);
        for (name, v) in rep.rates {
            match rates.iter_mut().find(|(n, _)| *n == name) {
                Some((_, vs)) => vs.push(v),
                None => rates.push((name, vec![v])),
            }
        }
    }
    while setup.len() < n_setup {
        setup.push(w.setup_once());
    }
    let rss_mb = farm_obs::rss::peak_rss_bytes().map_or(f64::NAN, |b| b as f64 / (1 << 20) as f64);
    let values = [median(&walls), median(&setup), rss_mb];

    let ok = checks.failed == 0;
    let metrics = J::obj(
        metrics::END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| {
                (
                    name,
                    if ok {
                        num(v, unit)
                    } else {
                        null(unit, INCORRECT)
                    },
                )
            }),
    );
    let mut shown: Vec<(&str, f64, &str)> = metrics::END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name, v, unit))
        .collect();
    let error_frac = checks.failed as f64 / checks.attempted.max(1) as f64;
    shown.push(("error_frac", error_frac, "fraction"));
    for (name, vs) in &rates {
        shown.push((name, median(vs), "MB/s"));
    }
    // The same figures for a reader, on standard error.
    for (name, v, unit) in &shown {
        eprintln!("{:<15} {name:<24} {v:>14.6} {unit}", args.workload);
    }
    let detail = J::obj([
        (
            "end_to_end",
            J::obj(shown.into_iter().map(|(n, v, u)| (n, num(v, u)))),
        ),
        ("reps", J::Int(walls.len() as u64)),
        (
            "wall_s_samples",
            J::Arr(walls.into_iter().map(J::Num).collect()),
        ),
        (
            "setup_s_samples",
            J::Arr(setup.into_iter().map(J::Num).collect()),
        ),
        (
            "rate_samples",
            J::obj(
                rates
                    .into_iter()
                    .map(|(n, vs)| (n, J::Arr(vs.into_iter().map(J::Num).collect()))),
            ),
        ),
    ]);
    (metrics, detail)
}

/// The traced run: every per-layer probe, then untraced/traced pairs of
/// the workload's own repetition for the tracing overhead.
fn traced(
    args: &Args,
    w: &mut dyn workloads::Workload,
    tmp: &Path,
    reference: &Reference,
    checks: &mut Checks,
) -> (J, J) {
    let mut tr = Tracer::new(true);
    let mut values = probes::run_all(args.seed, tmp, reference, &mut tr, checks);

    let mut off = Tracer::new(false);
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    for _ in 0..w.trace_pairs() {
        plain.push(w.run_once(&mut off, checks).wall_s);
        traced.push(tr.span("bench", "rep", |tr| w.run_once(tr, checks)).wall_s);
    }
    values.insert(
        "trace.overhead_frac".into(),
        Val::Num(median(&traced) / median(&plain) - 1.0),
    );
    for (layer, secs) in tr.self_secs_by_layer() {
        values.insert(format!("trace.self_s.{layer}"), Val::Num(secs));
    }

    let spans_path =
        Path::new(OUT_DIR).join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
    let written = std::fs::create_dir_all(OUT_DIR).and_then(|_| tr.write_jsonl(&spans_path));
    if let Err(e) = &written {
        eprintln!("farmbench: could not write {}: {e}", spans_path.display());
    }

    let ok = checks.failed == 0;
    let mut metrics = Vec::new();
    let mut tagged = Vec::new();
    for m in metrics::PER_LAYER {
        let v = values
            .remove(m.name)
            .unwrap_or_else(|| panic!("no probe measured {}", m.name));
        let (value, reason) = match v {
            Val::Num(x) if x.is_finite() => (J::Num(x), None),
            Val::Num(_) => (J::Null, Some("not finite on this run".to_string())),
            Val::Null(r) => (J::Null, Some(r)),
        };
        let shown = match (&value, &reason) {
            (_, Some(r)) => null(m.unit, r),
            (J::Num(x), None) if ok => num(*x, m.unit),
            _ => null(m.unit, INCORRECT),
        };
        metrics.push((m.name, shown));
        let mut tag = vec![
            ("value", value),
            ("unit", J::str(m.unit)),
            ("layer", J::str(m.layer)),
            ("moves", J::str(m.moves)),
            ("on_workload", J::str(m.workload)),
        ];
        if let Some(r) = reason {
            tag.push(("reason", J::Str(r)));
        }
        tagged.push((m.name, J::obj(tag)));
    }
    assert!(
        values.is_empty(),
        "probes measured unlisted metrics: {:?}",
        values.keys()
    );

    let detail = J::obj([
        ("per_layer", J::obj(tagged)),
        (
            "untraced_wall_s_samples",
            J::Arr(plain.into_iter().map(J::Num).collect()),
        ),
        (
            "traced_wall_s_samples",
            J::Arr(traced.into_iter().map(J::Num).collect()),
        ),
        ("self_s_by_span", tr.self_secs_by_name()),
        (
            "spans_file",
            match written {
                Ok(()) => J::str(spans_path.to_string_lossy()),
                Err(_) => J::Null,
            },
        ),
    ]);
    (J::obj(metrics), detail)
}

/// `--workload all`: each workload in a child process of its own (so
/// its peak RSS is its own), one after another, output passed through.
fn run_every_workload(args: &Args) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("path of this program: {e}"))?;
    for name in workloads::NAMES {
        let status = std::process::Command::new(&exe)
            .args(["--workload", name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status()
            .map_err(|e| format!("{name}: {e}"))?;
        if !status.success() {
            return Err(format!("{name} exited with {status}"));
        }
    }
    Ok(())
}

fn run(args: &Args) -> Result<(), String> {
    if args.workload == "all" {
        return run_every_workload(args);
    }
    let reference = Reference::recorded();
    let tmp = TempDir::new().map_err(|e| format!("cannot create {TMP_DIR}: {e}"))?;
    let mut w = workloads::make(&args.workload, args.seed, &tmp.0, &reference)
        .expect("workload name was validated");
    let mut checks = Checks::default();
    let (metrics, detail) = if args.trace {
        traced(args, w.as_mut(), &tmp.0, &reference, &mut checks)
    } else {
        end_to_end(args, w.as_mut(), &mut checks)
    };
    let detail = J::obj([
        ("workload", J::str(args.workload.as_str())),
        ("seed", J::Int(args.seed)),
        ("seconds", J::Num(args.seconds)),
        ("trace", J::Bool(args.trace)),
        ("host", host(w.threads())),
        (
            "failures",
            J::Arr(checks.failures.iter().map(J::str).collect()),
        ),
        ("result", detail),
    ]);
    println!("{}", J::obj([("detail", detail)]).line());
    let result = J::obj([
        ("correct", J::Bool(checks.failed == 0)),
        ("attempted", J::Int(checks.attempted.max(1))),
        ("failed", J::Int(checks.failed)),
        ("metrics", metrics),
    ]);
    println!("{}", result.line());
    Ok(())
}

/// Print the reference file from the current program. The stopping
/// point of `raid_to_target` must agree at one and two threads.
fn record() -> Result<(), String> {
    let rec = Reference::recorder();
    let mut tr = Tracer::new(false);
    let mut checks = Checks::default();
    println!("# farmbench output gate: <workload> <point> <value>.");
    println!("# Regenerate with `farmbench --record`; see README.md.");
    let opts = workloads::slice_options(workloads::SLICE_TRIALS);
    for name in workloads::MODULES {
        workloads::timed_module(name, &opts, &rec, &mut tr, &mut checks);
    }
    let mut fig3 = workloads::make("fig3_sweep", 0, Path::new("."), &rec).expect("known workload");
    fig3.run_once(&mut tr, &mut checks);
    let target_only = farm_obs::ObsOptions {
        target_rel_ci: Some(workloads::TARGET_REL_CI),
        ..farm_obs::ObsOptions::off()
    };
    let silent = Reference::recorded();
    let mut ignore = Checks::default();
    let (_, one) = workloads::run_to_target(&target_only, 1, &silent, &mut tr, &mut ignore);
    let (_, two) = workloads::run_to_target(&target_only, 2, &silent, &mut tr, &mut ignore);
    if one.trials() != two.trials() || one.to_compact() != two.to_compact() {
        return Err("raid_to_target differs between one and two threads".into());
    }
    println!("raid_to_target stop_trials {}", one.trials());
    println!(
        "raid_to_target summary {}",
        reference::digest(&one.to_compact())
    );
    Ok(())
}

fn main() {
    let refused: Vec<&str> = REFUSED_ENV
        .iter()
        .copied()
        .filter(|k| std::env::var_os(k).is_some())
        .collect();
    if !refused.is_empty() {
        eprintln!(
            "farmbench: refusing to run with {} set: each selects a different program",
            refused.join(", ")
        );
        std::process::exit(2);
    }
    // Every Monte-Carlo call gets explicit options; this pins the
    // process-wide ones the figure modules read, so no FARM_* variable
    // can switch observability on.
    farm_obs::set_global(farm_obs::ObsOptions::off());

    let mut argv = std::env::args().skip(1).peekable();
    let result = match argv.peek().map(String::as_str) {
        Some("--record") => record(),
        Some("--obs-child") => {
            let rest: Vec<String> = argv.skip(1).collect();
            match rest.as_slice() {
                [variant, dir] => probes::obs_child(variant, Path::new(dir)),
                _ => Err("usage: --obs-child <variant> <dir>".into()),
            }
        }
        _ => parse_args(argv).and_then(|a| run(&a)),
    };
    if let Err(e) = result {
        eprintln!("farmbench: {e}");
        std::process::exit(2);
    }
}
