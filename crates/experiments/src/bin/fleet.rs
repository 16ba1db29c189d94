//! Fleet campaign driver: one binary, three modes.
//!
//! * default — coordinator: shard the campaign's reduction chunks
//!   across N worker processes (this same binary in `--worker` mode),
//!   read each worker's status file, merge telemetry into
//!   `<dir>/fleet-status.json` (+ optional aggregated exporter and a
//!   live stderr dashboard), checkpoint/resume per range, and fold the
//!   per-chunk summaries into the campaign aggregate — bit-identical
//!   to a single-process run.
//! * `--worker --range LO:HI` — run chunk range `[LO, HI)` and write
//!   its `farm-worker-result-v1` checkpoint.
//! * `--single` — the single-process reference run, summary written
//!   next to the fleet one for a byte-for-byte diff.
//!
//! `--quick`/`--full`/`--trials`/`--seed`/`--threads` go to the shared
//! [`Options::parse`]; `--scale` is applied after it, so it wins over a
//! mode flag in any order.
use farm_experiments::cli::Options;
use farm_experiments::fleet;
use std::path::PathBuf;

const USAGE: &str = "usage: fleet [--single | --worker --range LO:HI] \
     [--workers N] [--fleet DIR] [--http ADDR] [--dashboard|--no-dashboard] \
     [--quick|--full] [--trials N] [--seed S] [--threads T] [--scale X]";

/// Fleet directory when `--fleet` is absent.
const DEFAULT_DIR: &str = "farm-fleet";
/// Worker-process count when `--workers` is absent.
const DEFAULT_WORKERS: usize = 2;

enum Mode {
    Coordinator,
    Worker { lo: u64, hi: u64 },
    Single,
}

fn fail(msg: &str) -> ! {
    eprintln!("fleet: {msg}\n{USAGE}");
    std::process::exit(2);
}

fn value(it: &mut impl Iterator<Item = String>, flag: &str) -> String {
    it.next()
        .unwrap_or_else(|| fail(&format!("{flag} needs a value")))
}

fn main() {
    let mut mode = Mode::Coordinator;
    let mut worker = false;
    let mut range: Option<(u64, u64)> = None;
    let mut workers = DEFAULT_WORKERS;
    let mut dir = DEFAULT_DIR.to_string();
    let mut http: Option<String> = None;
    let mut dashboard: Option<bool> = None;
    let mut scale: Option<f64> = None;
    // The campaign flags, forwarded to `Options::parse`.
    let mut campaign: Vec<String> = Vec::new();

    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--worker" => worker = true,
            "--single" => mode = Mode::Single,
            "--range" => {
                let v = value(&mut it, "--range");
                let Some((lo, hi)) = v.split_once(':') else {
                    fail("--range wants LO:HI");
                };
                let lo = lo.parse().unwrap_or_else(|_| fail("--range: bad LO"));
                let hi = hi.parse().unwrap_or_else(|_| fail("--range: bad HI"));
                range = Some((lo, hi));
            }
            "--workers" => {
                workers = value(&mut it, "--workers")
                    .parse()
                    .unwrap_or_else(|_| fail("--workers: not a number"));
                if workers == 0 {
                    fail("--workers must be >= 1");
                }
            }
            "--fleet" => dir = value(&mut it, "--fleet"),
            "--http" => http = Some(value(&mut it, "--http")),
            "--dashboard" => dashboard = Some(true),
            "--no-dashboard" => dashboard = Some(false),
            "--quick" | "--full" => campaign.push(arg),
            "--trials" | "--seed" | "--threads" => {
                let v = value(&mut it, &arg);
                campaign.extend([arg, v]);
            }
            "--scale" => {
                let v: f64 = value(&mut it, "--scale")
                    .parse()
                    .unwrap_or_else(|_| fail("--scale: not a number"));
                if !(v > 0.0 && v.is_finite()) {
                    fail("--scale must be a positive finite number");
                }
                scale = Some(v);
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other => fail(&format!("unknown flag {other}")),
        }
    }
    // A fleet worker should not eat every core by default: the fleet's
    // parallelism is its worker processes. `--threads` overrides.
    let explicit_threads = campaign.iter().any(|a| a == "--threads");
    let mut opts = Options::parse(campaign).unwrap_or_else(|e| fail(&e));
    if !explicit_threads {
        opts.threads = 1;
    }
    if let Some(v) = scale {
        opts.scale = v;
    }
    if worker {
        let Some((lo, hi)) = range else {
            fail("--worker needs --range LO:HI");
        };
        mode = Mode::Worker { lo, hi };
    } else if range.is_some() {
        fail("--range only makes sense with --worker");
    }

    let dir = PathBuf::from(dir);
    match mode {
        Mode::Worker { lo, hi } => {
            if let Err(e) = fleet::run_worker(&opts, &dir, lo, hi) {
                eprintln!("fleet worker: {e}");
                std::process::exit(1);
            }
        }
        Mode::Single => match fleet::run_single(&opts, &dir) {
            Ok(summary) => print_summary("single-process", &summary),
            Err(e) => {
                eprintln!("fleet --single: {e}");
                std::process::exit(1);
            }
        },
        Mode::Coordinator => {
            let coord = fleet::CoordinatorOptions {
                workers,
                dir,
                http,
                dashboard,
            };
            match fleet::run_coordinator(&opts, &coord) {
                Ok(summary) => print_summary(&format!("fleet({workers} workers)"), &summary),
                Err(e) => {
                    eprintln!("fleet: {e}");
                    std::process::exit(1);
                }
            }
        }
    }
}

fn print_summary(label: &str, summary: &farm_core::McSummary) {
    let p = summary.p_loss;
    let (lo, hi) = p.wilson95();
    println!(
        "{label}: {} trials, {} losses, p_loss={:.6} wilson95=[{:.6}, {:.6}]",
        p.trials,
        p.successes,
        p.value(),
        lo,
        hi
    );
}
