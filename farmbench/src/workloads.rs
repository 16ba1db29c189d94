//! The four workloads: what each sets up, what one timed repetition
//! does, and how its outputs are checked.
//!
//! The simulator workloads run the Monte-Carlo seed 2004 (the paper's
//! year), so every point's summary can be checked bit for bit against
//! the digest recorded in `reference_digests.txt`, and run their points
//! in a fixed order (a shuffled order moved peak RSS by 7%). The
//! benchmark's `--seed` sets everything the benchmark generates itself:
//! object sizes and bytes, which OSDs fail, and the probes' inputs.

use crate::reference::{digest, Reference};
use crate::trace::Tracer;
use crate::{Checks, Rng};
use farm_core::montecarlo::{run_trials_observed, TrialMode};
use farm_core::prelude::*;
use farm_core::{PreparedConfig, Simulation};
use farm_des::time::Duration;
use farm_experiments::cli::Options;
use farm_obs::{ConvergenceSpec, ObsOptions, StatusSpec, TimelineSpec};
use farm_osd::{Cluster, OsdId};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Monte-Carlo master seed of every simulator workload.
pub const MC_SEED: u64 = 2004;

/// The workload names, in `BENCHMARK.json` order.
pub const NAMES: [&str; 4] = ["paper_slice", "fig3_sweep", "raid_to_target", "osd_mix"];

/// One timed repetition: its wall time and any rates it measured.
pub struct Rep {
    pub wall_s: f64,
    pub rates: Vec<(&'static str, f64)>,
}

pub trait Workload {
    /// One sample of the set-up a user pays before the first trial or
    /// operation.
    fn setup_once(&mut self) -> f64;
    /// How many set-up samples a run takes (their median is `setup_s`).
    fn setup_samples(&self) -> usize;
    /// One timed repetition, checking every output.
    fn run_once(&mut self, tr: &mut Tracer, checks: &mut Checks) -> Rep;
    /// Untraced/traced repetition pairs in the traced run.
    fn trace_pairs(&self) -> usize;
    /// Threads the timed phase uses.
    fn threads(&self) -> usize;
}

pub fn make(name: &str, seed: u64, tmp: &Path, reference: &Reference) -> Option<Box<dyn Workload>> {
    Some(match name {
        "paper_slice" => Box::new(PaperSlice::new(reference)),
        "fig3_sweep" => Box::new(Fig3Sweep::new(reference)),
        "raid_to_target" => Box::new(RaidToTarget::new(tmp, reference)),
        "osd_mix" => Box::new(OsdMix::new(seed)),
        _ => return None,
    })
}

/// Options for the figure modules: quick scale, a fixed trial count,
/// one thread and every observability switch off, built field by field
/// so no environment variable or core count can change them.
pub fn slice_options(trials: u64) -> Options {
    Options {
        trials,
        seed: MC_SEED,
        scale: 0.125,
        threads: 1,
        quick: true,
        trace: None,
        timeline: None,
        status: None,
        convergence: None,
        target_rel_ci: None,
        spans: None,
        progress: Some(false),
        profile: false,
    }
}

/// Time `PreparedConfig::new` plus the first fresh `Simulation`.
fn time_fresh_setup(cfg: &SystemConfig) -> f64 {
    let start = Instant::now();
    let prepared = Arc::new(PreparedConfig::new(cfg.clone()));
    let sim = Simulation::from_shared(prepared, farm_des::derive_seed(MC_SEED, 0));
    let secs = start.elapsed().as_secs_f64();
    drop(std::hint::black_box(sim));
    secs
}

// ----- paper_slice ---------------------------------------------------------

/// Trials per point: the slice's fixed run length (see README.md).
pub const SLICE_TRIALS: u64 = 2;

/// The figure modules of `scripts/run_all_experiments.sh --quick`
/// that run Monte-Carlo trials (tables 1 and 2 only print constants).
pub const MODULES: [&str; 9] = [
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "redirection",
    "ablations",
    "latent",
];

/// Run one figure module; its rows, formatted, are its output.
fn run_module(name: &str, opts: &Options) -> Box<dyn std::fmt::Debug> {
    use farm_experiments::*;
    match name {
        "fig3" => Box::new(fig3::run(opts)),
        "fig4" => Box::new(fig4::run(opts)),
        "fig5" => Box::new(fig5::run(opts)),
        "fig6" => Box::new(fig6::run(opts)),
        "fig7" => Box::new(fig7::run(opts)),
        "fig8" => Box::new(fig8::run(opts)),
        "redirection" => Box::new(redirection::run(opts)),
        "ablations" => Box::new(ablations::run(opts)),
        "latent" => Box::new(latent::run(opts)),
        _ => unreachable!("unknown module {name}"),
    }
}

/// Run one module inside a span, check its rows against the reference
/// digest, and return its wall seconds.
pub fn timed_module(
    name: &'static str,
    opts: &Options,
    reference: &Reference,
    tr: &mut Tracer,
    checks: &mut Checks,
) -> f64 {
    let start = Instant::now();
    let rows = tr.span("experiments", name, |_| run_module(name, opts));
    let secs = start.elapsed().as_secs_f64();
    tr.span("bench", "check", |_| {
        reference.check(checks, "paper_slice", name, &digest(&format!("{rows:?}")));
    });
    secs
}

/// The base configuration at quick scale with 1 GiB groups: the
/// slice's largest per-trial state (fig5 and the ablations).
pub fn slice_heavy_config() -> SystemConfig {
    SystemConfig {
        group_user_bytes: GIB,
        ..farm_experiments::base_config(&slice_options(SLICE_TRIALS))
    }
}

struct PaperSlice {
    opts: Options,
    heavy: SystemConfig,
    reference: Reference,
}

impl PaperSlice {
    fn new(reference: &Reference) -> Self {
        PaperSlice {
            opts: slice_options(SLICE_TRIALS),
            heavy: slice_heavy_config(),
            reference: reference.clone(),
        }
    }
}

impl Workload for PaperSlice {
    fn setup_once(&mut self) -> f64 {
        time_fresh_setup(&self.heavy)
    }

    fn setup_samples(&self) -> usize {
        41
    }

    fn run_once(&mut self, tr: &mut Tracer, checks: &mut Checks) -> Rep {
        let mut wall_s = 0.0;
        for name in MODULES {
            wall_s += timed_module(name, &self.opts, &self.reference, tr, checks);
        }
        Rep {
            wall_s,
            rates: Vec::new(),
        }
    }

    fn trace_pairs(&self) -> usize {
        2
    }

    fn threads(&self) -> usize {
        1
    }
}

// ----- fig3_sweep ----------------------------------------------------------

/// Trials per Figure 3 point.
pub const FIG3_TRIALS: u64 = 128;

/// Figure 3's 24 points at ×1/8 scale: every scheme, both panel group
/// sizes, with and without FARM, zero detection latency.
pub fn fig3_points() -> Vec<(String, SystemConfig)> {
    let base = farm_experiments::base_config(&slice_options(FIG3_TRIALS));
    let mut points = Vec::new();
    for gib in [100u64, 500] {
        for scheme in Scheme::figure3_schemes() {
            for recovery in [RecoveryPolicy::Farm, RecoveryPolicy::SingleSpare] {
                points.push((
                    format!("{gib}GiB-{scheme}-{recovery:?}"),
                    SystemConfig {
                        scheme,
                        group_user_bytes: gib * GIB,
                        detection_latency: Duration::ZERO,
                        recovery,
                        ..base.clone()
                    },
                ));
            }
        }
    }
    points
}

struct Fig3Sweep {
    points: Vec<(String, SystemConfig)>,
    reference: Reference,
}

impl Fig3Sweep {
    fn new(reference: &Reference) -> Self {
        Fig3Sweep {
            points: fig3_points(),
            reference: reference.clone(),
        }
    }
}

impl Workload for Fig3Sweep {
    fn setup_once(&mut self) -> f64 {
        self.points
            .iter()
            .map(|(_, cfg)| time_fresh_setup(cfg))
            .sum()
    }

    fn setup_samples(&self) -> usize {
        41
    }

    fn run_once(&mut self, tr: &mut Tracer, checks: &mut Checks) -> Rep {
        let off = ObsOptions::off();
        let mut wall_s = 0.0;
        for (key, cfg) in &self.points {
            let start = Instant::now();
            let (summary, _) = tr.span("core", "run_trials_observed", |_| {
                run_trials_observed(cfg, MC_SEED, FIG3_TRIALS, TrialMode::UntilLoss, 1, &off)
            });
            wall_s += start.elapsed().as_secs_f64();
            tr.span("bench", "check", |_| {
                self.reference
                    .check(checks, "fig3_sweep", key, &digest(&summary.to_compact()));
            });
        }
        Rep {
            wall_s,
            rates: Vec::new(),
        }
    }

    fn trace_pairs(&self) -> usize {
        3
    }

    fn threads(&self) -> usize {
        1
    }
}

// ----- raid_to_target ------------------------------------------------------

/// The target relative Wilson-95 half-width.
pub const TARGET_REL_CI: f64 = 0.1;

/// Trial budget; the stopping rule ends the batch long before it.
const TARGET_TRIAL_CAP: u64 = 1 << 16;

/// The Figure 3 point "4/5, 100 GiB, without FARM" at ×1/4 scale.
pub fn raid_config() -> SystemConfig {
    SystemConfig {
        scheme: Scheme::new(4, 5),
        group_user_bytes: 100 * GIB,
        detection_latency: Duration::ZERO,
        recovery: RecoveryPolicy::SingleSpare,
        ..farm_experiments::base_config(&Options {
            scale: 0.25,
            ..slice_options(0)
        })
    }
}

/// Two threads, or one on a single-CPU host.
pub fn target_threads() -> usize {
    crate::nproc().min(2)
}

/// Run `raid_config` to the target under `obs` and check that it stopped
/// at the recorded trial count with the recorded summary.
pub fn run_to_target(
    obs: &ObsOptions,
    threads: usize,
    reference: &Reference,
    tr: &mut Tracer,
    checks: &mut Checks,
) -> (f64, McSummary) {
    let cfg = raid_config();
    let start = Instant::now();
    let (summary, _) = tr.span("core", "run_trials_observed", |_| {
        run_trials_observed(
            &cfg,
            MC_SEED,
            TARGET_TRIAL_CAP,
            TrialMode::UntilLoss,
            threads,
            obs,
        )
    });
    let wall_s = start.elapsed().as_secs_f64();
    tr.span("bench", "check", |_| {
        reference.check(
            checks,
            "raid_to_target",
            "stop_trials",
            &summary.trials().to_string(),
        );
        reference.check(
            checks,
            "raid_to_target",
            "summary",
            &digest(&summary.to_compact()),
        );
    });
    (wall_s, summary)
}

struct RaidToTarget {
    cfg: SystemConfig,
    obs: ObsOptions,
    reference: Reference,
}

impl RaidToTarget {
    fn new(tmp: &Path, reference: &Reference) -> Self {
        let path = |f: &str| tmp.join(f).to_string_lossy().into_owned();
        // The campaign telemetry a user turns on for a long run. Spans
        // stay off: at this size they write gigabytes (the traced run
        // measures them on a sub-slice).
        let obs = ObsOptions {
            timeline: Some(TimelineSpec {
                path: path("timeline.csv"),
                interval_secs: None,
            }),
            postmortem: Some(path("postmortem.jsonl")),
            status: Some(StatusSpec {
                path: path("status.json"),
                interval_secs: None,
            }),
            http: Some("127.0.0.1:0".to_string()),
            convergence: Some(ConvergenceSpec {
                path: path("convergence.jsonl"),
                base_trials: None,
            }),
            target_rel_ci: Some(TARGET_REL_CI),
            ..ObsOptions::off()
        };
        RaidToTarget {
            cfg: raid_config(),
            obs,
            reference: reference.clone(),
        }
    }
}

impl Workload for RaidToTarget {
    fn setup_once(&mut self) -> f64 {
        time_fresh_setup(&self.cfg)
    }

    fn setup_samples(&self) -> usize {
        201
    }

    fn run_once(&mut self, tr: &mut Tracer, checks: &mut Checks) -> Rep {
        let (wall_s, _) = run_to_target(&self.obs, self.threads(), &self.reference, tr, checks);
        Rep {
            wall_s,
            rates: Vec::new(),
        }
    }

    fn trace_pairs(&self) -> usize {
        3
    }

    fn threads(&self) -> usize {
        target_threads()
    }
}

// ----- osd_mix -------------------------------------------------------------

const OSDS: u32 = 64;
const OSD_CAPACITY: u64 = 64 << 20;
pub const BLOCK_BYTES: usize = 64 << 10;
const OBJECTS: usize = 224;
/// Object `i` of the sorted sizes holds `MIN_OBJECT + i * OBJECT_STEP`
/// bytes (32 KiB to ~1 MiB, ~118 MB in all, most ending in a partial
/// redundancy group). The seed shuffles which object gets which size,
/// and the bytes; the total stays fixed, so peak RSS does not move with
/// the seed.
const MIN_OBJECT: usize = 32 << 10;
const OBJECT_STEP: usize = 4447;

pub fn osd_scheme() -> Scheme {
    Scheme::new(4, 6)
}

/// Per-operation latencies (µs) of one `osd_mix` repetition.
#[derive(Default)]
pub struct OsdLatencies {
    pub put: Vec<f64>,
    pub get: Vec<f64>,
    pub degraded_get: Vec<f64>,
    pub recover_blocks: u64,
    pub scrub_groups_per_s: f64,
}

pub struct OsdMix {
    rng: Rng,
    objects: Vec<(String, Vec<u8>)>,
    /// Latencies of the last repetition (read by the osd probe).
    pub last: OsdLatencies,
}

impl OsdMix {
    pub fn new(seed: u64) -> Self {
        OsdMix {
            rng: Rng::new(seed),
            objects: Vec::new(),
            last: OsdLatencies::default(),
        }
    }

    fn generate(&self) -> Vec<(String, Vec<u8>)> {
        let mut rng = self.rng.clone();
        let mut sizes: Vec<usize> = (0..OBJECTS).map(|i| MIN_OBJECT + i * OBJECT_STEP).collect();
        for i in (1..sizes.len()).rev() {
            sizes.swap(i, rng.below(i as u64 + 1) as usize);
        }
        sizes
            .into_iter()
            .enumerate()
            .map(|(i, len)| {
                let mut data = vec![0u8; len];
                rng.fill(&mut data);
                (format!("obj-{i:04}"), data)
            })
            .collect()
    }

    fn user_bytes(&self) -> u64 {
        self.objects.iter().map(|(_, d)| d.len() as u64).sum()
    }

    fn groups(&self) -> u64 {
        let group = (BLOCK_BYTES * osd_scheme().m as usize) as u64;
        self.objects
            .iter()
            .map(|(_, d)| (d.len() as u64).div_ceil(group))
            .sum()
    }
}

fn micros(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e6
}

impl Workload for OsdMix {
    fn setup_once(&mut self) -> f64 {
        self.objects = Vec::new();
        let start = Instant::now();
        let objects = self.generate();
        let cluster = Cluster::new(OSDS, OSD_CAPACITY, osd_scheme(), BLOCK_BYTES, MC_SEED);
        let secs = start.elapsed().as_secs_f64();
        drop(std::hint::black_box(cluster));
        self.objects = objects;
        secs
    }

    fn setup_samples(&self) -> usize {
        9
    }

    fn run_once(&mut self, tr: &mut Tracer, checks: &mut Checks) -> Rep {
        if self.objects.is_empty() {
            self.setup_once();
        }
        let mut lat = OsdLatencies::default();
        let mut cluster = tr.span("osd", "Cluster::new", |_| {
            Cluster::new(OSDS, OSD_CAPACITY, osd_scheme(), BLOCK_BYTES, MC_SEED)
        });

        for (name, data) in &self.objects {
            let t = Instant::now();
            let res = tr.span("osd", "put", |_| cluster.put(name, data));
            lat.put.push(micros(t));
            checks.check(res.is_ok(), || format!("osd_mix put {name}: {res:?}"));
        }
        let mut read_all = |cluster: &Cluster, op: &'static str, out: &mut Vec<f64>| {
            for (name, data) in &self.objects {
                let t = Instant::now();
                let res = tr.span("osd", op, |_| cluster.get(name));
                out.push(micros(t));
                tr.span("bench", "check", |_| {
                    let ok = matches!(&res, Ok(bytes) if bytes == data);
                    checks.check(ok, || format!("osd_mix {op} {name}: wrong bytes or error"));
                });
            }
        };
        read_all(&cluster, "get", &mut lat.get);

        let a = self.rng.below(OSDS as u64) as u32;
        let b = (a + 1 + self.rng.below(OSDS as u64 - 1) as u32) % OSDS;
        let lost = cluster.fail_osd(OsdId(a)) + cluster.fail_osd(OsdId(b));
        read_all(&cluster, "degraded_get", &mut lat.degraded_get);

        let t = Instant::now();
        let report = tr.span("osd", "recover", |_| cluster.recover());
        let recover_us = micros(t);
        checks.check(
            report.groups_lost == 0 && report.blocks_rebuilt == lost,
            || format!("osd_mix recover: {report:?}, {lost} blocks lost"),
        );
        lat.recover_blocks = report.blocks_rebuilt;

        let t = Instant::now();
        let scrub = tr.span("osd", "scrub", |_| cluster.scrub());
        let scrub_us = micros(t);
        let groups = self.groups();
        checks.check(
            scrub.groups_inconsistent == 0 && scrub.groups_checked == groups,
            || format!("osd_mix scrub: {scrub:?}, {groups} groups stored"),
        );
        lat.scrub_groups_per_s = scrub.groups_checked as f64 / (scrub_us / 1e6);

        let bytes = self.user_bytes() as f64;
        let sum = |v: &[f64]| v.iter().sum::<f64>();
        let (put_us, get_us, deg_us) = (sum(&lat.put), sum(&lat.get), sum(&lat.degraded_get));
        let rep = Rep {
            wall_s: (put_us + get_us + deg_us + recover_us + scrub_us) / 1e6,
            // MB/s = bytes per microsecond.
            rates: vec![
                ("write_mb_per_s", bytes / put_us),
                ("read_mb_per_s", bytes / get_us),
                ("degraded_read_mb_per_s", bytes / deg_us),
                ("recover_mb_per_s", report.bytes_rebuilt as f64 / recover_us),
            ],
        };
        self.last = lat;
        rep
    }

    fn trace_pairs(&self) -> usize {
        3
    }

    fn threads(&self) -> usize {
        1
    }
}
