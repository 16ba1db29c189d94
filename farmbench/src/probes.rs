//! Per-layer probes of the traced run. Each times calls into one
//! layer's public functions from outside, inside spans, and returns
//! named values. Which end-to-end metric and workload each value should
//! move is in [`crate::metrics::PER_LAYER`].

use crate::reference::{digest, Reference};
use crate::trace::Tracer;
use crate::workloads::{self, OsdMix, Workload, MC_SEED};
use crate::{median, Checks, Rng};
use farm_core::montecarlo::{
    fold_chunk_summaries, n_chunks, run_trial_chunks_observed, run_trials_observed, TrialMode,
};
use farm_core::{McSummary, PreparedConfig, Simulation};
use farm_des::{derive_seed, EventQueue, SimTime};
use farm_obs::{
    ConvergenceSpec, EventProfile, ObsOptions, SpanFormat, SpansSpec, StatusSpec, TimelineSpec,
};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// A probe value, or the reason this host cannot measure it.
#[derive(Clone, Debug)]
pub enum Val {
    Num(f64),
    Null(String),
}

pub type Values = BTreeMap<String, Val>;

fn put(out: &mut Values, name: impl Into<String>, v: f64) {
    out.insert(name.into(), Val::Num(v));
}

/// Repeat `f` until `secs` have passed; return calls per second.
fn rate(secs: f64, mut f: impl FnMut()) -> f64 {
    f();
    let start = Instant::now();
    let mut calls = 0u64;
    while start.elapsed().as_secs_f64() < secs {
        f();
        calls += 1;
    }
    calls as f64 / start.elapsed().as_secs_f64()
}

/// Every probe, in a fixed order. `tmp` holds the probes' artifacts.
pub fn run_all(
    seed: u64,
    tmp: &Path,
    reference: &Reference,
    tr: &mut Tracer,
    checks: &mut Checks,
) -> Values {
    let mut out = Values::new();
    let mut rng = Rng::new(seed ^ 0x0b5e_55ed);
    tr.span("bench", "probe.experiments", |tr| {
        experiments(reference, tr, checks, &mut out)
    });
    tr.span("bench", "probe.core.setup", |tr| core_setup(tr, &mut out));
    let depth = tr.span("bench", "probe.core.loop", |tr| core_loop(tr, &mut out));
    tr.span("bench", "probe.des.queue", |tr| {
        des_queue(depth, &mut rng, tr, &mut out)
    });
    tr.span("bench", "probe.placement", |tr| {
        placement(&mut rng, tr, &mut out)
    });
    tr.span("bench", "probe.montecarlo", |tr| {
        montecarlo(reference, tr, checks, &mut out)
    });
    tr.span("bench", "probe.obs", |tr| obs(tmp, tr, checks, &mut out));
    tr.span("bench", "probe.erasure", |tr| {
        erasure(&mut rng, tr, checks, &mut out)
    });
    tr.span("bench", "probe.osd", |tr| osd(seed, tr, checks, &mut out));
    out
}

/// One pass of the slice, module by module.
fn experiments(reference: &Reference, tr: &mut Tracer, checks: &mut Checks, out: &mut Values) {
    let opts = workloads::slice_options(workloads::SLICE_TRIALS);
    for name in workloads::MODULES {
        let secs = workloads::timed_module(name, &opts, reference, tr, checks);
        put(out, format!("experiments.{name}.s"), secs);
    }
}

/// Per-trial setup phases over Figure 3's points, from
/// `Simulation::recycle_profiled`, with the event loop run between
/// recycles so each reset starts from a used layout.
fn core_setup(tr: &mut Tracer, out: &mut Values) {
    const RECYCLES: u64 = 12;
    let mut prof = EventProfile::new(Simulation::SETUP_PHASE_LABELS);
    let mut loop_ns = 0u64;
    for (_, cfg) in workloads::fig3_points() {
        let prepared = Arc::new(PreparedConfig::new(cfg));
        let mut sim = tr.span("core", "Simulation::from_shared", |_| {
            Simulation::from_shared(Arc::clone(&prepared), derive_seed(MC_SEED, 0))
        });
        for t in 1..=RECYCLES {
            let start = Instant::now();
            black_box(tr.span("core", "run_until_loss", |_| sim.run_until_loss()));
            loop_ns += start.elapsed().as_nanos() as u64;
            tr.span("core", "recycle_profiled", |_| {
                sim.recycle_profiled(&prepared, derive_seed(MC_SEED, t), &mut prof)
            });
        }
    }
    for (i, label) in Simulation::SETUP_PHASE_LABELS.iter().enumerate() {
        let us = prof.nanos(i) as f64 / prof.count(i).max(1) as f64 / 1e3;
        put(out, format!("core.setup.{label}_us_per_trial"), us);
    }
    let setup_ns = prof.total_nanos() as f64;
    put(
        out,
        "core.setup.frac",
        setup_ns / (setup_ns + loop_ns as f64),
    );
}

/// The profiled event loop on the slice's heaviest point (1 GiB groups,
/// 30 s detection, FARM). Returns the median queue depth it saw.
fn core_loop(tr: &mut Tracer, out: &mut Values) -> usize {
    const TRIALS: u64 = 6;
    let prepared = Arc::new(PreparedConfig::new(workloads::slice_heavy_config()));
    let mut sim = Simulation::from_shared(Arc::clone(&prepared), derive_seed(MC_SEED, 0));
    let mut prof = EventProfile::new(farm_core::Event::KIND_LABELS);
    let mut rebuilds = 0u64;
    for t in 0..TRIALS {
        if t > 0 {
            tr.span("core", "recycle", |_| {
                sim.recycle(&prepared, derive_seed(MC_SEED, t))
            });
        }
        sim.enable_profiling();
        let m = tr.span("core", "run_until_loss", |_| sim.run_until_loss());
        rebuilds += m.rebuilds_completed;
        prof.merge(&sim.take_profile().expect("profiling was enabled"));
    }
    let events = prof.total_events();
    put(
        out,
        "core.loop.ns_per_event",
        prof.total_nanos() as f64 / events.max(1) as f64,
    );
    for (i, label) in farm_core::Event::KIND_LABELS.iter().enumerate() {
        let ns = prof.nanos(i) as f64 / prof.count(i).max(1) as f64;
        put(out, format!("core.loop.{label}.ns_per_event"), ns);
    }
    put(
        out,
        "core.loop.events_per_trial",
        events as f64 / TRIALS as f64,
    );
    let done = prof.count(2).max(1) as f64;
    put(
        out,
        "core.loop.stale_rebuild_frac",
        1.0 - rebuilds as f64 / done,
    );
    let depth = prof.queue_depth();
    put(out, "des.queue.depth_p50", depth.p50());
    put(out, "des.queue.depth_p99", depth.p99());
    depth.p50().round().max(1.0) as usize
}

/// `EventQueue::schedule` + `pop` in the hold model: the queue stays at
/// `depth` while each pop reschedules its event a random increment
/// later. Increments are generated up front from the seed.
fn des_queue(depth: usize, rng: &mut Rng, tr: &mut Tracer, out: &mut Values) {
    let incr: Vec<f64> = (0..4096)
        .map(|_| -(1.0 - rng.unit()).ln() * 3600.0)
        .collect();
    let mut q: EventQueue<u64> = EventQueue::with_capacity(depth);
    for e in 0..depth as u64 {
        q.schedule(SimTime::from_secs(rng.unit() * 3600.0), e);
    }
    const BATCH: usize = 1 << 16;
    let mut i = 0usize;
    let batches_per_s = tr.span("des", "EventQueue::schedule+pop", |_| {
        rate(0.3, || {
            for _ in 0..BATCH {
                let (t, e) = q.pop().expect("the hold model keeps the queue full");
                q.schedule(SimTime::from_secs(t.as_secs() + incr[i & 4095]), e);
                i += 1;
            }
            black_box(&q);
        })
    });
    put(
        out,
        "des.queue.push_pop_ns",
        1e9 / (batches_per_s * BATCH as f64),
    );
}

/// Raw multi-lane RUSH draws per kernel, and whole initial placements.
fn placement(rng: &mut Rng, tr: &mut Tracer, out: &mut Values) {
    use farm_placement::kernel::{Kernel, LANES};
    let gkeys: [u64; LANES] = std::array::from_fn(|_| rng.next_u64());
    const N_IDX: usize = 16;
    let mut hashes = vec![0u64; N_IDX * LANES];
    for k in Kernel::ALL {
        let name = format!("placement.{}.draw_mhash_per_s", k.name());
        if !k.supported() {
            out.insert(
                name,
                Val::Null(format!("{} kernel not supported by this CPU", k.name())),
            );
            continue;
        }
        let calls = tr.span("placement", "Kernel::run", |_| {
            rate(0.15, || {
                for _ in 0..64 {
                    k.run(black_box(&gkeys), N_IDX, &mut hashes);
                }
                black_box(&hashes);
            })
        });
        put(out, name, calls * 64.0 * (N_IDX * LANES) as f64 / 1e6);
    }

    // Placement phase of profiled recycles of the 1 GiB-group config.
    const RECYCLES: u64 = 6;
    let prepared = Arc::new(PreparedConfig::new(workloads::slice_heavy_config()));
    let mut sim = Simulation::from_shared(Arc::clone(&prepared), derive_seed(MC_SEED, 0));
    let groups = sim.layout().n_groups() as f64;
    let mut prof = EventProfile::new(Simulation::SETUP_PHASE_LABELS);
    for t in 1..=RECYCLES {
        tr.span("core", "recycle_profiled", |_| {
            sim.recycle_profiled(&prepared, derive_seed(MC_SEED, t), &mut prof)
        });
    }
    let secs = prof.nanos(2) as f64 / 1e9;
    put(
        out,
        "placement.place_all_groups_kgroups_per_s",
        RECYCLES as f64 * groups / secs / 1e3,
    );
}

/// The chunk fold, the two-thread speed-up of the time to target, and
/// the convergence figures of that run.
fn montecarlo(reference: &Reference, tr: &mut Tracer, checks: &mut Checks, out: &mut Values) {
    let target_only = ObsOptions {
        target_rel_ci: Some(workloads::TARGET_REL_CI),
        ..ObsOptions::off()
    };
    let (t1, summary) = workloads::run_to_target(&target_only, 1, reference, tr, checks);
    let threads = workloads::target_threads();
    if threads >= 2 {
        let (t2, _) = workloads::run_to_target(&target_only, threads, reference, tr, checks);
        put(out, "montecarlo.speedup_2t", t1 / t2);
    } else {
        out.insert(
            "montecarlo.speedup_2t".into(),
            Val::Null("host has one CPU: no two-thread run".into()),
        );
    }
    put(out, "convergence.trials_to_target", summary.trials() as f64);
    put(
        out,
        "convergence.final_rel_half_width",
        summary.p_loss.rel_half_width().unwrap_or(f64::NAN),
    );

    // The unfolded chunks of the same trials fold to the same summary.
    let trials = summary.trials();
    let total = n_chunks(trials);
    let cfg = workloads::raid_config();
    let chunks = tr.span("core", "run_trial_chunks_observed", |_| {
        run_trial_chunks_observed(
            &cfg,
            MC_SEED,
            trials,
            0,
            total,
            TrialMode::UntilLoss,
            threads,
            &ObsOptions::off(),
        )
    });
    const FOLDS: usize = 15;
    let mut copies: Vec<Vec<(u64, McSummary)>> = (0..FOLDS).map(|_| chunks.clone()).collect();
    let mut secs = Vec::with_capacity(FOLDS);
    let mut folded = None;
    while let Some(c) = copies.pop() {
        let start = Instant::now();
        let f = tr.span("core", "fold_chunk_summaries", |_| {
            fold_chunk_summaries(c, total)
        });
        secs.push(start.elapsed().as_secs_f64());
        folded = Some(f);
    }
    match folded.expect("at least one fold") {
        Ok(s) => reference.check(
            checks,
            "raid_to_target",
            "summary",
            &digest(&s.to_compact()),
        ),
        Err(e) => checks.check(false, || format!("fold_chunk_summaries: {e}")),
    }
    put(
        out,
        "montecarlo.fold_us_per_chunk",
        median(&secs) * 1e6 / total as f64,
    );
}

/// Observability sinks, one per child process so each installs its own
/// process-global monitor. Every variant runs the same trials of the
/// `raid_to_target` point on one thread; overheads are against one
/// shared control with everything off, and spans against a control of
/// their own smaller trial count.
const OBS_VARIANTS: [&str; 7] = [
    "off",
    "timeline",
    "postmortem",
    "status",
    "http",
    "convergence",
    "all",
];
const OBS_TRIALS: u64 = 320;
const SPANS_TRIALS: u64 = 16;
const OBS_ROUNDS: usize = 5;

/// Observability options for a child variant, artifacts under `dir`.
fn obs_variant(variant: &str, dir: &Path) -> Option<ObsOptions> {
    let path = |f: &str| dir.join(f).to_string_lossy().into_owned();
    let timeline = || {
        Some(TimelineSpec {
            path: path("timeline.csv"),
            interval_secs: None,
        })
    };
    let status = || {
        Some(StatusSpec {
            path: path("status.json"),
            interval_secs: None,
        })
    };
    let convergence = || {
        Some(ConvergenceSpec {
            path: path("convergence.jsonl"),
            base_trials: None,
        })
    };
    let off = ObsOptions::off();
    Some(match variant {
        "off" | "spans_off" => off,
        "timeline" => ObsOptions {
            timeline: timeline(),
            ..off
        },
        "postmortem" => ObsOptions {
            postmortem: Some(path("postmortem.jsonl")),
            ..off
        },
        "status" => ObsOptions {
            status: status(),
            ..off
        },
        "http" => ObsOptions {
            http: Some("127.0.0.1:0".into()),
            ..off
        },
        "convergence" => ObsOptions {
            convergence: convergence(),
            ..off
        },
        "all" => ObsOptions {
            timeline: timeline(),
            postmortem: Some(path("postmortem.jsonl")),
            status: status(),
            http: Some("127.0.0.1:0".into()),
            convergence: convergence(),
            ..off
        },
        "spans" => ObsOptions {
            spans: Some(SpansSpec {
                path: path("spans.jsonl"),
                format: SpanFormat::Jsonl,
            }),
            ..off
        },
        _ => return None,
    })
}

fn obs_trials(variant: &str) -> u64 {
    if variant.starts_with("spans") {
        SPANS_TRIALS
    } else {
        OBS_TRIALS
    }
}

/// The child side: run the variant and print `<wall_s> <digest>`.
pub fn obs_child(variant: &str, dir: &Path) -> Result<(), String> {
    let obs = obs_variant(variant, dir).ok_or_else(|| format!("unknown variant {variant}"))?;
    let cfg = workloads::raid_config();
    let start = Instant::now();
    let (summary, _) = run_trials_observed(
        &cfg,
        MC_SEED,
        obs_trials(variant),
        TrialMode::UntilLoss,
        1,
        &obs,
    );
    let wall = start.elapsed().as_secs_f64();
    println!("{wall} {}", digest(&summary.to_compact()));
    Ok(())
}

/// Run one child; returns its wall seconds and summary digest.
fn spawn_obs_child(variant: &str, dir: &Path, checks: &mut Checks) -> Option<(f64, String)> {
    let exe = std::env::current_exe().expect("path of the running benchmark");
    std::fs::create_dir_all(dir).expect("create the probe's artifact directory");
    let output = std::process::Command::new(exe)
        .arg("--obs-child")
        .arg(variant)
        .arg(dir)
        .stdin(std::process::Stdio::null())
        .output();
    let parsed = output.ok().filter(|o| o.status.success()).and_then(|o| {
        let text = String::from_utf8_lossy(&o.stdout).into_owned();
        let mut f = text.split_whitespace();
        let wall = f.next()?.parse::<f64>().ok()?;
        Some((wall, f.next()?.to_string()))
    });
    checks.check(parsed.is_some(), || format!("obs child {variant} failed"));
    parsed
}

fn obs(tmp: &Path, tr: &mut Tracer, checks: &mut Checks, out: &mut Values) {
    let mut walls: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut digests: BTreeMap<&str, Vec<String>> = BTreeMap::new();
    let mut spans_bytes = Vec::new();
    let mut variants: Vec<&str> = OBS_VARIANTS.to_vec();
    variants.extend(["spans_off", "spans"]);
    for round in 0..OBS_ROUNDS {
        // Rotate the order so no variant always runs first.
        variants.rotate_left(round.min(1) * 3);
        for &v in &variants {
            let dir = tmp.join(format!("obs-{v}-{round}"));
            let got = tr.span("obs", "child", |_| spawn_obs_child(v, &dir, checks));
            if v == "spans" {
                let bytes = std::fs::metadata(dir.join("spans.jsonl")).map_or(0, |m| m.len());
                spans_bytes.push(bytes as f64);
            }
            // Artifacts can be large (spans): delete them as we go.
            let _ = std::fs::remove_dir_all(&dir);
            if let Some((wall, d)) = got {
                walls.entry(v).or_default().push(wall);
                digests.entry(v).or_default().push(d);
            }
        }
    }
    // An observer must never change what it observes.
    for (v, ds) in &digests {
        let control = if v.starts_with("spans") {
            "spans_off"
        } else {
            "off"
        };
        let want = digests.get(control).and_then(|c| c.first());
        checks.check(ds.iter().all(|d| Some(d) == want), || {
            format!("obs variant {v} changed the summary")
        });
    }
    let med = |v: &str| walls.get(v).map_or(f64::NAN, |w| median(w));
    for v in &OBS_VARIANTS[1..] {
        put(
            out,
            format!("obs.{v}.overhead_frac"),
            med(v) / med("off") - 1.0,
        );
    }
    put(
        out,
        "obs.spans.overhead_frac",
        med("spans") / med("spans_off") - 1.0,
    );
    put(
        out,
        "obs.spans.bytes_per_trial",
        median(&spans_bytes) / SPANS_TRIALS as f64,
    );
}

/// GF(2^8) region kernels on 64 KiB, and RS 4/6 (the OSD scheme) encode
/// and reconstruct of 64 KiB blocks with the active kernel.
fn erasure(rng: &mut Rng, tr: &mut Tracer, checks: &mut Checks, out: &mut Values) {
    use farm_erasure::gf256::kernel::{self, Kernel};
    const REGION: usize = 64 << 10;
    let mut src = vec![0u8; REGION];
    rng.fill(&mut src);
    let mut dst = vec![0u8; REGION];
    for k in Kernel::ALL {
        let name = format!("erasure.{}.mul_xor_64k_mb_per_s", k.name());
        if !k.supported() {
            out.insert(
                name,
                Val::Null(format!("{} kernel not supported by this CPU", k.name())),
            );
            continue;
        }
        let calls = tr.span("erasure", "mul_slice_xor", |_| {
            rate(0.15, || {
                kernel::mul_slice_xor(k, 0x57, black_box(&src), &mut dst);
            })
        });
        put(out, name, calls * REGION as f64 / 1e6);
    }

    let scheme = workloads::osd_scheme();
    let m = scheme.m as usize;
    let codec = scheme.codec();
    let data: Vec<Vec<u8>> = (0..m)
        .map(|_| {
            let mut d = vec![0u8; workloads::BLOCK_BYTES];
            rng.fill(&mut d);
            d
        })
        .collect();
    let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
    let group_bytes = (m * workloads::BLOCK_BYTES) as f64;
    let enc = tr.span("erasure", "Codec::encode", |_| {
        rate(0.2, || {
            black_box(codec.encode(black_box(&refs)));
        })
    });
    put(out, "erasure.rs_encode_mb_per_s", enc * group_bytes / 1e6);

    // Lose the first two data blocks: the most work a 4/6 group can need.
    let full: Vec<Vec<u8>> = data.iter().cloned().chain(codec.encode(&refs)).collect();
    let mut ok = true;
    let rec = tr.span("erasure", "Codec::reconstruct", |_| {
        rate(0.2, || {
            let mut blocks: Vec<Option<Vec<u8>>> = full.iter().cloned().map(Some).collect();
            blocks[0] = None;
            blocks[1] = None;
            ok &= codec.reconstruct(&mut blocks) && blocks[0].as_deref() == Some(&data[0][..]);
            black_box(blocks);
        })
    });
    checks.check(ok, || "RS 4/6 reconstruct returned wrong bytes".into());
    put(
        out,
        "erasure.rs_reconstruct_mb_per_s",
        rec * group_bytes / 1e6,
    );
}

/// Per-operation latencies over three `osd_mix` repetitions.
fn osd(seed: u64, tr: &mut Tracer, checks: &mut Checks, out: &mut Values) {
    const REPS: usize = 3;
    let mut mix = OsdMix::new(seed);
    let (mut put_us, mut get_us, mut deg_us) = (Vec::new(), Vec::new(), Vec::new());
    let (mut blocks, mut scrub) = (Vec::new(), Vec::new());
    for _ in 0..REPS {
        mix.run_once(tr, checks);
        put_us.extend_from_slice(&mix.last.put);
        get_us.extend_from_slice(&mix.last.get);
        deg_us.extend_from_slice(&mix.last.degraded_get);
        blocks.push(mix.last.recover_blocks as f64);
        scrub.push(mix.last.scrub_groups_per_s);
    }
    for (op, v) in [
        ("put", &mut put_us),
        ("get", &mut get_us),
        ("degraded_get", &mut deg_us),
    ] {
        put(out, format!("osd.{op}.us_p50"), crate::quantile(v, 0.5));
        put(out, format!("osd.{op}.us_p99"), crate::quantile(v, 0.99));
    }
    put(out, "osd.recover.blocks", median(&blocks));
    put(out, "osd.scrub.groups_per_s", median(&scrub));
}
