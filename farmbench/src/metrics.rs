//! The metric tables `BENCHMARK.json` lists, with what each per-layer
//! metric measures and which end-to-end metric, on which workload, it
//! should move.

/// End-to-end metrics, measured with tracing off: name and unit.
pub const END_TO_END: [(&str, &str); 3] =
    [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB")];

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// The crate (or `bench`, the benchmark's own work) it measures.
    pub layer: &'static str,
    /// The end-to-end metric it should move ...
    pub moves: &'static str,
    /// ... and on which workload.
    pub workload: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    layer: &'static str,
    moves: &'static str,
    workload: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        layer,
        moves,
        workload,
    }
}

const SLICE: &str = "paper_slice";
const FIG3: &str = "fig3_sweep";
const RAID: &str = "raid_to_target";
const OSD: &str = "osd_mix";

/// Per-layer metrics, emitted by the traced run of every workload.
pub const PER_LAYER: &[Metric] = &[
    m("experiments.fig3.s", "s", "experiments", "wall_s", SLICE),
    m("experiments.fig4.s", "s", "experiments", "wall_s", SLICE),
    m("experiments.fig5.s", "s", "experiments", "wall_s", SLICE),
    m("experiments.fig6.s", "s", "experiments", "wall_s", SLICE),
    m("experiments.fig7.s", "s", "experiments", "wall_s", SLICE),
    m("experiments.fig8.s", "s", "experiments", "wall_s", SLICE),
    m(
        "experiments.redirection.s",
        "s",
        "experiments",
        "wall_s",
        SLICE,
    ),
    m(
        "experiments.ablations.s",
        "s",
        "experiments",
        "wall_s",
        SLICE,
    ),
    m("experiments.latent.s", "s", "experiments", "wall_s", SLICE),
    m(
        "core.setup.reset_us_per_trial",
        "us",
        "core",
        "wall_s",
        FIG3,
    ),
    m(
        "core.setup.disks_us_per_trial",
        "us",
        "core",
        "wall_s",
        FIG3,
    ),
    m(
        "core.setup.placement_us_per_trial",
        "us",
        "core",
        "wall_s",
        FIG3,
    ),
    m("core.setup.frac", "fraction", "core", "wall_s", FIG3),
    m("core.loop.ns_per_event", "ns", "core", "wall_s", SLICE),
    m(
        "core.loop.failure.ns_per_event",
        "ns",
        "core",
        "wall_s",
        SLICE,
    ),
    m(
        "core.loop.detect.ns_per_event",
        "ns",
        "core",
        "wall_s",
        SLICE,
    ),
    m(
        "core.loop.rebuild_done.ns_per_event",
        "ns",
        "core",
        "wall_s",
        SLICE,
    ),
    m(
        "core.loop.events_per_trial",
        "count",
        "core",
        "wall_s",
        SLICE,
    ),
    m(
        "core.loop.stale_rebuild_frac",
        "fraction",
        "core",
        "wall_s",
        SLICE,
    ),
    m("des.queue.depth_p50", "count", "des", "wall_s", SLICE),
    m("des.queue.depth_p99", "count", "des", "wall_s", SLICE),
    m("des.queue.push_pop_ns", "ns", "des", "wall_s", SLICE),
    m(
        "placement.scalar.draw_mhash_per_s",
        "Mhash/s",
        "placement",
        "wall_s",
        FIG3,
    ),
    m(
        "placement.sse2.draw_mhash_per_s",
        "Mhash/s",
        "placement",
        "wall_s",
        FIG3,
    ),
    m(
        "placement.avx2.draw_mhash_per_s",
        "Mhash/s",
        "placement",
        "wall_s",
        FIG3,
    ),
    m(
        "placement.avx512.draw_mhash_per_s",
        "Mhash/s",
        "placement",
        "wall_s",
        FIG3,
    ),
    m(
        "placement.place_all_groups_kgroups_per_s",
        "kgroups/s",
        "placement",
        "wall_s",
        FIG3,
    ),
    m("montecarlo.fold_us_per_chunk", "us", "core", "wall_s", RAID),
    m("montecarlo.speedup_2t", "x", "core", "wall_s", RAID),
    m(
        "convergence.trials_to_target",
        "count",
        "obs",
        "wall_s",
        RAID,
    ),
    m(
        "convergence.final_rel_half_width",
        "fraction",
        "obs",
        "wall_s",
        RAID,
    ),
    m(
        "obs.timeline.overhead_frac",
        "fraction",
        "obs",
        "wall_s",
        RAID,
    ),
    m(
        "obs.postmortem.overhead_frac",
        "fraction",
        "obs",
        "wall_s",
        RAID,
    ),
    m(
        "obs.status.overhead_frac",
        "fraction",
        "obs",
        "wall_s",
        RAID,
    ),
    m("obs.http.overhead_frac", "fraction", "obs", "wall_s", RAID),
    m(
        "obs.convergence.overhead_frac",
        "fraction",
        "obs",
        "wall_s",
        RAID,
    ),
    m("obs.all.overhead_frac", "fraction", "obs", "wall_s", RAID),
    m("obs.spans.overhead_frac", "fraction", "obs", "wall_s", RAID),
    m("obs.spans.bytes_per_trial", "bytes", "obs", "wall_s", RAID),
    m(
        "erasure.scalar.mul_xor_64k_mb_per_s",
        "MB/s",
        "erasure",
        "write_mb_per_s",
        OSD,
    ),
    m(
        "erasure.ssse3.mul_xor_64k_mb_per_s",
        "MB/s",
        "erasure",
        "write_mb_per_s",
        OSD,
    ),
    m(
        "erasure.avx2.mul_xor_64k_mb_per_s",
        "MB/s",
        "erasure",
        "write_mb_per_s",
        OSD,
    ),
    m(
        "erasure.rs_encode_mb_per_s",
        "MB/s",
        "erasure",
        "write_mb_per_s",
        OSD,
    ),
    m(
        "erasure.rs_reconstruct_mb_per_s",
        "MB/s",
        "erasure",
        "recover_mb_per_s",
        OSD,
    ),
    m("osd.put.us_p50", "us", "osd", "write_mb_per_s", OSD),
    m("osd.put.us_p99", "us", "osd", "write_mb_per_s", OSD),
    m("osd.get.us_p50", "us", "osd", "read_mb_per_s", OSD),
    m("osd.get.us_p99", "us", "osd", "read_mb_per_s", OSD),
    m(
        "osd.degraded_get.us_p50",
        "us",
        "osd",
        "degraded_read_mb_per_s",
        OSD,
    ),
    m(
        "osd.degraded_get.us_p99",
        "us",
        "osd",
        "degraded_read_mb_per_s",
        OSD,
    ),
    m(
        "osd.recover.blocks",
        "count",
        "osd",
        "recover_mb_per_s",
        OSD,
    ),
    m("osd.scrub.groups_per_s", "groups/s", "osd", "wall_s", OSD),
    // The traced run's own figures: its overhead on the traced workload
    // and each layer's self time over the whole traced run.
    m(
        "trace.overhead_frac",
        "fraction",
        "bench",
        "wall_s",
        "traced workload",
    ),
    m(
        "trace.self_s.bench",
        "s",
        "bench",
        "wall_s",
        "traced workload",
    ),
    m(
        "trace.self_s.experiments",
        "s",
        "experiments",
        "wall_s",
        SLICE,
    ),
    m("trace.self_s.core", "s", "core", "wall_s", FIG3),
    m("trace.self_s.des", "s", "des", "wall_s", SLICE),
    m("trace.self_s.placement", "s", "placement", "wall_s", FIG3),
    m("trace.self_s.obs", "s", "obs", "wall_s", RAID),
    m(
        "trace.self_s.erasure",
        "s",
        "erasure",
        "write_mb_per_s",
        OSD,
    ),
    m("trace.self_s.osd", "s", "osd", "wall_s", OSD),
];
