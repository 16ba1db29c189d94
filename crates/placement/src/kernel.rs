//! Runtime-dispatched multi-lane kernels for batched RUSH draw hashing.
//!
//! Initial placement hashes one attempt-0 draw per (group, candidate
//! index) — at paper scale tens of thousands of dependent `combine`
//! chains per trial, the bulk of trial setup time (farmbench's
//! `core.setup.placement_us_per_trial` probe times it). Each chain is only ~12 sequential multiplies, so a
//! single walk is latency-bound; but the chains of *different groups*
//! are independent, which is exactly the shape SIMD (and scalar
//! instruction-level parallelism) eats: compute candidate index `i` for
//! [`LANES`] groups at once, keeping eight multiply chains in flight.
//!
//! A kernel computes only the *attempt-0, single-cluster* within-hash
//!
//! ```text
//! H(gkey, i) = combine(combine(combine(combine(gkey, i), 0), 0), 0xD2)
//! ```
//!
//! — the value `Rush::draw_with_prefix` folds for the common uniform
//! map. Everything downstream of the hash (magic-number remainder →
//! disk id, dedup, collision attempts ≥ 1, multi-cluster descent, the
//! linear-probe fallback) stays on the sequential scalar path, so the
//! emitted draw sequence is byte-identical to the unbatched walk *by
//! construction*: the kernels are pinned to the scalar `combine` chain
//! lane by lane (`hashes_match_the_scalar_combine_chain` below) and the
//! whole layout is pinned per kernel by
//! `tests/placement_kernel_identity.rs` at the workspace root.
//!
//! Dispatch mirrors `farm_erasure::gf256::kernel`: probed once per
//! process with `is_x86_feature_detected!`, cached in a process-global
//! atomic, overridable with `FARM_PLACE_KERNEL=scalar|sse2|avx2|avx512`
//! (an unsupported or unknown value logs one stderr notice and falls
//! back to autodetection rather than crashing). The batched engine as a
//! whole — prehashing *and* the memoized walk prefixes it feeds (see
//! `farm_core`'s `GroupLayout`) — can be switched off with
//! [`set_engine_enabled`]; the sequential walk that leaves is the
//! reference the identity tests compare the engine against.

use crate::hash::{self, COMBINE_A, COMBINE_B, MIX_INC, MIX_M1, MIX_M2};
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};

/// Groups hashed per batched round. Eight 64-bit lanes fill two AVX2
/// registers, four SSE2 registers, or eight scalar chains — enough to
/// hide the ~3-cycle multiply latency on every path.
pub const LANES: usize = 8;

/// `0xD2 * COMBINE_B`: the tag word's side of the final `combine`,
/// lane-uniform and therefore folded once per batch.
const D2_B: u64 = 0xD2u64.wrapping_mul(COMBINE_B);

/// One batched placement-hash kernel. `Scalar` is the portable
/// reference (eight independent chains, ILP only); `Sse2` and `Avx2`
/// vectorize the chain across 64-bit lanes with a composed
/// three-`mul_epu32` 64-bit multiply; `Avx512` holds all eight lanes in
/// one register and multiplies natively (`vpmullq`, AVX-512DQ). All
/// four compute the identical function.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Kernel {
    Scalar = 0,
    Sse2 = 1,
    Avx2 = 2,
    Avx512 = 3,
}

impl Kernel {
    pub const ALL: [Kernel; 4] = [Kernel::Scalar, Kernel::Sse2, Kernel::Avx2, Kernel::Avx512];

    pub fn name(self) -> &'static str {
        match self {
            Kernel::Scalar => "scalar",
            Kernel::Sse2 => "sse2",
            Kernel::Avx2 => "avx2",
            Kernel::Avx512 => "avx512",
        }
    }

    pub fn parse(s: &str) -> Option<Kernel> {
        match s.trim().to_ascii_lowercase().as_str() {
            "scalar" => Some(Kernel::Scalar),
            "sse2" => Some(Kernel::Sse2),
            "avx2" => Some(Kernel::Avx2),
            "avx512" => Some(Kernel::Avx512),
            _ => None,
        }
    }

    /// Can this kernel run on the current CPU? (SSE2 is part of the
    /// x86-64 baseline, so on that target it is always available.)
    pub fn supported(self) -> bool {
        match self {
            Kernel::Scalar => true,
            #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
            Kernel::Sse2 => is_x86_feature_detected!("sse2"),
            #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
            Kernel::Avx2 => is_x86_feature_detected!("avx2"),
            #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
            Kernel::Avx512 => {
                is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512dq")
            }
            #[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
            _ => false,
        }
    }

    /// The kernel runtime dispatch would pick: the widest supported one.
    pub fn detect() -> Kernel {
        if Kernel::Avx512.supported() {
            Kernel::Avx512
        } else if Kernel::Avx2.supported() {
            Kernel::Avx2
        } else if Kernel::Sse2.supported() {
            Kernel::Sse2
        } else {
            Kernel::Scalar
        }
    }

    fn from_u8(v: u8) -> Option<Kernel> {
        Kernel::ALL.into_iter().find(|k| *k as u8 == v)
    }

    /// Startup selection: `FARM_PLACE_KERNEL` if set, valid and
    /// supported; autodetection otherwise. Unknown or unsupported
    /// requests log one stderr notice instead of crashing — an env
    /// typo must never take down a batch.
    fn from_env() -> Kernel {
        let detected = Kernel::detect();
        match std::env::var("FARM_PLACE_KERNEL") {
            Ok(raw) => match Kernel::parse(&raw) {
                Some(k) if k.supported() => k,
                Some(k) => {
                    eprintln!(
                        "farm-placement: FARM_PLACE_KERNEL={} is not supported on this CPU; \
                         falling back to {}",
                        k.name(),
                        detected.name()
                    );
                    detected
                }
                None => {
                    eprintln!(
                        "farm-placement: unknown FARM_PLACE_KERNEL={raw:?} \
                         (expected scalar|sse2|avx2|avx512); falling back to {}",
                        detected.name()
                    );
                    detected
                }
            },
            Err(_) => detected,
        }
    }

    /// Fill `out[i * LANES + l]` with `H(gkeys[l], i)` for candidate
    /// indices `0..n_idx` — index-major so each vector round stores one
    /// contiguous [`LANES`]-wide row. `out` must hold at least
    /// `n_idx * LANES` words.
    pub fn run(self, gkeys: &[u64; LANES], n_idx: usize, out: &mut [u64]) {
        assert!(out.len() >= n_idx * LANES, "output buffer too small");
        assert!(self.supported(), "kernel {self} not supported on this CPU");
        match self {
            Kernel::Scalar => draw_hashes_scalar(gkeys, n_idx, out),
            #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
            // SAFETY: `supported()` verified the ISA above.
            Kernel::Sse2 => unsafe { draw_hashes_sse2(gkeys, n_idx, out) },
            #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
            // SAFETY: `supported()` verified the ISA above.
            Kernel::Avx2 => unsafe { draw_hashes_avx2(gkeys, n_idx, out) },
            #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
            // SAFETY: `supported()` verified the ISA above.
            Kernel::Avx512 => unsafe { draw_hashes_avx512(gkeys, n_idx, out) },
            #[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
            _ => unreachable!("non-x86 builds only support the scalar kernel"),
        }
    }

    /// [`Kernel::run`] over a whole *strip* of `rounds * LANES`
    /// consecutive groups, folding each lane's group key
    /// `combine(prefix, base_group + r·LANES + l)` inside the kernel:
    /// `out[(r * n_idx + i) * LANES + l]` receives `H(gkey, i)`. One
    /// call per strip amortizes the dispatch, constant broadcasts and
    /// key folding that a per-round [`Kernel::run`] pays every eight
    /// groups. AVX-512 runs the strip fused (the per-lane `group ·
    /// COMBINE_B` term advances by one vector add per round); the
    /// narrower kernels fold keys through the scalar `combine` and
    /// reuse their per-round cores — identical output either way.
    pub fn run_strip(
        self,
        prefix: u64,
        base_group: u64,
        rounds: usize,
        n_idx: usize,
        out: &mut [u64],
    ) {
        assert!(
            out.len() >= rounds * n_idx * LANES,
            "output buffer too small"
        );
        assert!(self.supported(), "kernel {self} not supported on this CPU");
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        if self == Kernel::Avx512 {
            // SAFETY: `supported()` verified AVX-512F + AVX-512DQ above.
            unsafe { draw_strip_avx512(prefix, base_group, rounds, n_idx, out) };
            return;
        }
        let row = n_idx * LANES;
        for r in 0..rounds {
            let base = base_group + (r * LANES) as u64;
            let gkeys: [u64; LANES] =
                std::array::from_fn(|l| hash::combine(prefix, base + l as u64));
            self.run(&gkeys, n_idx, &mut out[r * row..(r + 1) * row]);
        }
    }
}

impl std::fmt::Display for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// `u8::MAX` = not yet selected; any other value is a `Kernel`
/// discriminant.
const UNSELECTED: u8 = u8::MAX;

static ACTIVE: AtomicU8 = AtomicU8::new(UNSELECTED);

/// The process-wide active kernel, selecting on first use (environment
/// override, then autodetection).
pub fn active() -> Kernel {
    match Kernel::from_u8(ACTIVE.load(Ordering::Relaxed)) {
        Some(k) => k,
        None => {
            let k = Kernel::from_env();
            ACTIVE.store(k as u8, Ordering::Relaxed);
            k
        }
    }
}

/// Force the active kernel (tests and benchmarks compare kernels within
/// one process). Returns the previous selection. Panics if `k` cannot
/// run on this CPU.
pub fn set_active(k: Kernel) -> Kernel {
    assert!(k.supported(), "kernel {k} not supported on this CPU");
    let prev = active();
    ACTIVE.store(k as u8, Ordering::Relaxed);
    prev
}

/// [`Kernel::run`] through the process-wide active kernel.
#[inline]
pub fn draw_hashes(gkeys: &[u64; LANES], n_idx: usize, out: &mut [u64]) {
    active().run(gkeys, n_idx, out)
}

/// [`Kernel::run_strip`] through the process-wide active kernel.
#[inline]
pub fn draw_hashes_strip(
    prefix: u64,
    base_group: u64,
    rounds: usize,
    n_idx: usize,
    out: &mut [u64],
) {
    active().run_strip(prefix, base_group, rounds, n_idx, out)
}

// ----- engine toggle ------------------------------------------------------

static ENGINE: AtomicBool = AtomicBool::new(true);

/// Is the batched placement engine (prehashed draws + memoized walk
/// prefixes) enabled? On unless [`set_engine_enabled`] turned it off,
/// which falls back to the pure sequential walk everywhere. Results
/// are byte-identical either way.
pub fn engine_enabled() -> bool {
    ENGINE.load(Ordering::Relaxed)
}

/// Force the engine on or off (tests compare the two in one process).
/// Returns the previous setting.
pub fn set_engine_enabled(on: bool) -> bool {
    ENGINE.swap(on, Ordering::Relaxed)
}

// ----- scalar core --------------------------------------------------------

/// Eight independent chains per candidate index. Each chain is the
/// verbatim `hash::combine` arithmetic with the lane-uniform right-hand
/// sides (`i`, `0`, `0`, `0xD2`) pre-multiplied by `COMBINE_B`; the
/// compiler keeps the lanes in flight, hiding each chain's multiply
/// latency behind the others — that alone is worth ~2× over the
/// one-walk-at-a-time path.
fn draw_hashes_scalar(gkeys: &[u64; LANES], n_idx: usize, out: &mut [u64]) {
    #[inline(always)]
    fn mix(mut z: u64) -> u64 {
        z = z.wrapping_add(MIX_INC);
        z = (z ^ (z >> 30)).wrapping_mul(MIX_M1);
        z = (z ^ (z >> 27)).wrapping_mul(MIX_M2);
        z ^ (z >> 31)
    }
    for i in 0..n_idx {
        let i_b = (i as u64).wrapping_mul(COMBINE_B);
        let row = &mut out[i * LANES..(i + 1) * LANES];
        for (slot, &gkey) in row.iter_mut().zip(gkeys) {
            let mut h = mix(gkey.wrapping_mul(COMBINE_A) ^ i_b); // combine(gkey, i)
            h = mix(h.wrapping_mul(COMBINE_A)); // combine(·, 0)
            h = mix(h.wrapping_mul(COMBINE_A)); // combine(·, 0)
            h = mix(h.wrapping_mul(COMBINE_A) ^ D2_B); // combine(·, 0xD2)
            *slot = h;
        }
    }
}

// ----- x86 vector cores ---------------------------------------------------
//
// Neither SSE2 nor AVX2 has a 64×64→64 low multiply, so it is composed
// from three 32×32→64 `mul_epu32` halves:
//
//   a·c = (a_lo·c_lo) + ((a_lo·c_hi + a_hi·c_lo) << 32)
//
// The multiplier `c` is always a compile-time hash constant, so its two
// broadcast halves are hoisted out of the loop. The rest of `mix64` /
// `combine` is shifts, XORs and one 64-bit add — all native at both
// widths. The per-index chain is the same four `combine`s as the scalar
// core, wrapping arithmetic throughout, hence bit-identical output.

#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
mod x86 {
    use super::{COMBINE_A, COMBINE_B, D2_B, LANES, MIX_INC, MIX_M1, MIX_M2};
    #[cfg(target_arch = "x86")]
    use std::arch::x86::*;
    #[cfg(target_arch = "x86_64")]
    use std::arch::x86_64::*;

    /// SAFETY: caller verified SSE2 (x86-64 baseline; probed on x86).
    #[target_feature(enable = "sse2")]
    pub unsafe fn draw_hashes_sse2(gkeys: &[u64; LANES], n_idx: usize, out: &mut [u64]) {
        // `a * c` per 64-bit lane, `c` a constant with hoisted halves.
        #[inline(always)]
        unsafe fn mul64(a: __m128i, c: __m128i, c_hi: __m128i) -> __m128i {
            let cross = _mm_add_epi64(
                _mm_mul_epu32(a, c_hi),
                _mm_mul_epu32(_mm_srli_epi64::<32>(a), c),
            );
            _mm_add_epi64(_mm_mul_epu32(a, c), _mm_slli_epi64::<32>(cross))
        }
        #[inline(always)]
        unsafe fn mix(
            mut z: __m128i,
            inc: __m128i,
            m1: __m128i,
            m1h: __m128i,
            m2: __m128i,
            m2h: __m128i,
        ) -> __m128i {
            z = _mm_add_epi64(z, inc);
            z = mul64(_mm_xor_si128(z, _mm_srli_epi64::<30>(z)), m1, m1h);
            z = mul64(_mm_xor_si128(z, _mm_srli_epi64::<27>(z)), m2, m2h);
            _mm_xor_si128(z, _mm_srli_epi64::<31>(z))
        }

        let a = _mm_set1_epi64x(COMBINE_A as i64);
        let a_hi = _mm_set1_epi64x((COMBINE_A >> 32) as i64);
        let inc = _mm_set1_epi64x(MIX_INC as i64);
        let m1 = _mm_set1_epi64x(MIX_M1 as i64);
        let m1h = _mm_set1_epi64x((MIX_M1 >> 32) as i64);
        let m2 = _mm_set1_epi64x(MIX_M2 as i64);
        let m2h = _mm_set1_epi64x((MIX_M2 >> 32) as i64);
        let d2b = _mm_set1_epi64x(D2_B as i64);
        // Four registers of two lanes each.
        let g: [__m128i; 4] =
            std::array::from_fn(|r| _mm_set_epi64x(gkeys[2 * r + 1] as i64, gkeys[2 * r] as i64));
        for i in 0..n_idx {
            let i_b = _mm_set1_epi64x((i as u64).wrapping_mul(COMBINE_B) as i64);
            for (r, &gk) in g.iter().enumerate() {
                let mut h = mix(
                    _mm_xor_si128(mul64(gk, a, a_hi), i_b),
                    inc,
                    m1,
                    m1h,
                    m2,
                    m2h,
                );
                h = mix(mul64(h, a, a_hi), inc, m1, m1h, m2, m2h);
                h = mix(mul64(h, a, a_hi), inc, m1, m1h, m2, m2h);
                h = mix(_mm_xor_si128(mul64(h, a, a_hi), d2b), inc, m1, m1h, m2, m2h);
                _mm_storeu_si128(out.as_mut_ptr().add(i * LANES + 2 * r) as *mut __m128i, h);
            }
        }
    }

    /// All eight lanes in one 512-bit register, with the native 64-bit
    /// low multiply (`vpmullq`) replacing the three-`mul_epu32`
    /// composition — the chain is twelve multiplies per candidate row
    /// instead of thirty-six 32×32 halves plus their shifts and adds.
    ///
    /// SAFETY: caller verified AVX-512F + AVX-512DQ via
    /// `is_x86_feature_detected!`.
    #[target_feature(enable = "avx512f,avx512dq")]
    pub unsafe fn draw_hashes_avx512(gkeys: &[u64; LANES], n_idx: usize, out: &mut [u64]) {
        #[inline(always)]
        unsafe fn mix(mut z: __m512i, inc: __m512i, m1: __m512i, m2: __m512i) -> __m512i {
            z = _mm512_add_epi64(z, inc);
            z = _mm512_mullo_epi64(_mm512_xor_si512(z, _mm512_srli_epi64::<30>(z)), m1);
            z = _mm512_mullo_epi64(_mm512_xor_si512(z, _mm512_srli_epi64::<27>(z)), m2);
            _mm512_xor_si512(z, _mm512_srli_epi64::<31>(z))
        }

        let a = _mm512_set1_epi64(COMBINE_A as i64);
        let inc = _mm512_set1_epi64(MIX_INC as i64);
        let m1 = _mm512_set1_epi64(MIX_M1 as i64);
        let m2 = _mm512_set1_epi64(MIX_M2 as i64);
        let d2b = _mm512_set1_epi64(D2_B as i64);
        let b = _mm512_set1_epi64(COMBINE_B as i64);
        let g = _mm512_loadu_si512(gkeys.as_ptr() as *const _);
        // `i · COMBINE_B` advances by one wrapping add per row.
        let mut i_b = _mm512_setzero_si512();
        for i in 0..n_idx {
            let mut h = mix(_mm512_xor_si512(_mm512_mullo_epi64(g, a), i_b), inc, m1, m2);
            h = mix(_mm512_mullo_epi64(h, a), inc, m1, m2);
            h = mix(_mm512_mullo_epi64(h, a), inc, m1, m2);
            h = mix(_mm512_xor_si512(_mm512_mullo_epi64(h, a), d2b), inc, m1, m2);
            _mm512_storeu_si512(out.as_mut_ptr().add(i * LANES) as *mut _, h);
            i_b = _mm512_add_epi64(i_b, b);
        }
    }

    /// Fused strip: group keys for `rounds * LANES` consecutive groups
    /// are folded in-register — the lane-l key operand `(base_group +
    /// r·LANES + l) · COMBINE_B` starts as one load and advances by a
    /// single vector add per round, so constants broadcast once per
    /// *strip* instead of once per eight groups.
    ///
    /// SAFETY: caller verified AVX-512F + AVX-512DQ via
    /// `is_x86_feature_detected!`.
    #[target_feature(enable = "avx512f,avx512dq")]
    pub unsafe fn draw_strip_avx512(
        prefix: u64,
        base_group: u64,
        rounds: usize,
        n_idx: usize,
        out: &mut [u64],
    ) {
        #[inline(always)]
        unsafe fn mix(mut z: __m512i, inc: __m512i, m1: __m512i, m2: __m512i) -> __m512i {
            z = _mm512_add_epi64(z, inc);
            z = _mm512_mullo_epi64(_mm512_xor_si512(z, _mm512_srli_epi64::<30>(z)), m1);
            z = _mm512_mullo_epi64(_mm512_xor_si512(z, _mm512_srli_epi64::<27>(z)), m2);
            _mm512_xor_si512(z, _mm512_srli_epi64::<31>(z))
        }

        let a = _mm512_set1_epi64(COMBINE_A as i64);
        let inc = _mm512_set1_epi64(MIX_INC as i64);
        let m1 = _mm512_set1_epi64(MIX_M1 as i64);
        let m2 = _mm512_set1_epi64(MIX_M2 as i64);
        let d2b = _mm512_set1_epi64(D2_B as i64);
        let b = _mm512_set1_epi64(COMBINE_B as i64);
        let pa = _mm512_set1_epi64(prefix.wrapping_mul(COMBINE_A) as i64);
        let step = _mm512_set1_epi64((LANES as u64).wrapping_mul(COMBINE_B) as i64);
        let lane_b: [u64; LANES] =
            std::array::from_fn(|l| (base_group + l as u64).wrapping_mul(COMBINE_B));
        let mut g_b = _mm512_loadu_si512(lane_b.as_ptr() as *const _);
        #[inline(always)]
        unsafe fn row(
            g: __m512i,
            i_b: __m512i,
            a: __m512i,
            d2b: __m512i,
            inc: __m512i,
            m1: __m512i,
            m2: __m512i,
        ) -> __m512i {
            let mut h = mix(_mm512_xor_si512(_mm512_mullo_epi64(g, a), i_b), inc, m1, m2);
            h = mix(_mm512_mullo_epi64(h, a), inc, m1, m2);
            h = mix(_mm512_mullo_epi64(h, a), inc, m1, m2);
            mix(_mm512_xor_si512(_mm512_mullo_epi64(h, a), d2b), inc, m1, m2)
        }
        // Each candidate row is twelve *sequential* multiplies, so a
        // single round is latency-bound; interleaving four independent
        // rounds keeps enough chains in flight to approach the multiply
        // throughput bound instead.
        let stride = n_idx * LANES;
        let mut r = 0usize;
        while r + 4 <= rounds {
            // gkey = combine(prefix, group), all eight lanes at once.
            let g0 = mix(_mm512_xor_si512(pa, g_b), inc, m1, m2);
            let g_b1 = _mm512_add_epi64(g_b, step);
            let g1 = mix(_mm512_xor_si512(pa, g_b1), inc, m1, m2);
            let g_b2 = _mm512_add_epi64(g_b1, step);
            let g2 = mix(_mm512_xor_si512(pa, g_b2), inc, m1, m2);
            let g_b3 = _mm512_add_epi64(g_b2, step);
            let g3 = mix(_mm512_xor_si512(pa, g_b3), inc, m1, m2);
            let base = out.as_mut_ptr().add(r * stride);
            let mut i_b = _mm512_setzero_si512();
            for i in 0..n_idx {
                let h0 = row(g0, i_b, a, d2b, inc, m1, m2);
                let h1 = row(g1, i_b, a, d2b, inc, m1, m2);
                let h2 = row(g2, i_b, a, d2b, inc, m1, m2);
                let h3 = row(g3, i_b, a, d2b, inc, m1, m2);
                _mm512_storeu_si512(base.add(i * LANES) as *mut _, h0);
                _mm512_storeu_si512(base.add(stride + i * LANES) as *mut _, h1);
                _mm512_storeu_si512(base.add(2 * stride + i * LANES) as *mut _, h2);
                _mm512_storeu_si512(base.add(3 * stride + i * LANES) as *mut _, h3);
                i_b = _mm512_add_epi64(i_b, b);
            }
            g_b = _mm512_add_epi64(g_b3, step);
            r += 4;
        }
        while r < rounds {
            let g = mix(_mm512_xor_si512(pa, g_b), inc, m1, m2);
            let base = out.as_mut_ptr().add(r * stride);
            let mut i_b = _mm512_setzero_si512();
            for i in 0..n_idx {
                let h = row(g, i_b, a, d2b, inc, m1, m2);
                _mm512_storeu_si512(base.add(i * LANES) as *mut _, h);
                i_b = _mm512_add_epi64(i_b, b);
            }
            g_b = _mm512_add_epi64(g_b, step);
            r += 1;
        }
    }

    /// SAFETY: caller verified AVX2 via `is_x86_feature_detected!`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn draw_hashes_avx2(gkeys: &[u64; LANES], n_idx: usize, out: &mut [u64]) {
        #[inline(always)]
        unsafe fn mul64(a: __m256i, c: __m256i, c_hi: __m256i) -> __m256i {
            let cross = _mm256_add_epi64(
                _mm256_mul_epu32(a, c_hi),
                _mm256_mul_epu32(_mm256_srli_epi64::<32>(a), c),
            );
            _mm256_add_epi64(_mm256_mul_epu32(a, c), _mm256_slli_epi64::<32>(cross))
        }
        #[inline(always)]
        unsafe fn mix(
            mut z: __m256i,
            inc: __m256i,
            m1: __m256i,
            m1h: __m256i,
            m2: __m256i,
            m2h: __m256i,
        ) -> __m256i {
            z = _mm256_add_epi64(z, inc);
            z = mul64(_mm256_xor_si256(z, _mm256_srli_epi64::<30>(z)), m1, m1h);
            z = mul64(_mm256_xor_si256(z, _mm256_srli_epi64::<27>(z)), m2, m2h);
            _mm256_xor_si256(z, _mm256_srli_epi64::<31>(z))
        }

        let a = _mm256_set1_epi64x(COMBINE_A as i64);
        let a_hi = _mm256_set1_epi64x((COMBINE_A >> 32) as i64);
        let inc = _mm256_set1_epi64x(MIX_INC as i64);
        let m1 = _mm256_set1_epi64x(MIX_M1 as i64);
        let m1h = _mm256_set1_epi64x((MIX_M1 >> 32) as i64);
        let m2 = _mm256_set1_epi64x(MIX_M2 as i64);
        let m2h = _mm256_set1_epi64x((MIX_M2 >> 32) as i64);
        let d2b = _mm256_set1_epi64x(D2_B as i64);
        // Two registers of four lanes each.
        let g: [__m256i; 2] = std::array::from_fn(|r| {
            _mm256_set_epi64x(
                gkeys[4 * r + 3] as i64,
                gkeys[4 * r + 2] as i64,
                gkeys[4 * r + 1] as i64,
                gkeys[4 * r] as i64,
            )
        });
        for i in 0..n_idx {
            let i_b = _mm256_set1_epi64x((i as u64).wrapping_mul(COMBINE_B) as i64);
            for (r, &gk) in g.iter().enumerate() {
                let mut h = mix(
                    _mm256_xor_si256(mul64(gk, a, a_hi), i_b),
                    inc,
                    m1,
                    m1h,
                    m2,
                    m2h,
                );
                h = mix(mul64(h, a, a_hi), inc, m1, m1h, m2, m2h);
                h = mix(mul64(h, a, a_hi), inc, m1, m1h, m2, m2h);
                h = mix(
                    _mm256_xor_si256(mul64(h, a, a_hi), d2b),
                    inc,
                    m1,
                    m1h,
                    m2,
                    m2h,
                );
                _mm256_storeu_si256(out.as_mut_ptr().add(i * LANES + 4 * r) as *mut __m256i, h);
            }
        }
    }
}

#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
use x86::{draw_hashes_avx2, draw_hashes_avx512, draw_hashes_sse2, draw_strip_avx512};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash;

    /// The readable specification of what a kernel must compute.
    fn reference(gkey: u64, i: u64) -> u64 {
        hash::combine(
            hash::combine(hash::combine(hash::combine(gkey, i), 0), 0),
            0xD2,
        )
    }

    #[test]
    fn parse_and_names_round_trip() {
        for k in Kernel::ALL {
            assert_eq!(Kernel::parse(k.name()), Some(k));
            assert_eq!(Kernel::parse(&k.name().to_uppercase()), Some(k));
            assert_eq!(Kernel::from_u8(k as u8), Some(k));
        }
        assert_eq!(Kernel::parse("neon"), None);
        assert_eq!(Kernel::parse(""), None);
    }

    #[test]
    fn detect_is_supported_and_active_is_stable() {
        assert!(Kernel::detect().supported());
        assert!(Kernel::Scalar.supported());
        let first = active();
        assert_eq!(active(), first, "active() must cache its selection");
    }

    #[test]
    fn hashes_match_the_scalar_combine_chain() {
        // Every supported kernel, pinned lane by lane and index by index
        // to the hash-module fold it batches. Cores are called directly
        // (not through the process-global dispatch) so this test cannot
        // race others over the ACTIVE atomic.
        let gkeys: [u64; LANES] =
            std::array::from_fn(|l| hash::combine(hash::hash_prefix(0xFA12), l as u64 * 31 + 7));
        let n_idx = 19; // odd, larger than any real scheme's n
        let mut want = vec![0u64; n_idx * LANES];
        for (i, row) in want.chunks_mut(LANES).enumerate() {
            for (l, slot) in row.iter_mut().enumerate() {
                *slot = reference(gkeys[l], i as u64);
            }
        }
        for k in Kernel::ALL.into_iter().filter(|k| k.supported()) {
            let mut got = vec![0u64; n_idx * LANES];
            k.run(&gkeys, n_idx, &mut got);
            assert_eq!(got, want, "kernel {k} diverged from the combine chain");
        }
    }

    #[test]
    fn strips_match_the_per_round_runs() {
        // `run_strip` must equal per-round `run` over scalar-folded
        // group keys on every supported kernel — including the fused
        // AVX-512 strip, whose in-register key folding is pinned here
        // against `hash::combine`.
        let prefix = hash::hash_prefix(0x2004);
        let base_group = 26_209; // crosses a non-trivial lane boundary
        let rounds = 5;
        let n_idx = 3;
        let mut want = vec![0u64; rounds * n_idx * LANES];
        for r in 0..rounds {
            for i in 0..n_idx {
                for l in 0..LANES {
                    let gkey = hash::combine(prefix, base_group + (r * LANES + l) as u64);
                    want[(r * n_idx + i) * LANES + l] = reference(gkey, i as u64);
                }
            }
        }
        for k in Kernel::ALL.into_iter().filter(|k| k.supported()) {
            let mut got = vec![0u64; rounds * n_idx * LANES];
            k.run_strip(prefix, base_group, rounds, n_idx, &mut got);
            assert_eq!(got, want, "kernel {k} strip diverged from per-round runs");
        }
    }

    #[test]
    fn engine_toggle_round_trips() {
        let initial = engine_enabled();
        let prev = set_engine_enabled(false);
        assert_eq!(prev, initial);
        assert!(!engine_enabled());
        set_engine_enabled(true);
        assert!(engine_enabled());
        set_engine_enabled(initial);
    }
}
