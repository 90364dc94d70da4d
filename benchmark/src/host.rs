//! Host ceilings measured in the same pass as the layers, for context:
//! a benchmark-local FMA chain and a 64 MiB triad on one thread, and the
//! simd crate's multiply-add as the kernels get it. They put rates in
//! proportion and are never gated.

use crate::harness::{time_lower_quartile, Layers};
use airshed::simd::F64x4;

/// Independent multiply-add chains: eight 4-lane vectors' worth, enough
/// to cover the FMA latency on two pipes.
const CHAINS: usize = 32;
const FMA_STEPS: usize = 2_000_000;
/// Elements of each triad array: 64 MiB of `f64`, many times the
/// last-level cache.
const TRIAD_LEN: usize = (64 << 20) / 8;

#[inline(always)]
fn fma_chains(fused: bool) -> [f64; CHAINS] {
    let m = std::hint::black_box(0.999_999f64);
    let c = std::hint::black_box(1e-7f64);
    let mut acc = [1.0f64; CHAINS];
    for _ in 0..FMA_STEPS {
        for a in &mut acc {
            *a = if fused { a.mul_add(m, c) } else { *a * m + c };
        }
    }
    acc
}

/// [`fma_chains`] compiled with the vector FMA instructions the simd
/// backend dispatches to.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn fma_chains_avx2() -> [f64; CHAINS] {
    fma_chains(true)
}

/// Peak multiply-add rate of one thread, in flop/s.
fn fma_flops() -> f64 {
    let flop = (2 * CHAINS * FMA_STEPS) as f64;
    #[cfg(target_arch = "x86_64")]
    if airshed::simd::fma_available() {
        // SAFETY: `fma_available` has just verified avx2 and fma on this CPU.
        return flop / time_lower_quartile(5, || unsafe { fma_chains_avx2() });
    }
    // Without hardware FMA a fused multiply-add is a library call; a
    // separate multiply and add is the rate the scalar kernels get.
    flop / time_lower_quartile(5, || fma_chains(false))
}

const MADDS: usize = 4_000_000;

/// One dependent chain of four-lane `F64x4::mul_add`s.
#[inline(always)]
fn madd_chain() -> F64x4 {
    let m = std::hint::black_box(F64x4::splat(0.999_999));
    let c = std::hint::black_box(F64x4::splat(1e-7));
    let mut acc = F64x4::new(1.0, 1.1, 1.2, 1.3);
    for _ in 0..MADDS {
        acc = acc.mul_add(m, c);
    }
    acc
}

/// [`madd_chain`] as the simd kernels call it: inside a function that
/// carries the `fma` feature, where `mul_add` is one instruction.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn madd_chain_avx2() -> F64x4 {
    madd_chain()
}

/// Latency of one `F64x4::mul_add` on the path the kernels take, in s.
fn madd_seconds() -> f64 {
    #[cfg(target_arch = "x86_64")]
    if airshed::simd::fma_available() {
        // SAFETY: `fma_available` has just verified avx2 and fma on this CPU.
        return time_lower_quartile(5, || unsafe { madd_chain_avx2() }) / MADDS as f64;
    }
    time_lower_quartile(5, madd_chain) / MADDS as f64
}

pub fn layers(out: &mut Layers) {
    out.set("host.nproc", airshed::hpf::host::available_threads() as f64);
    out.set("host.fma_gflops", fma_flops() / 1e9);
    out.set(
        "simd.fma_available",
        f64::from(u8::from(airshed::simd::fma_available())),
    );
    out.set("simd.madd_ns", madd_seconds() * 1e9);

    let b = vec![1.5f64; TRIAD_LEN];
    let c = vec![0.25f64; TRIAD_LEN];
    let mut a = vec![0.0f64; TRIAD_LEN];
    let triad_s = time_lower_quartile(3, || {
        let s = std::hint::black_box(3.0f64);
        for ((a, b), c) in a.iter_mut().zip(&b).zip(&c) {
            *a = b + s * c;
        }
        a[TRIAD_LEN / 2]
    });
    // Two arrays read and one written per pass.
    out.set(
        "host.stream_gbs",
        (3 * TRIAD_LEN * 8) as f64 / triad_s / 1e9,
    );
}
