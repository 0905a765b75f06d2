//! Host-speed calibration for the end-to-end timings.
//!
//! The benchmark runs on shared hosts whose speed drifts by tens of
//! percent within seconds, which would swamp the changes the benchmark is
//! meant to resolve. Where the benchmark can interleave a fixed
//! calibration kernel finely with the work — before every protocol round
//! on `stabilize`, every 100 ms of client time on `kv-tcp` — each interval
//! is scaled by `REF_KERNEL_S / kernel time`, i.e. reported in seconds at
//! the reference speed at which one kernel pass takes [`REF_KERNEL_S`].
//! The kernel (sorting and searching a small stack array) is benchmark
//! code that no program change touches, so a change that makes the
//! program slower makes these numbers worse exactly as it would the raw
//! wall time. The mean scale factor is kept in the context file beside
//! every result. The simulator workloads time one monolithic
//! `TrafficSim::run` call that cannot be interleaved; bracketing it with
//! calibration did not steady them, so they report raw wall time.

use crate::stats::median;
use std::collections::VecDeque;
use std::time::Instant;

/// One kernel pass at the reference speed.
pub const REF_KERNEL_S: f64 = 250e-6;
/// Sort-and-search rounds per kernel pass.
const KERNEL_REPS: usize = 8;
/// Kernel passes the rolling estimate keeps.
const WINDOW: usize = 5;

/// Times one pass of the calibration kernel (seconds): xorshift draws
/// sorted in a stack array, then binary searches into it. It allocates
/// nothing, so the allocator state a workload leaves behind cannot skew
/// it.
pub fn kernel() -> f64 {
    let t = Instant::now();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut hits = 0usize;
    for _ in 0..KERNEL_REPS {
        let mut v = [0u64; 1024];
        for slot in v.iter_mut() {
            *slot = next() % 65_536;
        }
        v.sort_unstable();
        for _ in 0..1024 {
            hits += v.binary_search(&(next() % 65_536)).is_ok() as usize;
        }
    }
    std::hint::black_box(hits);
    t.elapsed().as_secs_f64()
}

/// A rolling host-speed estimate: the median of the last few kernel
/// passes, which tracks drift while ignoring a pass hit by an interrupt.
#[derive(Default)]
pub struct Speed {
    recent: VecDeque<f64>,
    raw_s: f64,
    scaled_s: f64,
}

impl Speed {
    /// Runs `passes` kernel passes into the estimate.
    pub fn sample(&mut self, passes: usize) {
        for _ in 0..passes {
            if self.recent.len() == WINDOW {
                self.recent.pop_front();
            }
            self.recent.push_back(kernel());
        }
    }

    /// The current scale factor (reference seconds per wall second).
    pub fn factor(&self) -> f64 {
        let v: Vec<f64> = self.recent.iter().copied().collect();
        REF_KERNEL_S / median(&v)
    }

    /// Scales a wall interval to reference seconds with the current
    /// factor, keeping running totals of both.
    pub fn scale(&mut self, raw_s: f64) -> f64 {
        self.scale_with(raw_s, self.factor())
    }

    /// Scales a wall interval with an explicit factor (e.g. the mean of
    /// the estimates taken before and after it).
    pub fn scale_with(&mut self, raw_s: f64, factor: f64) -> f64 {
        self.raw_s += raw_s;
        self.scaled_s += raw_s * factor;
        raw_s * factor
    }

    /// Mean factor over everything scaled so far.
    pub fn mean_factor(&self) -> f64 {
        self.scaled_s / self.raw_s
    }
}
