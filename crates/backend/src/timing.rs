//! Wall-clock micro-benchmarking — the measured half of the `mnn-tune`
//! subsystem.
//!
//! The paper's *semi-automated search* argument is that the engine should pick
//! kernels from **measurements on the actual device** when it can afford to,
//! falling back to the closed-form cost model otherwise. [`time_runs`] is the
//! measurement primitive: run a prepared closure a few times and report the
//! best observed wall-clock time (minimum, not mean — the minimum is the least
//! noisy estimator of a kernel's attainable latency on a machine with
//! background load).

use std::time::Instant;

/// Time `runs` invocations of `f` after `warmup` untimed ones and return the
/// minimum observed milliseconds. `runs` is clamped to at least 1.
pub fn time_runs(warmup: usize, runs: usize, mut f: impl FnMut()) -> f64 {
    for _ in 0..warmup {
        f();
    }
    let mut best = f64::INFINITY;
    for _ in 0..runs.max(1) {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64() * 1000.0);
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_runs_reports_positive_minimum() {
        let ms = time_runs(1, 3, || {
            let mut acc = 0.0f32;
            for i in 0..1000 {
                acc += (i as f32).sqrt();
            }
            std::hint::black_box(acc);
        });
        assert!(ms.is_finite());
        assert!(ms >= 0.0);
    }
}
