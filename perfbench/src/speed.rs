//! Host speed. A shared host's speed drifts over minutes: neighbours on
//! sibling hyperthreads, in the last-level cache and on the memory bus
//! slow every thread, with little CPU steal to show for it. A fixed
//! brute-force sweep, written here and independent of the program, is
//! timed between the passes of a closed-loop run. Its timings are scaled
//! to the speed of a reference host by it, so that runs made at
//! different times, and on different revisions, compare.

use crate::stats::median;
use std::time::Instant;

/// Timed samples per probe; the fastest counts.
const SAMPLES: usize = 5;
/// Rows a timed sample covers at least, sweeping the rows as often as
/// that takes: long enough that timer and thread start-up noise stay
/// small.
const SAMPLE_ROWS: usize = 200_000;

/// Time in ms of the fastest of [`SAMPLES`] samples, each computing the
/// squared Euclidean distance from the first row of `raw` (rows of
/// `len`) to every row, [`SAMPLE_ROWS`] rows at least, split over
/// `threads` threads.
pub fn probe_ms(raw: &[f32], len: usize, threads: usize) -> f64 {
    let query = &raw[..len];
    let rows = raw.len() / len;
    let sweeps = SAMPLE_ROWS.div_ceil(rows.max(1));
    let rows_per = rows.div_ceil(threads.max(1));
    let sweep = |part: &[f32]| -> f32 {
        (0..sweeps)
            .map(|_| {
                part.chunks_exact(len)
                    .map(|s| {
                        s.iter()
                            .zip(query)
                            .map(|(x, y)| (x - y) * (x - y))
                            .sum::<f32>()
                    })
                    .fold(f32::INFINITY, f32::min)
            })
            .fold(f32::INFINITY, f32::min)
    };
    (0..SAMPLES)
        .map(|_| {
            let t = Instant::now();
            let nearest = std::thread::scope(|s| {
                let parts: Vec<_> = raw
                    .chunks(rows_per * len)
                    .map(|part| s.spawn(move || sweep(part)))
                    .collect();
                parts
                    .into_iter()
                    .map(|h| h.join().expect("probe thread"))
                    .fold(f32::INFINITY, f32::min)
            });
            std::hint::black_box(nearest);
            t.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min)
}

/// The factor that scales a run's timings to a host on which the probe
/// takes `reference_ms`: the run's median probe over the reference. The
/// median over the probes of a run keeps a burst during one probe out.
pub fn slowdown(probes: &[f64], reference_ms: f64) -> f64 {
    median(probes) / reference_ms
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdown_is_the_median_probe_over_the_reference() {
        assert_eq!(slowdown(&[2.0, 2.0, 2.0], 2.0), 1.0);
        // One probe caught in a burst does not move it.
        assert_eq!(slowdown(&[3.0, 3.1, 9.0, 2.9, 3.0], 2.0), 1.5);
    }

    #[test]
    fn probe_times_a_sweep() {
        let raw: Vec<f32> = (0..64 * 1000).map(|i| (i % 97) as f32).collect();
        for threads in [1, 2, 3] {
            let ms = probe_ms(&raw, 64, threads);
            assert!(ms > 0.0 && ms.is_finite(), "{threads} threads: {ms}");
        }
    }
}
