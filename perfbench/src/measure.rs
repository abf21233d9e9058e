//! The end-to-end metrics, computed from the latencies a run recorded.
//!
//! A run is a sequence of units (a pass over the analysis workload's pairs, a round
//! of the `serve-churn` stream). Each metric is computed per unit and reported as
//! the mean over the run's units, except the median cold latency, which is taken
//! over all of the run's cold verdicts. The host's speed swings between a fast and
//! a slow state for seconds at a time; a mean moves in proportion to the share of
//! slow units, where a median jumps between the two states. Hit latencies, and on
//! `serve-churn` and `table1-small` every time, are also corrected for the host's
//! speed, unit by unit (see [`crate::speed`]).

use crate::speed;
use crate::stats::{median, peak_rss_mb, percentile, tail};
use crate::verdict::Tally;

/// End-to-end metric names and units, in output order.
pub const END_TO_END: [(&str, &str); 11] = [
    ("setup_s", "s"),
    ("pairs_per_s", "1/s"),
    ("verdict_p50_s", "s"),
    ("cpu_s_per_pair", "s"),
    ("hit_p50_ms", "ms"),
    ("hit_p99_ms", "ms"),
    ("miss_p50_ms", "ms"),
    ("requests_per_s", "1/s"),
    ("certified_ratio", "ratio"),
    ("tight_ratio", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// Hits a unit needs for ten of them to lie beyond its 99th percentile.
const MIN_HITS: usize = 1000;

/// Latencies and times of one unit, in seconds.
///
/// Every answer is either a cold verdict (a miss of every cache; on `serve-churn`
/// also a `near` warm start) or a hit answered from the solve cache. Cold
/// verdicts are the answers the analysis workloads exist to produce, and the
/// first request of each pair in a `serve-churn` round.
#[derive(Debug, Default)]
pub struct Unit {
    /// Latency of each cold verdict.
    pub miss_s: Vec<f64>,
    /// Latency of each cache hit, as measured.
    pub hit_s: Vec<f64>,
    /// CPU time spent on cold verdicts.
    pub cpu_s: f64,
    /// Times of the host-speed reference kernel, one every
    /// [`speed::EVERY_HITS`] hits.
    pub reference_s: Vec<f64>,
}

impl Unit {
    /// A cold verdict.
    pub fn record_cold(&mut self, seconds: f64) {
        self.miss_s.push(seconds);
    }

    /// A cache hit; every [`speed::EVERY_HITS`] hits, also times the reference
    /// kernel.
    pub fn record_hit(&mut self, seconds: f64) {
        self.hit_s.push(seconds);
        if self.hit_s.len().is_multiple_of(speed::EVERY_HITS) {
            let seed = self.reference_s.len() as u64;
            self.reference_s.push(speed::time_kernel(seed));
        }
    }

    /// The factor that corrects this unit's times for the host's speed:
    /// [`speed::NOMINAL_S`] over the median reference time (0 without one).
    pub fn speed_factor(&self) -> f64 {
        if self.reference_s.is_empty() {
            0.0
        } else {
            speed::NOMINAL_S / median(&self.reference_s)
        }
    }

    fn complete(&self) -> bool {
        !self.miss_s.is_empty() && self.hit_s.len() >= MIN_HITS
    }
}

/// Everything one run measured.
#[derive(Debug, Default)]
pub struct Measured {
    /// Set-up repetitions.
    pub setup_s: Vec<f64>,
    /// A timing of the host-speed reference kernel after each set-up repetition.
    pub setup_reference_s: Vec<f64>,
    /// The measured units, in order.
    pub units: Vec<Unit>,
    /// `true` when cold latencies, CPU times and the set-up time are corrected for
    /// the host's speed like the hit latencies (not on `nested`; see
    /// [`crate::speed`]), `false` when they are reported as measured.
    pub corrected: bool,
}

impl Measured {
    /// `true` when the run set up at least once and every unit has cold verdicts
    /// and enough hits for ten of them to lie beyond the 99th percentile.
    pub fn complete(&self) -> bool {
        !self.setup_s.is_empty() && !self.units.is_empty() && self.units.iter().all(Unit::complete)
    }

    /// Prints each unit's latency percentiles with their sample counts, and its
    /// host-speed correction, to stderr.
    pub fn describe(&self) {
        for (i, unit) in self.units.iter().enumerate() {
            for (name, samples) in [("miss", &unit.miss_s), ("hit", &unit.hit_s)] {
                match tail(samples) {
                    Some((p, value, n)) => eprintln!(
                        "unit {i} {name} latency as measured: p50 {:.6} s, p{p} {value:.6} s \
                         over {n} samples",
                        median(samples)
                    ),
                    None => eprintln!("unit {i} {name} latency: {} samples", samples.len()),
                }
            }
            if !unit.reference_s.is_empty() {
                eprintln!(
                    "unit {i} reference kernel: p50 {:.6} s over {} timings, factor {:.4}",
                    median(&unit.reference_s),
                    unit.reference_s.len(),
                    unit.speed_factor()
                );
            }
        }
    }

    /// The end-to-end metrics, named as in [`END_TO_END`]; a unit statistic without
    /// samples reads 0 (see [`Measured::complete`]). Hit latencies are corrected for
    /// the host's speed (see [`crate::speed`]); every other time too when
    /// [`Measured::corrected`] is set.
    pub fn end_to_end(&self, tally: &Tally) -> Vec<(&'static str, f64)> {
        let over_units = |statistic: &dyn Fn(&Unit) -> f64| -> f64 {
            if self.units.is_empty() {
                0.0
            } else {
                self.units.iter().map(statistic).sum::<f64>() / self.units.len() as f64
            }
        };
        let p50 = |samples: &[f64]| {
            if samples.is_empty() {
                0.0
            } else {
                median(samples)
            }
        };
        let p99 = |samples: &[f64]| {
            if samples.is_empty() {
                0.0
            } else {
                percentile(samples, 99.0).0
            }
        };
        // Hits are always corrected; cold latencies, CPU and set-up when asked.
        let cold_factor = |u: &Unit| {
            if self.corrected {
                u.speed_factor()
            } else {
                1.0
            }
        };
        let setup_factor = if self.corrected && !self.setup_reference_s.is_empty() {
            speed::NOMINAL_S / median(&self.setup_reference_s)
        } else {
            1.0
        };
        // Cold latencies are pooled over the run: a round's median cold verdict
        // moves with which of two warm starts the engine picks for each `near`
        // pair (see the README), which a median over every round averages out.
        let miss_s: Vec<f64> = self
            .units
            .iter()
            .flat_map(|u| u.miss_s.iter().map(move |s| s * cold_factor(u)))
            .collect();
        let cold = |u: &Unit| u.miss_s.len() as f64;
        let cold_s = |u: &Unit| u.miss_s.iter().sum::<f64>() * cold_factor(u);
        let hit_s = |u: &Unit| u.hit_s.iter().sum::<f64>() * u.speed_factor();
        vec![
            ("setup_s", p50(&self.setup_s) * setup_factor),
            ("pairs_per_s", over_units(&|u| cold(u) / cold_s(u))),
            ("verdict_p50_s", p50(&miss_s)),
            (
                "cpu_s_per_pair",
                over_units(&|u| u.cpu_s * cold_factor(u) / cold(u)),
            ),
            (
                "hit_p50_ms",
                over_units(&|u| p50(&u.hit_s) * u.speed_factor()) * 1e3,
            ),
            (
                "hit_p99_ms",
                over_units(&|u| p99(&u.hit_s) * u.speed_factor()) * 1e3,
            ),
            ("miss_p50_ms", p50(&miss_s) * 1e3),
            (
                "requests_per_s",
                over_units(&|u| (u.miss_s.len() + u.hit_s.len()) as f64 / (cold_s(u) + hit_s(u))),
            ),
            ("certified_ratio", tally.certified_ratio()),
            ("tight_ratio", tally.tight_ratio()),
            ("peak_rss_mb", peak_rss_mb()),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn value(measured: &Measured, name: &str) -> f64 {
        let metrics = measured.end_to_end(&Tally::default());
        metrics.iter().find(|(n, _)| *n == name).expect("metric").1
    }

    #[test]
    fn hits_are_always_corrected_and_other_times_when_the_run_asks() {
        // The reference kernel ran at half its nominal speed: factor 0.5.
        let slow = speed::NOMINAL_S * 2.0;
        let mut measured = Measured {
            setup_s: vec![0.01],
            setup_reference_s: vec![slow],
            units: vec![Unit {
                miss_s: vec![0.2, 0.4],
                hit_s: vec![0.001; MIN_HITS],
                cpu_s: 0.6,
                reference_s: vec![slow; 3],
            }],
            corrected: false,
        };
        let expect = |measured: &Measured, name: &str, expected: f64| {
            let got = value(measured, name);
            assert!(
                (got - expected).abs() < 1e-9 * expected,
                "{name}: {got} != {expected}"
            );
        };
        expect(&measured, "setup_s", 0.01);
        expect(&measured, "verdict_p50_s", 0.3);
        expect(&measured, "pairs_per_s", 2.0 / 0.6);
        expect(&measured, "cpu_s_per_pair", 0.3);
        expect(&measured, "hit_p50_ms", 0.5);
        expect(&measured, "requests_per_s", 1002.0 / 1.1);
        measured.corrected = true;
        expect(&measured, "setup_s", 0.005);
        expect(&measured, "verdict_p50_s", 0.15);
        expect(&measured, "pairs_per_s", 2.0 / 0.3);
        expect(&measured, "cpu_s_per_pair", 0.15);
        expect(&measured, "hit_p50_ms", 0.5);
        expect(&measured, "hit_p99_ms", 0.5);
        expect(&measured, "miss_p50_ms", 150.0);
        expect(&measured, "requests_per_s", 1002.0 / 0.8);
    }
}
