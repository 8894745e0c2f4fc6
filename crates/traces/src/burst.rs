//! Traffic shapes the paper never ran: bursty DMA streams and
//! adversarial crosstalk patterns.
//!
//! The SPEC2000 profiles in [`crate::Benchmark`] cover *program*-shaped
//! load traffic; the scenario layer also wants the extremes around it:
//!
//! * [`BurstyDma`] — a bus that is parked most of the time and then
//!   streams dense, high-entropy DMA blocks back to back. The
//!   idle/burst duty cycle is what stresses a DVS controller's ramp:
//!   long quiet stretches invite deep scaling, and each burst arrives
//!   at whatever supply the controller drifted down to.
//! * [`AdversarialCrosstalk`] — the worst-case victim/aggressor pattern
//!   (every adjacent wire pair toggling in opposite directions) applied
//!   for a controllable fraction of cycles. At full aggression every
//!   cycle carries the Fig. 9 worst pattern, pinning the error-driven
//!   controller against its ceiling.
//!
//! Both are deterministic for a given seed, like every generator in
//! this crate.

use crate::source::TraceSource;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Idle-parked bus with periodic high-entropy DMA bursts.
///
/// The stream alternates between an *idle* phase — the bus holds its
/// last word (zero toggles), with an occasional small housekeeping
/// value — and a *burst* phase of dense random words (fresh cache-line
/// payloads every cycle). Phase lengths are jittered ±50 % around their
/// means so the stream does not look periodic to a windowed controller.
///
/// ```
/// use razorbus_traces::{BurstyDma, TraceSource};
///
/// let mut a = BurstyDma::new(7, 400, 6_000, 0.02);
/// let mut b = BurstyDma::new(7, 400, 6_000, 0.02);
/// assert_eq!(a.take_words(64), b.take_words(64));
/// ```
#[derive(Debug, Clone)]
pub struct BurstyDma {
    rng: SmallRng,
    mean_burst: u64,
    mean_idle: u64,
    housekeeping: f64,
    in_burst: bool,
    remaining: u64,
    prev: u32,
}

impl BurstyDma {
    /// Creates a bursty-DMA stream: bursts of ~`mean_burst` cycles of
    /// random words separated by ~`mean_idle` idle cycles, where an idle
    /// cycle emits a small housekeeping value with probability
    /// `housekeeping` (and otherwise holds the previous word).
    ///
    /// # Panics
    ///
    /// Panics if either mean length is zero or `housekeeping` is outside
    /// `[0, 1]`.
    #[must_use]
    pub fn new(seed: u64, mean_burst: u64, mean_idle: u64, housekeeping: f64) -> Self {
        assert!(mean_burst > 0, "burst length must be positive");
        assert!(mean_idle > 0, "idle length must be positive");
        assert!(
            (0.0..=1.0).contains(&housekeeping),
            "probability out of range"
        );
        let mut s = Self {
            rng: SmallRng::seed_from_u64(seed ^ 0x5eed_3000),
            mean_burst,
            mean_idle,
            housekeeping,
            in_burst: false,
            remaining: 0,
            prev: 0,
        };
        s.start_phase(false);
        s
    }

    fn start_phase(&mut self, burst: bool) {
        self.in_burst = burst;
        let mean = if burst {
            self.mean_burst
        } else {
            self.mean_idle
        } as f64;
        // ±50% jitter, like the SimPoint-ish phase modulation.
        let jitter = self.rng.random_range(0.5..1.5);
        self.remaining = (mean * jitter).max(1.0) as u64;
    }

    /// Whether the generator is currently inside a DMA burst.
    #[must_use]
    pub fn in_burst(&self) -> bool {
        self.in_burst
    }
}

impl TraceSource for BurstyDma {
    fn next_word(&mut self) -> u32 {
        if self.remaining == 0 {
            let next_burst = !self.in_burst;
            self.start_phase(next_burst);
        }
        self.remaining -= 1;
        let word = if self.in_burst {
            self.rng.random()
        } else if self.housekeeping > 0.0 && self.rng.random_bool(self.housekeeping) {
            self.rng.random::<u32>() & 0x0000_00FF
        } else {
            self.prev
        };
        self.prev = word;
        word
    }

    /// One tight loop per phase: a burst is a run of raw random words,
    /// and an idle stretch without housekeeping is the held word.
    fn fill_words(&mut self, mut out: &mut [u32]) {
        while !out.is_empty() {
            if self.remaining == 0 {
                let next_burst = !self.in_burst;
                self.start_phase(next_burst);
            }
            let n = usize::try_from(self.remaining).map_or(out.len(), |r| r.min(out.len()));
            let (head, rest) = out.split_at_mut(n);
            // The loops draw from a local copy of the generator so its
            // state stays in registers; it is written back after.
            let mut rng = self.rng.clone();
            if self.in_burst {
                for w in head.iter_mut() {
                    *w = rng.random();
                }
            } else if self.housekeeping > 0.0 {
                let (p, mut prev) = (self.housekeeping, self.prev);
                for w in head.iter_mut() {
                    if rng.random_bool(p) {
                        prev = rng.random::<u32>() & 0x0000_00FF;
                    }
                    *w = prev;
                }
            } else {
                head.fill(self.prev);
            }
            self.rng = rng;
            self.prev = head[n - 1];
            self.remaining -= n as u64;
            out = rest;
        }
    }
}

/// The Fig. 9 worst victim/aggressor pattern, applied for a
/// controllable fraction of cycles.
///
/// An adversarial cycle alternates the bus between `0x5555_5555` and
/// `0xAAAA_AAAA`: all 32 wires toggle and every adjacent pair toggles
/// in *opposite* directions, the maximum-Miller-coupling transition.
/// The remaining cycles hold the previous word, so `aggression` is the
/// long-run fraction of worst-pattern cycles.
///
/// ```
/// use razorbus_traces::{AdversarialCrosstalk, TraceSource, TraceStats};
///
/// let mut storm = AdversarialCrosstalk::new(3, 1.0);
/// let stats = TraceStats::collect(&mut storm, 1_000);
/// assert_eq!(stats.mean_toggles, 32.0);
/// assert_eq!(stats.opposing_adjacent_fraction, 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct AdversarialCrosstalk {
    rng: SmallRng,
    aggression: f64,
    phase: bool,
    prev: u32,
}

impl AdversarialCrosstalk {
    /// Creates a crosstalk storm emitting the worst pattern on a
    /// `aggression` fraction of cycles.
    ///
    /// # Panics
    ///
    /// Panics if `aggression` is outside `[0, 1]`.
    #[must_use]
    pub fn new(seed: u64, aggression: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&aggression),
            "probability out of range"
        );
        Self {
            rng: SmallRng::seed_from_u64(seed ^ 0x5eed_4000),
            aggression,
            phase: false,
            prev: 0x5555_5555,
        }
    }
}

impl TraceSource for AdversarialCrosstalk {
    fn next_word(&mut self) -> u32 {
        let word = if self.aggression > 0.0 && self.rng.random_bool(self.aggression) {
            self.phase = !self.phase;
            if self.phase {
                0xAAAA_AAAA
            } else {
                0x5555_5555
            }
        } else {
            self.prev
        };
        self.prev = word;
        word
    }

    /// A zero-aggression storm holds its word without drawing; any
    /// other fills in one loop over local copies of the generator, the
    /// phase and the held word, written back after.
    fn fill_words(&mut self, out: &mut [u32]) {
        if self.aggression <= 0.0 {
            out.fill(self.prev);
            return;
        }
        let (mut rng, p, mut phase, mut prev) =
            (self.rng.clone(), self.aggression, self.phase, self.prev);
        for w in out.iter_mut() {
            if rng.random_bool(p) {
                phase = !phase;
                prev = if phase { 0xAAAA_AAAA } else { 0x5555_5555 };
            }
            *w = prev;
        }
        (self.rng, self.phase, self.prev) = (rng, phase, prev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::TraceStats;

    #[test]
    fn bursty_dma_is_deterministic() {
        let mut a = BurstyDma::new(11, 300, 4_000, 0.01);
        let mut b = BurstyDma::new(11, 300, 4_000, 0.01);
        assert_eq!(a.take_words(2_048), b.take_words(2_048));
        let mut c = BurstyDma::new(12, 300, 4_000, 0.01);
        assert_ne!(a.take_words(2_048), c.take_words(2_048));
    }

    #[test]
    fn bursty_dma_alternates_quiet_and_dense_phases() {
        let mut g = BurstyDma::new(5, 500, 5_000, 0.0);
        let stats = TraceStats::collect(&mut g, 120_000);
        // Idle dominates the duty cycle (~10:1), so most cycles are
        // toggle-free, yet the bursts carry full random-word density.
        assert!(stats.quiet_fraction > 0.7, "{stats:?}");
        assert!(stats.mean_toggles > 0.8, "{stats:?}");
        // The burst share of cycles carries ~16 toggles/cycle.
        let burst_share = 1.0 - stats.quiet_fraction;
        let toggles_per_burst_cycle = stats.mean_toggles / burst_share;
        assert!(
            (10.0..=22.0).contains(&toggles_per_burst_cycle),
            "{toggles_per_burst_cycle} toggles per burst cycle"
        );
    }

    #[test]
    fn bursty_dma_reports_phase() {
        let mut g = BurstyDma::new(9, 200, 2_000, 0.02);
        let (mut saw_idle, mut saw_burst) = (false, false);
        for _ in 0..30_000 {
            let _ = g.next_word();
            if g.in_burst() {
                saw_burst = true;
            } else {
                saw_idle = true;
            }
        }
        assert!(saw_idle && saw_burst);
    }

    #[test]
    fn crosstalk_storm_aggression_scales_worst_cycles() {
        let mut mild = AdversarialCrosstalk::new(2, 0.10);
        let stats = TraceStats::collect(&mut mild, 100_000);
        assert!(
            (0.08..=0.12).contains(&stats.opposing_adjacent_fraction),
            "{stats:?}"
        );
        // Every adversarial cycle toggles all 32 wires.
        let toggles_per_hot_cycle = stats.mean_toggles / stats.opposing_adjacent_fraction;
        assert!((toggles_per_hot_cycle - 32.0).abs() < 1e-9, "{stats:?}");
    }

    #[test]
    fn crosstalk_storm_is_deterministic() {
        let mut a = AdversarialCrosstalk::new(4, 0.5);
        let mut b = AdversarialCrosstalk::new(4, 0.5);
        assert_eq!(a.take_words(512), b.take_words(512));
    }

    #[test]
    #[should_panic(expected = "probability out of range")]
    fn crosstalk_rejects_bad_aggression() {
        let _ = AdversarialCrosstalk::new(0, 1.5);
    }

    #[test]
    #[should_panic(expected = "burst length must be positive")]
    fn bursty_dma_rejects_zero_burst() {
        let _ = BurstyDma::new(0, 0, 100, 0.0);
    }
}
