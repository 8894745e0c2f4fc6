//! Fig. 4: normalized energy and error rate vs. statically scaled supply
//! voltage, for one PVT corner, all ten benchmarks combined.

use crate::design::DvsBusDesign;
use razorbus_process::PvtCorner;
use razorbus_units::Millivolts;

/// One swept supply point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig4Point {
    /// Supply voltage.
    pub voltage: Millivolts,
    /// Bus energy (no recovery overhead), normalized to the nominal
    /// supply — the paper's "Energy" curve.
    pub bus_energy_norm: f64,
    /// Bus energy plus recovery overhead, normalized — the paper's
    /// "Bus energy + Recovery overhead" curve.
    pub total_energy_norm: f64,
    /// Error rate (fraction of cycles).
    pub error_rate: f64,
}

/// The data behind one panel of Fig. 4.
#[derive(Debug, Clone)]
pub struct Fig4Data {
    /// The swept corner.
    pub corner: PvtCorner,
    /// Points from the corner's shadow floor up to nominal (ascending V).
    pub points: Vec<Fig4Point>,
}

/// Computes the panel from an already-collected combined summary — the
/// histogram is corner-independent, so both Fig. 4 panels (and Fig. 5,
/// Table 1, …) can share one collection.
#[must_use]
pub fn from_summary(
    design: &DvsBusDesign,
    corner: PvtCorner,
    summary: &crate::summary::TraceSummary,
) -> Fig4Data {
    let nominal = design.nominal();
    let base = summary.energy(design, corner, nominal, false);
    let floor = design.static_shadow_floor(corner);
    let points = design
        .grid()
        .iter()
        .filter(|&v| v >= floor)
        .map(|v| Fig4Point {
            voltage: v,
            bus_energy_norm: summary.energy(design, corner, v, false) / base,
            total_energy_norm: summary.energy(design, corner, v, true) / base,
            error_rate: summary.error_rate(design, corner, v),
        })
        .collect();
    Fig4Data { corner, points }
}

impl Fig4Data {
    /// Prints the panel as a table (VDD, normalized energies, error rate).
    pub fn print(&self) {
        println!("Fig. 4 — {}", self.corner);
        println!(
            "{:>8} {:>12} {:>18} {:>12}",
            "VDD(mV)", "E(bus,norm)", "E(bus+rec,norm)", "err rate(%)"
        );
        for p in &self.points {
            println!(
                "{:>8} {:>12.4} {:>18.4} {:>12.3}",
                p.voltage.mv(),
                p.bus_energy_norm,
                p.total_energy_norm,
                p.error_rate * 100.0
            );
        }
    }

    /// Highest voltage at which any errors appear (the "point of first
    /// failure" visible in the panel), if any.
    #[must_use]
    pub fn first_failure_voltage(&self) -> Option<Millivolts> {
        self.points
            .iter()
            .rev()
            .find(|p| p.error_rate > 0.0)
            .map(|p| p.voltage)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::SummaryBank;

    fn panel(corner: PvtCorner, cycles_per_benchmark: u64, seed: u64) -> Fig4Data {
        let d = DvsBusDesign::paper_default();
        let bank = SummaryBank::collect(&d, cycles_per_benchmark, seed);
        from_summary(&d, corner, bank.combined())
    }

    #[test]
    fn fig4_shapes_match_paper() {
        let data = panel(PvtCorner::TYPICAL, 3_000, 7);
        // Energy normalized to 1.0 at nominal.
        let last = data.points.last().unwrap();
        assert_eq!(last.voltage, Millivolts::new(1_200));
        assert!((last.bus_energy_norm - 1.0).abs() < 1e-9);
        assert_eq!(last.error_rate, 0.0);
        // Energy decreases and error rate increases toward the floor.
        for w in data.points.windows(2) {
            assert!(w[0].bus_energy_norm <= w[1].bus_energy_norm + 1e-12);
            assert!(w[0].error_rate >= w[1].error_rate - 1e-12);
        }
        // Recovery overhead never reduces energy.
        for p in &data.points {
            assert!(p.total_energy_norm >= p.bus_energy_norm - 1e-12);
        }
    }

    #[test]
    fn worst_corner_fails_immediately_below_nominal() {
        // Fig. 4a: "the error rates increase as soon as the supply
        // voltage is lowered below the nominal 1.2V supply".
        let data = panel(PvtCorner::WORST, 3_000, 3);
        let first_fail = data.first_failure_voltage().unwrap();
        assert!(first_fail >= Millivolts::new(1_160), "{first_fail}");
    }

    #[test]
    fn typical_corner_scales_before_failing() {
        // Fig. 4b: "no errors are introduced up to a 980mV supply".
        let data = panel(PvtCorner::TYPICAL, 3_000, 3);
        let first_fail = data.first_failure_voltage().unwrap();
        assert!(
            first_fail <= Millivolts::new(1_000),
            "typical corner failed too early: {first_fail}"
        );
    }
}
