//! Fig. 5: energy gains achievable at target error rates (0 %, 2 %, 5 %)
//! across the PVT-corner delay spread.

use crate::design::DvsBusDesign;
use crate::summary::TraceSummary;
use razorbus_process::PvtCorner;
use razorbus_units::{Millivolts, Picoseconds};

/// The three target error rates of the figure.
pub const TARGETS: [f64; 3] = [0.0, 0.02, 0.05];

/// One corner's row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig5Row {
    /// The PVT corner (points 1–5 of the figure).
    pub corner: PvtCorner,
    /// Worst-pattern delay at the nominal supply — the figure's x-axis.
    pub delay_at_nominal: Picoseconds,
    /// Chosen supply per target.
    pub voltage: [Millivolts; 3],
    /// Energy gain (fraction) per target — the figure's y-axis.
    pub gain: [f64; 3],
}

/// The full figure.
#[derive(Debug, Clone)]
pub struct Fig5Data {
    /// Rows in the paper's corner numbering (1 = worst … 5 = best).
    pub rows: Vec<Fig5Row>,
}

/// Computes the figure from an already-collected combined summary.
#[must_use]
pub fn from_summary(design: &DvsBusDesign, summary: &TraceSummary) -> Fig5Data {
    let rows = PvtCorner::FIG5
        .iter()
        .map(|&corner| {
            let mut voltage = [design.nominal(); 3];
            let mut gain = [0.0f64; 3];
            for (i, &target) in TARGETS.iter().enumerate() {
                let v = summary.lowest_voltage_for_error_rate(design, corner, target);
                voltage[i] = v;
                gain[i] = summary.energy_gain(design, corner, v);
            }
            Fig5Row {
                corner,
                delay_at_nominal: design.delay_at_nominal(corner),
                voltage,
                gain,
            }
        })
        .collect();
    Fig5Data { rows }
}

impl Fig5Data {
    /// Prints the figure as a table.
    pub fn print(&self) {
        println!("Fig. 5 — energy gains vs. PVT-corner delay spread");
        println!(
            "{:<38} {:>12} {:>22} {:>22} {:>22}",
            "corner", "delay(ps)", "gain@0% (V)", "gain@2% (V)", "gain@5% (V)"
        );
        for (i, row) in self.rows.iter().enumerate() {
            println!(
                "{} {:<36} {:>12.1} {:>14.1}% ({:>4}) {:>14.1}% ({:>4}) {:>14.1}% ({:>4})",
                i + 1,
                row.corner.to_string(),
                row.delay_at_nominal.ps(),
                row.gain[0] * 100.0,
                row.voltage[0].mv(),
                row.gain[1] * 100.0,
                row.voltage[1].mv(),
                row.gain[2] * 100.0,
                row.voltage[2].mv(),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::SummaryBank;

    fn figure(cycles_per_benchmark: u64, seed: u64) -> Fig5Data {
        let d = DvsBusDesign::paper_default();
        from_summary(
            &d,
            SummaryBank::collect(&d, cycles_per_benchmark, seed).combined(),
        )
    }

    #[test]
    fn gains_grow_toward_faster_corners() {
        let data = figure(3_000, 5);
        assert_eq!(data.rows.len(), 5);
        // At every target, the best corner gains at least as much as the
        // worst corner, and substantially so at 0%.
        for t in 0..3 {
            assert!(data.rows[4].gain[t] >= data.rows[0].gain[t]);
        }
        assert!(data.rows[4].gain[0] > 0.30, "best-corner 0% gain");
        // Design corner allows no zero-error scaling.
        assert!(data.rows[0].gain[0] < 0.03, "{}", data.rows[0].gain[0]);
    }

    #[test]
    fn higher_target_never_gains_less() {
        let data = figure(3_000, 5);
        for row in &data.rows {
            assert!(row.gain[1] >= row.gain[0] - 1e-12);
            assert!(row.gain[2] >= row.gain[1] - 1e-12);
            assert!(row.voltage[2] <= row.voltage[1]);
        }
    }

    #[test]
    fn typical_corner_matches_paper_band() {
        // Paper: "gains of 35% for the typical process corner with no
        // performance degradation". Our calibration: 30-50%.
        let data = figure(5_000, 5);
        let typical = &data.rows[2];
        assert!(
            (0.25..0.55).contains(&typical.gain[0]),
            "typical 0% gain {}",
            typical.gain[0]
        );
    }
}
