//! Differential pins: every paper figure produced through the scenario
//! executor must be **bit-identical** to the same figure built by
//! feeding the core kernels directly — `SummaryBank::collect` for the
//! static sweeps, `fig8::run_protocol` with a concrete
//! `ThresholdController` for the closed loops, then the
//! `from_summary`/`from_parts` kernels. That reference shares no code
//! with the executor's planning, deduplication, compiled-trace replay or
//! boxed governors.
//!
//! Identity is asserted on the full `Debug` rendering — every voltage,
//! energy ratio and error count, not a summary statistic.

use razorbus_core::experiments::{fig10, fig4, fig5, fig8, table1, SummaryBank};
use razorbus_core::DvsBusDesign;
use razorbus_ctrl::ThresholdController;
use razorbus_process::PvtCorner;
use razorbus_scenario::paper;

const CYCLES: u64 = 10_000;
const SEED: u64 = 2005;

fn debug<T: std::fmt::Debug>(value: &T) -> String {
    format!("{value:?}")
}

/// The Fig. 8 closed loop without the executor: the paper's threshold
/// controller, sampled every 10 k cycles.
fn direct_loop(design: &DvsBusDesign, corner: PvtCorner) -> fig8::Fig8Data {
    let controller = ThresholdController::new(design.controller_config(corner.process));
    fig8::run_protocol(
        design,
        corner,
        CYCLES,
        SEED,
        controller,
        Some(10_000),
        false,
    )
    .0
}

#[test]
fn fig4_both_panels_match_direct_kernels() {
    let design = DvsBusDesign::paper_default();
    let run = paper::fig4_set(CYCLES, SEED).run().unwrap();
    let bank = SummaryBank::collect(&design, CYCLES, SEED);
    for (member, corner) in [
        ("fig4@worst", PvtCorner::WORST),
        ("fig4@typical", PvtCorner::TYPICAL),
    ] {
        let scenario = paper::fig4_panel(&run, member).unwrap();
        let direct = fig4::from_summary(&design, corner, bank.combined());
        assert_eq!(debug(&scenario), debug(&direct), "{member}");
    }
}

#[test]
fn fig5_matches_direct_kernels() {
    let design = DvsBusDesign::paper_default();
    let run = paper::fig5_set(CYCLES, SEED).run().unwrap();
    let scenario = paper::fig5_data(&run).unwrap();
    let direct = fig5::from_summary(
        &design,
        SummaryBank::collect(&design, CYCLES, SEED).combined(),
    );
    assert_eq!(debug(&scenario), debug(&direct));
}

#[test]
fn fig8_matches_direct_kernels() {
    let design = DvsBusDesign::paper_default();
    let run = paper::fig8_set(CYCLES, SEED).run().unwrap();
    let scenario = paper::fig8_data(&run).unwrap();
    let direct = direct_loop(&design, PvtCorner::TYPICAL);
    // Fig8Data derives PartialEq: assert true bit-identity, then the
    // rendering too (what `repro` prints).
    assert_eq!(*scenario, direct);
    assert_eq!(debug(scenario), debug(&direct));
}

#[test]
fn table1_matches_direct_kernels() {
    let design = DvsBusDesign::paper_default();
    let run = paper::table1_set(CYCLES, SEED).run().unwrap();
    let scenario = paper::table1_data(&run).unwrap();
    let direct = table1::from_parts(
        &design,
        &SummaryBank::collect(&design, CYCLES, SEED),
        &direct_loop(&design, PvtCorner::WORST),
        &direct_loop(&design, PvtCorner::TYPICAL),
    );
    assert_eq!(debug(&scenario), debug(&direct));
}

#[test]
fn fig10_matches_direct_kernels() {
    let design = DvsBusDesign::paper_default();
    let modified = DvsBusDesign::modified_paper_bus();
    let run = paper::fig10_set(CYCLES, SEED).run().unwrap();
    let scenario = paper::fig10_data(&run).unwrap();
    let direct = fig10::from_parts(
        &design,
        &modified,
        SummaryBank::collect(&design, CYCLES, SEED).combined(),
        SummaryBank::collect(&modified, CYCLES, SEED).combined(),
        &direct_loop(&design, PvtCorner::WORST),
        &direct_loop(&modified, PvtCorner::WORST),
    );
    assert_eq!(debug(&scenario), debug(&direct));
}

#[test]
fn paper_all_set_figures_match_standalone_sets() {
    // The combined `repro all` set shares heavy inputs across figures;
    // sharing must not change a single figure relative to running each
    // set on its own.
    let all = paper::paper_all_set(CYCLES, SEED).run().unwrap();
    let fig4 = paper::fig4_set(CYCLES, SEED).run().unwrap();
    assert_eq!(
        debug(&paper::fig4_panel(&all, "fig4@typical").unwrap()),
        debug(&paper::fig4_panel(&fig4, "fig4@typical").unwrap()),
    );
    let table1 = paper::table1_set(CYCLES, SEED).run().unwrap();
    assert_eq!(
        debug(&paper::table1_data(&all).unwrap()),
        debug(&paper::table1_data(&table1).unwrap()),
    );
    let fig10 = paper::fig10_set(CYCLES, SEED).run().unwrap();
    assert_eq!(
        debug(&paper::fig10_data(&all).unwrap()),
        debug(&paper::fig10_data(&fig10).unwrap()),
    );
}
