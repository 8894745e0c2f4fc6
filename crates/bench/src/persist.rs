//! The `repro all` shared heavy inputs, extracted from an executed
//! `paper-all` scenario set.
//!
//! `repro all` spends nearly all of its wall clock collecting three
//! inputs: the typical-corner consecutive closed loop whose by-product
//! histograms form the [`SummaryBank`], the worst-corner closed loop,
//! and the modified bus's worst-corner loop plus combined summary.
//! Everything printed afterwards is a cheap table walk over these.
//! [`ReproSummaries`] names the three so the report code reads them as
//! fields. They persist as part of the `scenario-result` artifact
//! (`repro all --save-result` / `--load-result`), not on their own.

use razorbus_core::experiments::{fig8::Fig8Data, SummaryBank};
use razorbus_core::TraceSummary;
use razorbus_scenario::{LoopData, ScenarioSetRun, SweepData};

/// The three shared heavy inputs of `repro all`, plus the parameters
/// they were collected under.
///
/// ```
/// use razorbus_bench::persist::ReproSummaries;
/// use razorbus_scenario::paper::paper_all_set;
///
/// let run = paper_all_set(2_000, 42).run().unwrap();
/// let shared = ReproSummaries::from_scenario_run(&run, 2_000, 42).unwrap();
/// // The typical-corner bank covers the whole ten-benchmark suite.
/// assert_eq!(shared.bank.per_benchmark().len(), 10);
/// assert_eq!(shared.dvs_worst.segments.len(), 10);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ReproSummaries {
    /// Cycles per benchmark the inputs were collected at.
    pub cycles_per_benchmark: u64,
    /// Trace seed in force during collection.
    pub seed: u64,
    /// Paper bus, typical corner: the Fig. 8 trajectory.
    pub dvs_typical: Fig8Data,
    /// Per-benchmark histograms + merge from the typical-corner pass
    /// (serves Fig. 4 both panels, Fig. 5, Table 1, Fig. 10 original).
    pub bank: SummaryBank,
    /// Paper bus, worst corner (serves Table 1 and Fig. 10).
    pub dvs_worst: Fig8Data,
    /// Modified bus, worst corner.
    pub mod_dvs: Fig8Data,
    /// Modified bus combined summary (Fig. 10's modified-bus sweep).
    pub mod_summary: TraceSummary,
}

impl ReproSummaries {
    /// Extracts the `repro all` shared inputs from an executed
    /// `paper-all` scenario set (the executor runs the three heavy jobs
    /// concurrently and deduplicates the rest).
    ///
    /// # Errors
    ///
    /// Errors when `run` is not a `paper-all`-shaped set.
    pub fn from_scenario_run(
        run: &ScenarioSetRun,
        cycles_per_benchmark: u64,
        seed: u64,
    ) -> Result<Self, String> {
        let suite_loop = |name: &str| -> Result<Fig8Data, String> {
            match &run.result.member(name)?.closed_loop {
                Some(LoopData::Suite(data)) => Ok(data.clone()),
                _ => Err(format!("member `{name}` carries no suite closed loop")),
            }
        };
        let bank_of = |name: &str| -> Result<SummaryBank, String> {
            match &run.result.member(name)?.sweep {
                Some(SweepData::Bank(bank)) => Ok(bank.clone()),
                _ => Err(format!("member `{name}` carries no summary bank")),
            }
        };
        Ok(Self {
            cycles_per_benchmark,
            seed,
            dvs_typical: suite_loop("fig8")?,
            bank: bank_of("table1@typical")?,
            dvs_worst: suite_loop("table1@worst")?,
            mod_dvs: suite_loop("fig10-modified")?,
            mod_summary: bank_of("fig10-modified")?.into_combined(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use razorbus_artifact::{decode, encode, Artifact, Encoding};
    use razorbus_core::experiments;
    use razorbus_scenario::{paper, DesignSpec, ScenarioSetResult};

    fn small_run() -> ScenarioSetRun {
        paper::paper_all_set(1_000, 7).run().unwrap()
    }

    /// Table 1 and Fig. 10 as `repro all` prints them from `run`: the
    /// shared inputs plus the run's (possibly rebuilt) designs.
    fn figures(run: &ScenarioSetRun) -> (String, String) {
        let shared = ReproSummaries::from_scenario_run(run, 1_000, 7).unwrap();
        let design = run.design_for(&DesignSpec::Paper).unwrap();
        let modified = run.design_for(&DesignSpec::ModifiedCoupling).unwrap();
        let table1 = experiments::table1::from_parts(
            design,
            &shared.bank,
            &shared.dvs_worst,
            &shared.dvs_typical,
        );
        let fig10 = experiments::fig10::from_parts(
            design,
            modified,
            shared.bank.combined(),
            &shared.mod_summary,
            &shared.dvs_worst,
            &shared.mod_dvs,
        );
        (format!("{table1:?}"), format!("{fig10:?}"))
    }

    #[test]
    fn shared_inputs_round_trip_both_encodings() {
        // The shared inputs persist inside the `scenario-result`
        // artifact; either encoding must hand them back unchanged.
        let cold = small_run();
        let inputs = ReproSummaries::from_scenario_run(&cold, 1_000, 7).unwrap();
        for encoding in [Encoding::Binary, Encoding::Json] {
            let bytes = encode(ScenarioSetResult::KIND, encoding, &cold.result).unwrap();
            let result: ScenarioSetResult = decode(ScenarioSetResult::KIND, &bytes).unwrap();
            let warm = ScenarioSetRun::from_result(result).unwrap();
            let back = ReproSummaries::from_scenario_run(&warm, 1_000, 7).unwrap();
            assert_eq!(back, inputs, "{encoding:?} round trip drifted");
        }
    }

    #[test]
    fn figures_from_reloaded_inputs_are_identical() {
        // `repro all --load-result` must print what a cold run prints.
        let cold = small_run();
        let bytes = encode(ScenarioSetResult::KIND, Encoding::Binary, &cold.result).unwrap();
        let result: ScenarioSetResult = decode(ScenarioSetResult::KIND, &bytes).unwrap();
        let warm = ScenarioSetRun::from_result(result).unwrap();
        assert_eq!(figures(&cold), figures(&warm));
    }

    #[test]
    fn shared_inputs_match_the_paper_adapters() {
        // The figures `repro all` prints equal what the scenario layer's
        // own adapters (`repro scenario paper-all`) build from the run.
        let run = small_run();
        let (table1, fig10) = figures(&run);
        assert_eq!(table1, format!("{:?}", paper::table1_data(&run).unwrap()));
        assert_eq!(fig10, format!("{:?}", paper::fig10_data(&run).unwrap()));
    }
}
