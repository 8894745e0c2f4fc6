//! The three campaign workloads: their set-up, the outputs each
//! campaign writes after the executor, and the products the benchmark
//! checks bit for bit.

use crate::trace::Tracer;
use razorbus_artifact::{Artifact, Encoding};
use razorbus_bench::ablations;
use razorbus_bench::persist::ReproSummaries;
use razorbus_core::experiments::{self, fig8::Fig8Data, SummaryBank};
use razorbus_core::DvsBusDesign;
use razorbus_process::PvtCorner;
use razorbus_scenario::{
    catalog, paper, CampaignDigest, CampaignRecording, DesignSpec, LoopData, ScenarioSet,
    ScenarioSetResult, ScenarioSetRun, ScenarioSpec, SweepData,
};
use std::io::Write;
use std::path::Path;

/// Cycles per benchmark of the `paper` and `shootout` campaigns.
pub const CYCLES: u64 = 500_000;

/// Members of `mc10k` and the cycles each runs (the catalog caps
/// Monte-Carlo members at 50 k cycles whatever budget it is given).
pub const MC_MEMBERS: u64 = 10_000;
/// See [`MC_MEMBERS`].
pub const MC_MEMBER_CYCLES: u64 = 50_000;

/// Where `mc10k` saves its `campaign-digest` (as `repro scenario
/// monte-carlo-dvs --save-digest` does).
pub const DIGEST_FILE: &str = "campaign-digest.rzba";
/// Where `shootout` saves its `scenario-result` (as `repro scenario
/// governor-shootout --save-result` does).
pub const RESULT_FILE: &str = "scenario-result.rzba";

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The `repro all` pipeline.
    Paper,
    /// Catalog `monte-carlo-dvs`: 10 000 aggregate members.
    Mc10k,
    /// Catalog `governor-shootout`: three governors over one suite.
    Shootout,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Result<Self, String> {
        match name {
            "paper" => Ok(Self::Paper),
            "mc10k" => Ok(Self::Mc10k),
            "shootout" => Ok(Self::Shootout),
            _ => Err(format!(
                "unknown workload '{name}' (expected paper, mc10k or shootout)"
            )),
        }
    }

    fn set(self, seed: u64) -> ScenarioSet {
        match self {
            Self::Paper => paper::paper_all_set(CYCLES, seed),
            Self::Mc10k => catalog::monte_carlo_dvs_set(CYCLES, seed),
            Self::Shootout => catalog::governor_shootout_set(CYCLES, seed),
        }
    }
}

/// What a campaign needs before it starts: its set, the expanded
/// members, and every design the members use, built once.
pub struct Setup {
    /// The workload.
    pub workload: Workload,
    /// Trace seed of every member.
    pub seed: u64,
    /// The scenario set the campaign runs.
    pub set: ScenarioSet,
    /// Its expansion.
    pub members: Vec<ScenarioSpec>,
    /// Each design the members use, in first-use order.
    pub designs: Vec<(DesignSpec, DvsBusDesign)>,
}

impl Setup {
    /// Expands the workload's set and builds its designs.
    pub fn new(workload: Workload, seed: u64) -> Result<Self, String> {
        let set = workload.set(seed);
        let members = set.expand()?;
        let mut designs: Vec<(DesignSpec, DvsBusDesign)> = Vec::new();
        for m in &members {
            if !designs.iter().any(|(spec, _)| *spec == m.design) {
                designs.push((m.design, m.design.build()?));
            }
        }
        Ok(Self {
            workload,
            seed,
            set,
            members,
            designs,
        })
    }

    /// The built design for `spec`.
    pub fn design(&self, spec: DesignSpec) -> &DvsBusDesign {
        self.designs
            .iter()
            .find(|(s, _)| *s == spec)
            .map(|(_, d)| d)
            .expect("set-up builds every design the members use")
    }
}

/// Writes what the campaign outputs once the executor has finished:
/// the `repro all` report for `paper`, or the saved artifact plus the
/// generic render for the catalog campaigns. A recording `tracer` also
/// reloads each saved artifact and requires it equal to the original.
/// Returns the bytes saved.
pub fn write_outputs(
    setup: &Setup,
    run: &ScenarioSetRun,
    out: &Path,
    tracer: &mut Tracer,
) -> Result<u64, String> {
    let saved = match setup.workload {
        Workload::Paper => {
            let shared = ReproSummaries::from_scenario_run(run, CYCLES, setup.seed)?;
            print_paper_report(setup, &shared, tracer);
            0
        }
        Workload::Mc10k => {
            let digest = run
                .result
                .digest
                .as_ref()
                .ok_or("mc10k produced no campaign digest")?;
            let saved = save(digest, &out.join(DIGEST_FILE), tracer)?;
            run.print();
            saved
        }
        Workload::Shootout => {
            let saved = save(&run.result, &out.join(RESULT_FILE), tracer)?;
            run.print();
            saved
        }
    };
    std::io::stdout()
        .flush()
        .map_err(|e| format!("cannot flush the campaign output: {e}"))?;
    Ok(saved)
}

/// Saves `value` as a framed binary artifact and returns its size.
fn save<T: Artifact + PartialEq>(
    value: &T,
    path: &Path,
    tracer: &mut Tracer,
) -> Result<u64, String> {
    tracer
        .time("artifact.encode", || {
            value.save_file(path, Encoding::Binary)
        })
        .map_err(|e| format!("cannot save {}: {e}", path.display()))?;
    if tracer.is_recording() {
        let back = tracer
            .time("artifact.decode", || T::load_file(path))
            .map_err(|e| format!("cannot reload {}: {e}", path.display()))?;
        if back != *value {
            return Err(format!(
                "{} does not reload to what was saved",
                path.display()
            ));
        }
    }
    std::fs::metadata(path)
        .map(|m| m.len())
        .map_err(|e| format!("cannot stat {}: {e}", path.display()))
}

/// The `repro all` report from its shared inputs: the calls of the
/// `repro` binary's `all` pipeline, in its order, at this seed.
fn print_paper_report(setup: &Setup, shared: &ReproSummaries, tracer: &mut Tracer) {
    let design = setup.design(DesignSpec::Paper);
    let modified = setup.design(DesignSpec::ModifiedCoupling);
    let seed = setup.seed;
    let combined = shared.bank.combined();

    banner("Fig. 4 (energy & error rate vs. static VDD)");
    tracer.time("paper.static", || {
        experiments::fig4::from_summary(design, PvtCorner::WORST, combined).print();
        println!();
        experiments::fig4::from_summary(design, PvtCorner::TYPICAL, combined).print();
    });

    banner("Fig. 5 (gains vs. PVT delay spread)");
    tracer.time("paper.static", || {
        experiments::fig5::from_summary(design, combined).print();
    });

    banner("Fig. 6 (optimal supply residency)");
    let windows = (CYCLES / 10_000).max(10) as usize;
    tracer.time("paper.fig6", || {
        experiments::fig6::run(design, windows, 10_000, seed).print();
    });

    banner("Fig. 8 (closed-loop trajectory, typical corner)");
    tracer.time("paper.static", || shared.dvs_typical.print());

    banner("Table 1 (fixed VS vs. proposed DVS)");
    tracer.time("paper.static", || {
        experiments::table1::from_parts(
            design,
            &shared.bank,
            &shared.dvs_worst,
            &shared.dvs_typical,
        )
        .print();
    });

    banner("Fig. 10 / §6 (modified bus)");
    tracer.time("paper.static", || {
        experiments::fig10::from_parts(
            design,
            modified,
            combined,
            &shared.mod_summary,
            &shared.dvs_worst,
            &shared.mod_dvs,
        )
        .print();
    });

    banner("§6 technology scaling");
    tracer.time("paper.scaling", || {
        experiments::scaling::run(CYCLES / 4, seed).print();
    });

    banner("Ablations (DESIGN.md §6)");
    tracer.time("paper.ablations", || ablations::run_all(CYCLES / 4));
}

fn banner(title: &str) {
    println!("\n================================================================");
    println!("{title}");
    println!("================================================================");
}

/// What a finished campaign produced, for the correctness checks.
pub struct Products {
    /// Bytes compared bit for bit against the reference: the saved
    /// `campaign-digest` artifact (`mc10k`), or the per-member digests
    /// of a [`CampaignRecording`] (`paper`, `shootout`).
    pub bytes: Vec<u8>,
    /// Why the simulated geometry is not the intended one, if it is not.
    pub geometry_error: Option<String>,
    /// Simulated statistics, reported as information beside the
    /// paper's figures.
    pub info: Vec<(String, f64)>,
}

/// Extracts the checked products from a finished campaign (after its
/// timed part).
pub fn products(setup: &Setup, result: &ScenarioSetResult, out: &Path) -> Result<Products, String> {
    if setup.workload == Workload::Mc10k {
        let digest = result
            .digest
            .as_ref()
            .ok_or("mc10k produced no campaign digest")?;
        let path = out.join(DIGEST_FILE);
        let bytes =
            std::fs::read(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let want = MC_MEMBERS * MC_MEMBER_CYCLES;
        let geometry_error =
            (digest.members != MC_MEMBERS || digest.total_cycles != want).then(|| {
                format!(
                    "digest folds {} members over {} cycles, expected {MC_MEMBERS} over {want}",
                    digest.members, digest.total_cycles
                )
            });
        return Ok(Products {
            bytes,
            geometry_error,
            info: digest_info(digest),
        });
    }
    let recording = CampaignRecording::from_run(&setup.set, result, true)?;
    let bytes = razorbus_artifact::json::to_string(&recording.members)
        .map_err(|e| format!("cannot encode member digests: {e}"))?
        .into_bytes();
    let geometry_error = result.members.iter().find_map(|m| {
        let Some(LoopData::Suite(data)) = &m.closed_loop else {
            return None;
        };
        let cycles: u64 = data.segments.iter().map(|s| s.report.cycles).sum();
        (data.segments.len() != 10 || cycles != 10 * CYCLES).then(|| {
            format!(
                "member `{}` simulated {} segments over {cycles} cycles, expected 10 over {}",
                m.spec.name,
                data.segments.len(),
                10 * CYCLES
            )
        })
    });
    let info = match setup.workload {
        Workload::Paper => table1_info(setup, result)?,
        _ => result
            .members
            .iter()
            .filter_map(|m| Some((m.spec.name.as_str(), m.closed_loop.as_ref()?)))
            .flat_map(|(name, data)| {
                [
                    (format!("{name}.energy_gain"), data.energy_gain()),
                    (format!("{name}.error_rate"), data.error_rate()),
                ]
            })
            .collect(),
    };
    Ok(Products {
        bytes,
        geometry_error,
        info,
    })
}

fn digest_info(digest: &CampaignDigest) -> Vec<(String, f64)> {
    vec![
        ("energy_gain.mean".to_string(), digest.energy_gain.mean()),
        (
            "error_rate.max".to_string(),
            digest.error_rate.max().unwrap_or(0.0),
        ),
        (
            "shadow_violations".to_string(),
            digest.total_shadow_violations as f64,
        ),
    ]
}

/// Table 1's whole-suite rows at both corners.
fn table1_info(setup: &Setup, result: &ScenarioSetResult) -> Result<Vec<(String, f64)>, String> {
    let suite = |name: &str| -> Result<&Fig8Data, String> {
        match &result.member(name)?.closed_loop {
            Some(LoopData::Suite(data)) => Ok(data),
            _ => Err(format!("member `{name}` carries no suite closed loop")),
        }
    };
    let bank: &SummaryBank = match &result.member("table1@typical")?.sweep {
        Some(SweepData::Bank(bank)) => bank,
        _ => return Err("member `table1@typical` carries no summary bank".to_string()),
    };
    let table = experiments::table1::from_parts(
        setup.design(DesignSpec::Paper),
        bank,
        suite("table1@worst")?,
        suite("fig8")?,
    );
    let mut info = Vec::new();
    for (label, corner) in ["worst", "typical"].into_iter().zip(&table.corners) {
        info.push((format!("table1.{label}.dvs_gain"), corner.total.dvs_gain));
        info.push((
            format!("table1.{label}.dvs_error_rate"),
            corner.total.dvs_error_rate,
        ));
        info.push((
            format!("table1.{label}.fixed_gain"),
            corner.total.fixed_gain,
        ));
    }
    Ok(info)
}
