//! The traced pass: the executor's plan for one campaign, run on one
//! thread through the public layer functions the executor calls, with
//! a span around each call.
//!
//! The plan mirrors the executor's: members needing the same closed
//! loop share one loop job, a sweep member rides the first loop over
//! its (design, workload, cycles, seed) as a histogram rider, and a
//! workload two or more loop jobs replay is compiled once. Each compile
//! then runs in the order the executor's multi-worker path uses —
//! `drain_words` → `analyze_chunk` per chunk → `from_chunks` → fused
//! or closed-loop replays → `MemberMetrics::of` → `DigestBuilder` —
//! and the loops no compile covers run live afterwards. The products
//! must equal the untraced executor's bit for bit; the benchmark
//! checks that.

use crate::trace::Tracer;
use crate::workload::Setup;
use razorbus_core::experiments::{fig8, SummaryBank};
use razorbus_core::{compile_chunk_cycles, CompiledTrace, FusedOp};
use razorbus_ctrl::GovernorSpec;
use razorbus_process::PvtCorner;
use razorbus_scenario::{
    ControllerSpec, DesignSpec, DigestBuilder, LoopData, MemberMetrics, MemberResult,
    ScenarioSetResult, StreamRun, SweepData, WorkloadSpec,
};
use razorbus_traces::Benchmark;
use std::collections::HashMap;
use std::sync::Arc;

/// Every layer the pass records, in pipeline order.
pub const LAYERS: [&str; 13] = [
    "traces.drain",
    "wire.analyze",
    "core.assemble",
    "core.replay_fused",
    "core.replay_closed",
    "core.live_loop",
    "scenario.aggregate",
    "artifact.encode",
    "artifact.decode",
    "paper.static",
    "paper.fig6",
    "paper.scaling",
    "paper.ablations",
];

/// The executor's default ceiling on resident compiled traces; the
/// pass refuses plans that would exceed it rather than model the
/// executor's live fallback.
const COMPILE_BUDGET: u64 = 768 * 1024 * 1024;

/// Work counted at the layer boundaries.
#[derive(Debug, Default, serde::Serialize)]
pub struct Counts {
    /// Words drained from trace sources.
    pub drain_words: u64,
    /// Cycles classified by `analyze_chunk`.
    pub analyze_cycles: u64,
    /// Largest compiled workload resident at once (bytes).
    pub compiled_peak_bytes: u64,
    /// `replay_fused` calls.
    pub fused_calls: u64,
    /// Members judged by those calls.
    pub fused_members: u64,
    /// Member-cycles they judged.
    pub fused_member_cycles: u64,
    /// Compiled bytes they streamed (one pass per call).
    pub fused_bytes: u64,
    /// Member-cycles of closed-loop replays.
    pub closed_member_cycles: u64,
    /// Member-cycles of live loops.
    pub live_member_cycles: u64,
    /// Members folded into the campaign digest.
    pub aggregate_members: u64,
}

/// One deduplicated closed loop.
struct LoopJob {
    design: DesignSpec,
    corner: PvtCorner,
    workload: WorkloadSpec,
    controller: ControllerSpec,
    cycles: u64,
    seed: u64,
    /// Carries the histogram some sweep member rides.
    hist: bool,
    /// Digest ranks of the aggregate members it serves.
    ranks: Vec<usize>,
    /// Some member keeps its products.
    keep: bool,
}

impl LoopJob {
    fn stream_key(&self) -> String {
        stream_key(self.design, &self.workload, self.cycles, self.seed)
    }
}

/// The compile key: what a loop's trace depends on (not its corner or
/// controller).
fn stream_key(design: DesignSpec, workload: &WorkloadSpec, cycles: u64, seed: u64) -> String {
    format!("{:?}", (design, workload, cycles, seed))
}

/// A sampling window and the (loop job, operating point) pairs judged
/// under it in one fused pass.
type FusedGroup = (Option<u64>, Vec<(usize, FusedOp)>);

struct Product {
    data: LoopData,
    sweep: Option<SweepData>,
}

/// Loop results plus the digest fold, filled as jobs finish.
struct Sink {
    products: Vec<Option<Product>>,
    folder: DigestBuilder,
}

impl Sink {
    fn finish(
        &mut self,
        tracer: &mut Tracer,
        counts: &mut Counts,
        job: &LoopJob,
        i: usize,
        product: Product,
    ) {
        if !job.ranks.is_empty() {
            let folder = &mut self.folder;
            tracer.time("scenario.aggregate", || {
                let metrics = MemberMetrics::of(&product.data);
                for &rank in &job.ranks {
                    folder.submit(rank, metrics.clone());
                }
            });
            counts.aggregate_members += job.ranks.len() as u64;
        }
        if job.keep {
            self.products[i] = Some(product);
        }
    }
}

/// Runs the campaign's executor work under `tracer` and returns the
/// result the executor would have returned.
pub fn run(setup: &Setup, tracer: &mut Tracer) -> Result<(ScenarioSetResult, Counts), String> {
    let members = &setup.members;
    let mut counts = Counts::default();

    // Plan: loop jobs, histogram riders, digest ranks, compiles.
    let mut jobs: Vec<LoopJob> = Vec::new();
    let mut job_by_key: HashMap<String, usize> = HashMap::new();
    let mut member_job: Vec<Option<usize>> = Vec::with_capacity(members.len());
    for m in members {
        if !(m.analysis.wants_loop() || m.analysis.wants_aggregate()) {
            member_job.push(None);
            continue;
        }
        let job = LoopJob {
            design: m.design,
            corner: m.run.corner.resolve(),
            workload: m.workload.clone(),
            controller: m.controller,
            cycles: m.run.cycles_per_benchmark,
            seed: m.run.seed,
            hist: false,
            ranks: Vec::new(),
            keep: m.analysis.wants_loop(),
        };
        let key = format!(
            "{:?}",
            (
                job.design,
                job.corner,
                &job.workload,
                job.controller,
                job.cycles,
                job.seed
            )
        );
        let i = *job_by_key.entry(key).or_insert_with(|| {
            jobs.push(job);
            jobs.len() - 1
        });
        jobs[i].keep |= m.analysis.wants_loop();
        member_job.push(Some(i));
    }
    let mut first_by_stream: HashMap<String, usize> = HashMap::new();
    let mut users: HashMap<String, usize> = HashMap::new();
    for (i, job) in jobs.iter().enumerate() {
        first_by_stream.entry(job.stream_key()).or_insert(i);
        *users.entry(job.stream_key()).or_insert(0) += 1;
    }
    let mut member_sweep: Vec<Option<usize>> = Vec::with_capacity(members.len());
    for m in members {
        if !m.analysis.wants_sweep() {
            member_sweep.push(None);
            continue;
        }
        let key = stream_key(
            m.design,
            &m.workload,
            m.run.cycles_per_benchmark,
            m.run.seed,
        );
        let i = *first_by_stream.get(&key).ok_or_else(|| {
            format!(
                "member `{}` needs a summary pass no loop provides; the traced pass models none",
                m.name
            )
        })?;
        jobs[i].hist = true;
        jobs[i].keep = true;
        member_sweep.push(Some(i));
    }
    let mut rank = 0usize;
    for (m, job) in members.iter().zip(&member_job) {
        if m.analysis.wants_aggregate() {
            jobs[job.expect("aggregate members plan a loop job")]
                .ranks
                .push(rank);
            rank += 1;
        }
    }
    // Compiles, in first-appearance order, each with its replaying jobs.
    let mut compiles: Vec<(usize, Vec<usize>)> = Vec::new();
    let mut compile_of: HashMap<String, usize> = HashMap::new();
    let mut live: Vec<usize> = Vec::new();
    let mut footprint = 0u64;
    for (i, job) in jobs.iter().enumerate() {
        let key = job.stream_key();
        if users[&key] < 2 {
            live.push(i);
            continue;
        }
        let c = match compile_of.get(&key) {
            Some(&c) => c,
            None => {
                let streams = match job.workload {
                    WorkloadSpec::Suite => Benchmark::ALL.len() as u64,
                    _ => 1,
                };
                footprint += streams * job.cycles * crate::host::COMPILED_BYTES_PER_CYCLE as u64;
                if footprint > COMPILE_BUDGET {
                    return Err("the campaign exceeds the default compile budget, \
                                which the traced pass does not model"
                        .to_string());
                }
                compiles.push((i, Vec::new()));
                compile_of.insert(key, compiles.len() - 1);
                compiles.len() - 1
            }
        };
        compiles[c].1.push(i);
    }

    let mut sink = Sink {
        products: (0..jobs.len()).map(|_| None).collect(),
        folder: DigestBuilder::new(&setup.set.name),
    };
    let chunk = compile_chunk_cycles().max(1);
    for (lead, replayers) in &compiles {
        let key = &jobs[*lead];
        let design = setup.design(key.design);
        let benches: Vec<Option<Benchmark>> = match key.workload {
            WorkloadSpec::Suite => Benchmark::ALL.into_iter().map(Some).collect(),
            _ => vec![None],
        };
        let mut streams: Vec<Arc<CompiledTrace>> = Vec::with_capacity(benches.len());
        for bench in benches {
            let words = tracer.time("traces.drain", || drain(key, bench))?;
            let n = words.len() - 1;
            let chunks: Vec<_> = (0..n.div_ceil(chunk))
                .map(|k| {
                    let start = k * chunk;
                    let len = chunk.min(n - start);
                    tracer.time("wire.analyze", || {
                        CompiledTrace::analyze_chunk(design, &words, start, len)
                    })
                })
                .collect();
            let compiled = tracer.time("core.assemble", || {
                CompiledTrace::from_chunks(design, key.cycles, chunks)
            });
            counts.drain_words += words.len() as u64;
            counts.analyze_cycles += n as u64;
            streams.push(Arc::new(compiled));
        }
        let bytes: u64 = streams.iter().map(|s| s.memory_bytes() as u64).sum();
        counts.compiled_peak_bytes = counts.compiled_peak_bytes.max(bytes);

        if matches!(key.workload, WorkloadSpec::Suite) {
            // A suite threads one governor across its benchmarks, so
            // every loop over it replays solo.
            for &i in replayers {
                let job = &jobs[i];
                let governor = job.controller.build(design, job.corner)?;
                let (data, per) = tracer.time("core.replay_closed", || {
                    fig8::replay_protocol(
                        design,
                        job.corner,
                        &streams,
                        governor,
                        job.controller.sampling,
                        job.hist,
                    )
                });
                counts.closed_member_cycles += job.cycles * streams.len() as u64;
                let sweep = job
                    .hist
                    .then(|| SweepData::Bank(SummaryBank::from_per_benchmark(per)));
                let product = Product {
                    data: LoopData::Suite(data),
                    sweep,
                };
                sink.finish(tracer, &mut counts, job, i, product);
            }
            continue;
        }
        // Open-loop fixed-supply members of one stream fuse into a group
        // per sampling window (fan-in unbounded, the executor's default).
        let trace = &streams[0];
        let mut groups: Vec<FusedGroup> = Vec::new();
        for &i in replayers {
            let job = &jobs[i];
            let GovernorSpec::Fixed(supply) = job.controller.governor else {
                return Err(
                    "closed-loop replays of a single stream are outside the traced pass"
                        .to_string(),
                );
            };
            if job.hist {
                return Err(
                    "histogram riders on a single stream are outside the traced pass".to_string(),
                );
            }
            let op = FusedOp {
                pvt: job.corner,
                supply,
            };
            let sampling = job.controller.sampling;
            match groups.iter_mut().find(|(s, _)| *s == sampling) {
                Some((_, group)) => group.push((i, op)),
                None => groups.push((sampling, vec![(i, op)])),
            }
        }
        for (sampling, group) in groups {
            let ops: Vec<FusedOp> = group.iter().map(|(_, op)| *op).collect();
            let reports = tracer.time("core.replay_fused", || {
                trace.replay_fused(design, &ops, sampling)
            });
            counts.fused_calls += 1;
            counts.fused_members += ops.len() as u64;
            counts.fused_member_cycles += ops.len() as u64 * trace.cycles();
            counts.fused_bytes += trace.memory_bytes() as u64;
            for ((i, op), report) in group.into_iter().zip(reports) {
                let data = LoopData::Stream(StreamRun {
                    corner: op.pvt,
                    report,
                });
                let product = Product { data, sweep: None };
                sink.finish(tracer, &mut counts, &jobs[i], i, product);
            }
        }
    }

    for i in live {
        let job = &jobs[i];
        if job.workload != WorkloadSpec::Suite {
            return Err("live single-stream loops are outside the traced pass".to_string());
        }
        let design = setup.design(job.design);
        let governor = job.controller.build(design, job.corner)?;
        let (data, per) = tracer.time("core.live_loop", || {
            fig8::run_protocol(
                design,
                job.corner,
                job.cycles,
                job.seed,
                governor,
                job.controller.sampling,
                job.hist,
            )
        });
        counts.live_member_cycles += job.cycles * Benchmark::ALL.len() as u64;
        let sweep = job
            .hist
            .then(|| SweepData::Bank(SummaryBank::from_per_benchmark(per)));
        let product = Product {
            data: LoopData::Suite(data),
            sweep,
        };
        sink.finish(tracer, &mut counts, job, i, product);
    }

    let Sink { products, folder } = sink;
    let digest = tracer.time("scenario.aggregate", || (rank > 0).then(|| folder.finish()));
    let kept = |i: usize| {
        products[i]
            .as_ref()
            .expect("members that keep products have a finished job")
    };
    let results = members
        .iter()
        .enumerate()
        .map(|(mi, m)| MemberResult {
            spec: m.clone(),
            closed_loop: m
                .analysis
                .wants_loop()
                .then(|| kept(member_job[mi].expect("loop planned")).data.clone()),
            sweep: member_sweep[mi]
                .map(|i| kept(i).sweep.clone().expect("rider carries a histogram")),
        })
        .collect();
    Ok((
        ScenarioSetResult {
            name: setup.set.name.clone(),
            members: results,
            digest,
        },
        counts,
    ))
}

/// Builds the job's trace source and drains its words (the serial phase
/// of a compile).
fn drain(job: &LoopJob, bench: Option<Benchmark>) -> Result<Vec<u32>, String> {
    Ok(match (&job.workload, bench) {
        (WorkloadSpec::Suite, Some(b)) => {
            CompiledTrace::drain_words(&mut b.trace(job.seed), job.cycles)
        }
        (WorkloadSpec::Recipe(recipe), None) => {
            CompiledTrace::drain_words(&mut recipe.build_trace(job.seed)?, job.cycles)
        }
        _ => return Err("single-benchmark workloads are outside the traced pass".to_string()),
    })
}
