//! `perfbench-harness`: the measured side of the campaign benchmark.
//! `perfbench/run.py` runs one child per campaign and reads back what
//! it records; see `perfbench/README.md`.
//!
//! ```text
//! perfbench-harness campaign <workload> <seed> <threads|auto> <out-dir> <setups>
//! perfbench-harness traced   <workload> <seed> <out-dir>
//! perfbench-harness roofline <seconds>
//! ```
//!
//! `campaign` sets the workload up `<setups>` times (reporting the
//! median), then runs it once through the scenario executor and writes
//! its outputs exactly as `repro` does. `traced` runs the same campaign
//! on one thread with a span around every layer call. Both print the
//! campaign's output on stdout and write `record.json` (timings,
//! counts, simulated statistics) and `products` (the bytes checked
//! against the reference) into `<out-dir>`.

mod host;
mod trace;
mod traced;
mod workload;

use razorbus_core::compile_chunk_cycles;
use razorbus_scenario::{replay_fanin, worker_count, ScenarioSetRun};
use std::path::Path;
use std::time::Instant;
use trace::Tracer;
use workload::{Setup, Workload};

/// What one child run records for `run.py`.
#[derive(Default, serde::Serialize)]
struct Record {
    /// Members the campaign ran.
    members: u64,
    /// The campaign's error, if it failed.
    error: Option<String>,
    /// Why the simulated geometry is not the intended one, if it is not.
    geometry_error: Option<String>,
    /// Median set-up time (campaign runs).
    setup_s: f64,
    /// Campaign wall time, start to last output byte.
    wall_s: f64,
    /// User plus system CPU time over the same interval.
    cpu_s: f64,
    /// Knobs in force, echoed with the results.
    nproc: usize,
    worker_count: usize,
    replay_fanin: usize,
    compile_chunk_cycles: usize,
    /// Simulated statistics (information, not performance).
    info: Vec<(String, f64)>,
    /// Per-layer self time of the traced pass.
    layers: Vec<(String, f64)>,
    /// Duration of the traced pass's root span.
    trace_total_s: f64,
    /// Bytes of artifacts the campaign saved.
    artifact_bytes: u64,
    /// Work counted at the layer boundaries (traced pass).
    counts: Option<traced::Counts>,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    match args.as_slice() {
        ["campaign", workload, seed, threads, out, setups] => {
            let threads = match *threads {
                "auto" => None,
                n => Some(parse::<usize>(n, "threads").max(1)),
            };
            child(Path::new(out), |record| {
                campaign(
                    Workload::parse(workload)?,
                    parse(seed, "seed"),
                    threads,
                    Path::new(out),
                    parse::<usize>(setups, "setups").max(1),
                    record,
                )
            });
        }
        ["traced", workload, seed, out] => {
            child(Path::new(out), |record| {
                traced(
                    Workload::parse(workload)?,
                    parse(seed, "seed"),
                    Path::new(out),
                    record,
                )
            });
        }
        ["roofline", seconds] => {
            let cycles = usize::try_from(workload::MC_MEMBER_CYCLES).expect("fits");
            let gbps = host::stream_gbps(cycles, parse(seconds, "seconds"));
            println!("{gbps}");
        }
        _ => {
            eprintln!(
                "usage: perfbench-harness campaign <workload> <seed> <threads|auto> <out-dir> <setups>\n\
                 \x20      perfbench-harness traced <workload> <seed> <out-dir>\n\
                 \x20      perfbench-harness roofline <seconds>"
            );
            std::process::exit(2);
        }
    }
}

fn parse<T: std::str::FromStr>(value: &str, what: &str) -> T {
    value.parse().unwrap_or_else(|_| {
        eprintln!("error: {what} '{value}' does not parse");
        std::process::exit(2);
    })
}

/// Runs one child body and writes its record, with any error in it.
fn child(out: &Path, body: impl FnOnce(&mut Record) -> Result<(), String>) {
    let mut record = Record {
        nproc: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        ..Record::default()
    };
    if let Err(e) = body(&mut record) {
        record.error = Some(e);
    }
    let json = razorbus_artifact::json::to_string(&record).expect("the record serializes");
    if let Err(e) = std::fs::write(out.join("record.json"), json) {
        eprintln!("error: cannot write the run record: {e}");
        std::process::exit(1);
    }
}

fn echo_knobs(record: &mut Record) {
    record.worker_count = worker_count(None);
    record.replay_fanin = replay_fanin();
    record.compile_chunk_cycles = compile_chunk_cycles();
}

/// One untraced campaign on the executor's pool.
fn campaign(
    workload: Workload,
    seed: u64,
    threads: Option<usize>,
    out: &Path,
    setups: usize,
    record: &mut Record,
) -> Result<(), String> {
    if let Some(n) = threads {
        // As `repro --threads=N` does: every executor the campaign
        // starts, the ablations' included, reads the pool size here.
        std::env::set_var("RAZORBUS_THREADS", n.to_string());
    }
    echo_knobs(record);
    let mut setup_s = Vec::with_capacity(setups);
    let mut setup = None;
    for _ in 0..setups {
        let start = Instant::now();
        setup = Some(Setup::new(workload, seed)?);
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let setup = setup.expect("at least one set-up");
    setup_s.sort_by(f64::total_cmp);
    record.setup_s = setup_s[setup_s.len() / 2];
    record.members = setup.members.len() as u64;

    let cpu = host::cpu_seconds();
    let start = Instant::now();
    let run = setup.set.run_with_designs(setup.designs.clone())?;
    record.artifact_bytes = workload::write_outputs(&setup, &run, out, &mut Tracer::off())?;
    record.wall_s = start.elapsed().as_secs_f64();
    record.cpu_s = host::cpu_seconds() - cpu;

    finish(&setup, &run, out, record)
}

/// One traced pass: the campaign on one thread, every layer call in a
/// span.
fn traced(workload: Workload, seed: u64, out: &Path, record: &mut Record) -> Result<(), String> {
    // One worker for every executor the pass starts (the ablations').
    std::env::set_var("RAZORBUS_THREADS", "1");
    echo_knobs(record);
    let setup = Setup::new(workload, seed)?;
    record.members = setup.members.len() as u64;

    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.subsec_nanos());
    let mut tracer = Tracer::new(u64::from(std::process::id()) << 32 | u64::from(nanos));
    tracer.enter("campaign");
    let (result, counts) = traced::run(&setup, &mut tracer)?;
    let run = ScenarioSetRun::from_result(result)?;
    record.artifact_bytes = workload::write_outputs(&setup, &run, out, &mut tracer)?;
    tracer.touch(&traced::LAYERS);
    tracer.exit();

    let layers = tracer.layer_times();
    record.trace_total_s = layers.iter().map(|l| l.self_s).sum();
    record.layers = layers
        .iter()
        .map(|l| (l.name.to_string(), l.self_s))
        .collect();
    record.counts = Some(counts);
    tracer
        .write_spans(&out.join("spans.jsonl"))
        .map_err(|e| format!("cannot write spans: {e}"))?;
    finish(&setup, &run, out, record)
}

/// Extracts and writes the checked products.
fn finish(
    setup: &Setup,
    run: &ScenarioSetRun,
    out: &Path,
    record: &mut Record,
) -> Result<(), String> {
    let products = workload::products(setup, &run.result, out)?;
    std::fs::write(out.join("products"), &products.bytes)
        .map_err(|e| format!("cannot write products: {e}"))?;
    record.geometry_error = products.geometry_error;
    record.info = products.info;
    Ok(())
}
