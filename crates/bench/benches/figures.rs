//! Criterion benches — one per table/figure of the paper (reduced cycle
//! counts so `cargo bench` completes in minutes). Each bench times the
//! full regeneration of its artifact through its one public entry point
//! (the `razorbus_scenario::paper` set plus adapter, or `fig6::run` and
//! `scaling::run`) and prints the headline numbers once, so `cargo bench`
//! output doubles as a smoke reproduction.

use criterion::{criterion_group, criterion_main, Criterion};
use razorbus_bench::REPRO_SEED;
use razorbus_core::{experiments, DvsBusDesign};
use razorbus_scenario::{paper, ScenarioSet, ScenarioSetRun};
use std::hint::black_box;

const CYCLES: u64 = 20_000;

fn run(set: fn(u64, u64) -> ScenarioSet) -> ScenarioSetRun {
    set(black_box(CYCLES), REPRO_SEED)
        .run()
        .expect("paper sets are valid")
}

fn bench_fig4(c: &mut Criterion) {
    let once = paper::fig4_panel(&run(paper::fig4_set), "fig4@typical").unwrap();
    println!(
        "[fig4] typical corner: first failure at {:?}, floor-energy {:.3}",
        once.first_failure_voltage(),
        once.points[0].bus_energy_norm
    );
    c.bench_function("fig4_typical_panel", |b| {
        b.iter(|| {
            let run = run(paper::fig4_set);
            black_box(
                paper::fig4_panel(&run, "fig4@typical")
                    .unwrap()
                    .points
                    .len(),
            )
        });
    });
}

fn bench_fig5(c: &mut Criterion) {
    let once = paper::fig5_data(&run(paper::fig5_set)).unwrap();
    println!(
        "[fig5] gains@2%: worst {:.1}% .. best {:.1}%",
        once.rows[0].gain[1] * 100.0,
        once.rows[4].gain[1] * 100.0
    );
    c.bench_function("fig5_five_corners", |b| {
        b.iter(|| black_box(paper::fig5_data(&run(paper::fig5_set)).unwrap().rows.len()));
    });
}

fn bench_fig6(c: &mut Criterion) {
    let design = DvsBusDesign::paper_default();
    c.bench_function("fig6_oracle_residency", |b| {
        b.iter(|| {
            let data = experiments::fig6::run(&design, 10, black_box(5_000), REPRO_SEED);
            black_box(data.entries.len())
        });
    });
}

fn bench_fig8(c: &mut Criterion) {
    let once = run(paper::fig8_set);
    let once = paper::fig8_data(&once).unwrap();
    println!(
        "[fig8] total gain {:.1}%, err {:.2}%",
        once.total_energy_gain() * 100.0,
        once.total_error_rate() * 100.0
    );
    c.bench_function("fig8_closed_loop_10_programs", |b| {
        b.iter(|| {
            let run = run(paper::fig8_set);
            black_box(paper::fig8_data(&run).unwrap().samples.len())
        });
    });
}

fn bench_table1(c: &mut Criterion) {
    let once = paper::table1_data(&run(paper::table1_set)).unwrap();
    println!(
        "[table1] totals: worst corner DVS {:.1}%, typical DVS {:.1}%",
        once.corners[0].total.dvs_gain * 100.0,
        once.corners[1].total.dvs_gain * 100.0
    );
    c.bench_function("table1_both_corners", |b| {
        b.iter(|| {
            let data = paper::table1_data(&run(paper::table1_set)).unwrap();
            black_box(data.corners.len())
        });
    });
}

fn bench_fig10(c: &mut Criterion) {
    let once = paper::fig10_data(&run(paper::fig10_set)).unwrap();
    println!(
        "[fig10] worst-corner DVS gain {:.1}% -> {:.1}%",
        once.worst_corner_dvs_gain.0 * 100.0,
        once.worst_corner_dvs_gain.1 * 100.0
    );
    c.bench_function("fig10_modified_bus", |b| {
        b.iter(|| {
            let data = paper::fig10_data(&run(paper::fig10_set)).unwrap();
            black_box(data.modified.len())
        });
    });
}

fn bench_scaling(c: &mut Criterion) {
    let once = experiments::scaling::run(CYCLES / 2, REPRO_SEED);
    println!(
        "[scaling] R*Cc {:.1} -> {:.1} ps/mm2 across nodes",
        once.rows[0].pattern_spread_per_mm2, once.rows[3].pattern_spread_per_mm2
    );
    c.bench_function("scaling_four_nodes", |b| {
        b.iter(|| {
            let data = experiments::scaling::run(black_box(CYCLES / 2), REPRO_SEED);
            black_box(data.rows.len())
        });
    });
}

criterion_group! {
    name = figures;
    config = Criterion::default().sample_size(10);
    targets = bench_fig4, bench_fig5, bench_fig6, bench_fig8, bench_table1, bench_fig10, bench_scaling
}
criterion_main!(figures);
