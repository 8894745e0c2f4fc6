//! The paper's headline scenario (§5, Fig. 8 / Table 1): ten SPEC2000
//! programs run consecutively on the memory read bus while the DVS
//! controller rides the error-rate band — at the worst corner and at the
//! typical corner.
//!
//! ```sh
//! cargo run --release --example dvs_memory_bus
//! # more cycles per program:
//! RAZORBUS_CYCLES=10000000 cargo run --release --example dvs_memory_bus
//! ```

use razorbus::scenario::{paper, LoopData};

fn main() {
    let cycles = razorbus::core::env_knob("RAZORBUS_CYCLES", 1)
        .unwrap_or_else(|e| fail(&e))
        .unwrap_or(1_000_000);
    // Table 1's set runs the Fig. 8 protocol at both headline corners.
    let run = paper::table1_set(cycles, 7)
        .run()
        .unwrap_or_else(|e| fail(&e));

    for member in ["table1@worst", "table1@typical"] {
        let m = run.result.member(member).unwrap_or_else(|e| fail(&e));
        let Some(LoopData::Suite(data)) = &m.closed_loop else {
            fail(&format!("member `{member}` carries no suite closed loop"));
        };
        println!("================ {} ================", data.corner);
        for (i, seg) in data.segments.iter().enumerate() {
            println!(
                "{:>2}. {:<8} gain {:>5.1}%  err {:>5.2}%  V in [{}, {:.0}] mV",
                i + 1,
                seg.benchmark.name(),
                seg.report.energy_gain() * 100.0,
                seg.report.error_rate() * 100.0,
                seg.report.min_voltage.mv(),
                seg.report.mean_voltage_mv,
            );
        }
        println!(
            "TOTAL gain {:.1}%  err {:.2}%  peak window err {:.1}%\n",
            data.total_energy_gain() * 100.0,
            data.total_error_rate() * 100.0,
            data.peak_window_error_rate() * 100.0,
        );
    }
}

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}
