//! Static voltage-scaling exploration (§4, Figs. 4–5): sweep the supply
//! across every PVT corner and print where errors start, how fast they
//! grow, and what energy each target error rate buys.
//!
//! ```sh
//! cargo run --release --example static_scaling_explorer
//! ```

use razorbus::scenario::{paper, ScenarioSet};

fn main() {
    let cycles = razorbus::core::env_knob("RAZORBUS_CYCLES", 1)
        .unwrap_or_else(|e| fail(&e))
        .unwrap_or(200_000);

    // Figs. 4 and 5 as one set: the executor collects the shared
    // all-programs summary once for both.
    let mut members = paper::fig4_set(cycles, 11).members;
    members.extend(paper::fig5_set(cycles, 11).members);
    let run = ScenarioSet {
        name: "static-scaling".to_string(),
        members,
    }
    .run()
    .unwrap_or_else(|e| fail(&e));

    // Fig. 4: the two corners the paper plots.
    for member in ["fig4@worst", "fig4@typical"] {
        let data = paper::fig4_panel(&run, member).unwrap_or_else(|e| fail(&e));
        data.print();
        match data.first_failure_voltage() {
            Some(v) => println!("  first failures appear at {v}\n"),
            None => println!("  error-free across the whole sweep\n"),
        }
    }

    // Fig. 5: all five corners, three target error rates.
    let fig5 = paper::fig5_data(&run).unwrap_or_else(|e| fail(&e));
    fig5.print();

    // The §4 observation that 0% and 2% targets often coincide on the
    // 20 mV grid ("the error rates jump directly from 0 to above 2%").
    let coincident = fig5
        .rows
        .iter()
        .filter(|r| r.voltage[0] == r.voltage[1])
        .count();
    println!("\ncorners where the 0% and 2% supplies coincide on the 20 mV grid: {coincident}/5");
}

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}
