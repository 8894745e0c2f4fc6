//! The §6 interconnect-architecture study: boost the coupling ratio at
//! constant worst-case delay (Fig. 10) and project the technique across
//! technology nodes.
//!
//! ```sh
//! cargo run --release --example interconnect_tuning
//! ```

use razorbus::core::{experiments, DvsBusDesign};
use razorbus::scenario::paper;

fn main() {
    let cycles = razorbus::core::env_knob("RAZORBUS_CYCLES", 1)
        .unwrap_or_else(|e| fail(&e))
        .unwrap_or(200_000);

    let base = DvsBusDesign::paper_default();
    let modified = DvsBusDesign::modified_paper_bus();

    println!(
        "coupling ratio: {:.2} -> {:.2} (x{:.2}) at constant worst-case load {:.0} fF/mm",
        base.bus().parasitics().coupling_ratio(),
        modified.bus().parasitics().coupling_ratio(),
        modified.bus().parasitics().coupling_ratio() / base.bus().parasitics().coupling_ratio(),
        modified.worst_ceff().ff(),
    );
    println!(
        "fastest path: {:.0} -> {:.0} (the §6 hold-time trade-off)",
        base.bus().min_path_delay(),
        modified.bus().min_path_delay(),
    );

    let run = paper::fig10_set(cycles, 13)
        .run()
        .unwrap_or_else(|e| fail(&e));
    paper::fig10_data(&run).unwrap_or_else(|e| fail(&e)).print();

    println!();
    let scaling = experiments::scaling::run(cycles / 2, 13);
    scaling.print();
}

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}
