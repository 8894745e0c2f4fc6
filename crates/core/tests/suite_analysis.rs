//! Suite-traffic differential test for the cycle-analysis kernel: the
//! ten benchmark traces are the dense program traffic the LUT kernel and
//! its opposing-candidate folds are tuned for, so both fast entry points
//! — `CycleAnalyzer::analyze` (whole-cycle cache) and `analyze_cycle` —
//! must reproduce `analyze_cycle_reference` bit for bit on every cycle.

use razorbus_core::DvsBusDesign;
use razorbus_traces::{Benchmark, TraceSource};

const CYCLES: usize = 20_000;
const SEED: u64 = 2005;

#[test]
fn suite_traces_match_reference_bitwise() {
    let design = DvsBusDesign::paper_default();
    let bus = design.bus();
    for benchmark in Benchmark::ALL {
        let words = benchmark.trace(SEED).take_words(CYCLES + 1);
        let mut analyzer = bus.analyzer();
        for (cycle, pair) in words.windows(2).enumerate() {
            let (prev, cur) = (pair[0], pair[1]);
            let want = bus.analyze_cycle_reference(prev, cur);
            for (path, got) in [
                ("analyzer", analyzer.analyze(prev, cur)),
                ("analyze_cycle", bus.analyze_cycle(prev, cur)),
            ] {
                assert_eq!(
                    got.worst_ceff_per_mm.to_bits(),
                    want.worst_ceff_per_mm.to_bits(),
                    "{benchmark} cycle {cycle} ({path}): worst load drifted"
                );
                assert_eq!(
                    got.switched_cap_per_mm.to_bits(),
                    want.switched_cap_per_mm.to_bits(),
                    "{benchmark} cycle {cycle} ({path}): switched cap drifted"
                );
                assert_eq!(
                    got.toggled_wires, want.toggled_wires,
                    "{benchmark} cycle {cycle} ({path}): toggle count drifted"
                );
            }
        }
    }
}
