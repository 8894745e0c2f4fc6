//! Pins for the compile path's two bulk mechanisms, against oracles
//! that use neither:
//!
//! * `TraceSource::fill_words` on every `TrafficRecipe::build_trace`
//!   variant must emit exactly the words repeated `next_word` calls do.
//! * `CompiledTrace::compile` — the drain → `analyze_chunk` →
//!   `from_chunks` pipeline over one chunk, with its quiet-cycle skip —
//!   must summarize bit-identically to `TraceSummary::collect`, which
//!   classifies the live stream word by word through the analyzer.

use proptest::prelude::*;
use razorbus_core::{CompiledTrace, DvsBusDesign, TraceSummary};
use razorbus_scenario::{
    catalog, DmaProfile, IdleProfile, MixProfile, StormProfile, TrafficRecipe, WorkloadSpec,
};
use razorbus_traces::{Benchmark, TraceSource};

/// Every traffic recipe the catalog runs, deduplicated.
fn catalog_recipes() -> Vec<TrafficRecipe> {
    let mut recipes = Vec::new();
    for name in catalog::NAMES {
        let set = catalog::by_name(name, 1_000, 1).expect("catalog name");
        for member in set.members {
            if let WorkloadSpec::Recipe(recipe) = member.workload {
                if !recipes.contains(&recipe) {
                    recipes.push(recipe);
                }
            }
        }
    }
    recipes
}

/// Recipe variant `kind` from raw sampled parameters. DMA phases and
/// mixed rotations are short (zero-length mixed phases included), so
/// fills straddle both kinds of phase boundary.
fn recipe_from(
    kind: u8,
    dma: (u64, u64, u32),
    rotation: (u64, u64, u64),
    permille: u32,
) -> TrafficRecipe {
    let dma = DmaProfile {
        mean_burst: dma.0,
        mean_idle: dma.1,
        housekeeping_permille: dma.2,
    };
    match kind {
        0 => TrafficRecipe::BurstyDma(dma),
        1 => TrafficRecipe::IdleDominated(IdleProfile {
            nonzero_permille: permille,
        }),
        2 => TrafficRecipe::CrosstalkStorm(StormProfile {
            aggression_permille: permille,
        }),
        _ => TrafficRecipe::Mixed(MixProfile {
            dma,
            dma_words: rotation.0,
            idle: IdleProfile {
                nonzero_permille: 50,
            },
            idle_words: rotation.1,
            storm: StormProfile {
                aggression_permille: permille,
            },
            // At least one word per rotation, as `build_trace` demands.
            storm_words: rotation.2.max(1),
        }),
    }
}

fn fill_len() -> impl Strategy<Value = usize> {
    prop_oneof![Just(0usize), Just(1usize), 0usize..60, 0usize..3_000]
}

/// Drives `bulk` through `schedule` — one `fill_words` of each length,
/// each followed by one `next_word` — and asserts it emits exactly the
/// words `oracle` gives one `next_word` at a time, ending in the same
/// state (their next words agree).
fn assert_fill_matches<B: TraceSource>(
    mut bulk: B,
    oracle: &mut dyn TraceSource,
    schedule: &[usize],
) {
    for (i, &len) in schedule.iter().enumerate() {
        let mut filled = vec![0u32; len];
        bulk.fill_words(&mut filled);
        let expected: Vec<u32> = (0..len).map(|_| oracle.next_word()).collect();
        assert_eq!(filled, expected, "fill {i} of {len} words");
        assert_eq!(bulk.next_word(), oracle.next_word(), "word after fill {i}");
    }
    let after: Vec<u32> = (0..64).map(|_| bulk.next_word()).collect();
    let expected: Vec<u32> = (0..64).map(|_| oracle.next_word()).collect();
    assert_eq!(after, expected, "state after the schedule");
}

proptest! {
    /// `fill_words` ≡ repeated `next_word` on every recipe variant,
    /// through the boxed `dyn` source `build_trace` returns and through
    /// `&mut` to it, interleaved with single-word calls.
    #[test]
    fn recipe_fill_words_matches_next_word(
        kind in 0u8..4,
        dma in (1u64..40, 1u64..80, 0u32..200),
        rotation in (0u64..50, 0u64..50, 0u64..50),
        permille in 0u32..=1_000,
        seed in any::<u64>(),
        schedule in proptest::collection::vec(fill_len(), 1..10),
        by_ref in any::<bool>(),
    ) {
        let recipe = recipe_from(kind, dma, rotation, permille);
        let mut oracle = recipe.build_trace(seed).expect("valid recipe");
        let mut bulk = recipe.build_trace(seed).expect("valid recipe");
        if by_ref {
            assert_fill_matches(&mut bulk, &mut oracle, &schedule);
        } else {
            assert_fill_matches(bulk, &mut oracle, &schedule);
        }
    }

    /// The same on the catalog's own recipes, whose phases are long.
    #[test]
    fn catalog_recipe_fill_words_matches_next_word(
        seed in any::<u64>(),
        schedule in proptest::collection::vec(fill_len(), 1..10),
    ) {
        for recipe in catalog_recipes() {
            let mut oracle = recipe.build_trace(seed).expect("catalog recipe");
            assert_fill_matches(recipe.build_trace(seed).expect("catalog recipe"), &mut oracle, &schedule);
        }
    }
}

#[test]
fn compile_summary_matches_live_collect() {
    // The independent oracle for the one-chunk compile: every catalog
    // recipe (long enough for bursty-dma's first ~40 k-cycle idle gap
    // to end) and one suite benchmark, on both buses.
    let recipes = catalog_recipes();
    assert_eq!(
        recipes.len(),
        4,
        "bursty-dma, idle, storm, mixed: {recipes:?}"
    );
    let cycles = 100_000;
    for design in [
        DvsBusDesign::paper_default(),
        DvsBusDesign::modified_paper_bus(),
    ] {
        for recipe in &recipes {
            for seed in [1, 2005] {
                let trace = || recipe.build_trace(seed).expect("catalog recipe");
                let compiled = CompiledTrace::compile(&design, &mut trace(), cycles);
                let live = TraceSummary::collect(&design, &mut trace(), cycles);
                assert_eq!(compiled.summary(), live, "{recipe:?} seed {seed}");
            }
        }
        let compiled = CompiledTrace::compile(&design, &mut Benchmark::Mgrid.trace(3), cycles);
        let live = TraceSummary::collect(&design, &mut Benchmark::Mgrid.trace(3), cycles);
        assert_eq!(compiled.summary(), live, "mgrid");
    }
}

#[test]
fn chunked_compile_matches_one_chunk_across_quiet_runs() {
    // Idle traffic puts chunk seams inside quiet runs and leaves whole
    // chunks quiet, where the quiet-cycle skip emits nothing but the
    // zeroed arrays. The premise is asserted, so the case cannot
    // silently stop covering that.
    let design = DvsBusDesign::paper_default();
    let cycles = 10_000u64;
    let n = cycles as usize;
    for nonzero_permille in [0, 50] {
        let idle = TrafficRecipe::IdleDominated(IdleProfile { nonzero_permille });
        let trace = || idle.build_trace(9).expect("valid recipe");
        let words = CompiledTrace::drain_words(&mut trace(), cycles);
        let quiet = |c: usize| words[c] == words[c + 1];
        let one = CompiledTrace::compile(&design, &mut trace(), cycles);
        for chunk in [1usize, 7, 4_096] {
            let starts: Vec<usize> = (0..n).step_by(chunk).collect();
            assert!(
                starts[1..].iter().any(|&s| quiet(s - 1) && quiet(s)),
                "{nonzero_permille}‰, chunk {chunk}: no seam inside a quiet run"
            );
            let whole_quiet = starts.iter().any(|&s| (s..n.min(s + chunk)).all(quiet));
            assert_eq!(
                whole_quiet,
                nonzero_permille == 0 || chunk < 4_096,
                "{nonzero_permille}‰, chunk {chunk}: entirely quiet chunks"
            );
            let chunks = starts
                .iter()
                .map(|&s| CompiledTrace::analyze_chunk(&design, &words, s, chunk.min(n - s)))
                .collect();
            let split = CompiledTrace::from_chunks(&design, cycles, chunks);
            assert_eq!(split, one, "{nonzero_permille}‰, chunk {chunk}");
        }
    }
}
