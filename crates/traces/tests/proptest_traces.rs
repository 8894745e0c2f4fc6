//! Property tests for the trace generators: determinism, statistical
//! bounds and the per-benchmark shape invariants the calibration relies
//! on.

use proptest::prelude::*;
use razorbus_traces::{
    AdversarialCrosstalk, Benchmark, BurstyDma, Mixture, MixtureWeights, RandomWords,
    SmallIntWords, StrideWords, TraceRecording, TraceSource, TraceStats, ValueLocalityWords,
    ZeroBurstWords,
};

fn benchmarks() -> impl Strategy<Value = Benchmark> {
    proptest::sample::select(Benchmark::ALL.to_vec())
}

/// `fill_words` lengths: empty and one-word fills, short fills, and
/// long fills that straddle many phases of the short-phase DMA streams
/// below.
fn fill_schedule() -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(
        prop_oneof![Just(0usize), Just(1usize), 0usize..40, 0usize..2_000],
        1..10,
    )
}

/// Drives `bulk` through `schedule` — one `fill_words` of each length,
/// each followed by one `next_word` — and asserts it emits exactly the
/// words `oracle` gives one `next_word` at a time, then leaves both in
/// the same state (their next words agree).
fn assert_fill_matches<B: TraceSource, O: TraceSource>(
    mut bulk: B,
    oracle: &mut O,
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

/// [`assert_fill_matches`] on two fresh copies of one generator, with
/// the bulk copy called directly (`via == 0`), through `&mut T`
/// (`via == 1`) or through `Box<dyn TraceSource + Send>`.
fn check_fill<G: TraceSource + Send>(make: impl Fn() -> G, schedule: &[usize], via: u8) {
    let mut oracle = make();
    let mut bulk = make();
    match via {
        0 => assert_fill_matches(bulk, &mut oracle, schedule),
        1 => assert_fill_matches(&mut bulk, &mut oracle, schedule),
        _ => {
            let boxed: Box<dyn TraceSource + Send + '_> = Box::new(bulk);
            assert_fill_matches(boxed, &mut oracle, schedule);
        }
    }
}

proptest! {
    /// Same seed, same stream — for every benchmark.
    #[test]
    fn benchmark_traces_deterministic(b in benchmarks(), seed in any::<u64>()) {
        let a: Vec<u32> = b.trace(seed).take_words(128);
        let c: Vec<u32> = b.trace(seed).take_words(128);
        prop_assert_eq!(a, c);
    }

    /// Different benchmarks with the same seed produce different streams.
    #[test]
    fn benchmarks_do_not_alias(seed in any::<u64>()) {
        let crafty: Vec<u32> = Benchmark::Crafty.trace(seed).take_words(256);
        let mgrid: Vec<u32> = Benchmark::Mgrid.trace(seed).take_words(256);
        prop_assert_ne!(crafty, mgrid);
    }

    /// Statistics are always within physical bounds.
    #[test]
    fn stats_bounds(b in benchmarks(), seed in 0u64..500) {
        let stats = TraceStats::collect(&mut b.trace(seed), 5_000);
        prop_assert!(stats.mean_toggles >= 0.0 && stats.mean_toggles <= 32.0);
        prop_assert!((0.0..=1.0).contains(&stats.opposing_adjacent_fraction));
        prop_assert!((0.0..=1.0).contains(&stats.quiet_fraction));
        prop_assert!(stats.mean_popcount >= 0.0 && stats.mean_popcount <= 32.0);
    }

    /// The Table 1 grouping invariant: every locality-rich program has a
    /// lighter worst-pattern tail than every dense-FP program, at any
    /// seed.
    #[test]
    fn light_heavy_group_separation(seed in 0u64..50) {
        let frac = |b: Benchmark| {
            TraceStats::collect(&mut b.trace(seed), 60_000).opposing_adjacent_fraction
        };
        for light in [Benchmark::Crafty, Benchmark::Mesa, Benchmark::Gap] {
            for heavy in [Benchmark::Mgrid, Benchmark::Swim] {
                prop_assert!(
                    frac(light) < frac(heavy),
                    "{light} ({}) !< {heavy} ({})", frac(light), frac(heavy)
                );
            }
        }
    }

    /// A mixture with zero `random` weight never produces a cycle pair of
    /// full-entropy words (the high-entropy path is the only one emitting
    /// dense 32-bit toggles from arbitrary state).
    #[test]
    fn no_random_weight_no_dense_bursts(seed in any::<u64>()) {
        let w = MixtureWeights::new(0.4, 0.3, 0.3, 0.0, 0.0);
        let mut m = Mixture::new(seed, w);
        let stats = TraceStats::collect(&mut m, 20_000);
        // Without high-entropy pairs, mean toggles stay moderate.
        prop_assert!(stats.mean_toggles < 12.0, "{stats:?}");
    }

    /// Recording round-trip: replay reproduces the captured stream, and
    /// wraps deterministically.
    #[test]
    fn recording_replay_roundtrip(b in benchmarks(), seed in any::<u64>(), n in 2usize..300) {
        let rec = TraceRecording::capture(&mut b.trace(seed), n);
        let direct: Vec<u32> = b.trace(seed).take_words(n);
        prop_assert_eq!(rec.words(), direct.as_slice());
        let mut replay = rec.replay();
        let twice: Vec<u32> = replay.take_words(2 * n);
        prop_assert_eq!(&twice[..n], rec.words());
        prop_assert_eq!(&twice[n..], rec.words());
        prop_assert_eq!(replay.wraps(), 2);
    }

    /// Splicing preserves content and length.
    #[test]
    fn splice_preserves(b in benchmarks(), seed in any::<u64>(), n in 1usize..100, m in 1usize..100) {
        let first = TraceRecording::capture(&mut b.trace(seed), n);
        let second = TraceRecording::capture(&mut b.trace(seed ^ 1), m);
        let spliced = TraceRecording::splice([&first, &second]);
        prop_assert_eq!(spliced.len(), n + m);
        prop_assert_eq!(&spliced.words()[..n], first.words());
        prop_assert_eq!(&spliced.words()[n..], second.words());
    }

    /// `fill_words` ≡ repeated `next_word` for every generator in the
    /// crate, interleaved with single-word calls, directly and through
    /// both forwarding impls. The DMA streams use short phases so fills
    /// straddle burst/idle boundaries.
    #[test]
    fn fill_words_matches_next_word(
        seed in any::<u64>(),
        schedule in fill_schedule(),
        via in 0u8..3,
        b in benchmarks(),
    ) {
        check_fill(|| RandomWords::new(seed), &schedule, via);
        check_fill(|| SmallIntWords::new(seed, 12), &schedule, via);
        check_fill(|| StrideWords::new(seed, 0.05), &schedule, via);
        check_fill(|| ValueLocalityWords::new(seed, RandomWords::new(seed), 8, 0.6), &schedule, via);
        check_fill(|| ZeroBurstWords::new(seed, 0.05), &schedule, via);
        for housekeeping in [0.0, 0.1] {
            check_fill(|| BurstyDma::new(seed, 20, 50, housekeeping), &schedule, via);
        }
        for aggression in [0.0, 0.3, 1.0] {
            check_fill(|| AdversarialCrosstalk::new(seed, aggression), &schedule, via);
        }
        let weights = MixtureWeights::new(0.40, 0.28, 0.24, 0.05, 0.03);
        check_fill(|| Mixture::new(seed, weights), &schedule, via);
        check_fill(|| b.trace(seed), &schedule, via);
        let recording = TraceRecording::capture(&mut b.trace(seed), 97);
        check_fill(|| recording.replay(), &schedule, via);
    }

    /// Phase modulation only ever raises the high-entropy weight in hot
    /// phases (the boost is multiplicative and ≥ 1 for all profiles).
    #[test]
    fn profiles_boost_at_least_one(b in benchmarks()) {
        let p = b.profile();
        prop_assert!(p.hot_boost >= 1.0);
        prop_assert!((0.0..=1.0).contains(&p.hot_fraction));
        prop_assert!(p.phase_period > 0);
        prop_assert!(p.effective_random_weight() >= p.calm.random * 0.999);
    }
}
