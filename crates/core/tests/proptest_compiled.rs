//! Property tests for the parallel compile pipeline: any chunking of
//! any trace assembles bit-identically to the serial
//! `CompiledTrace::compile`, with the chunk-boundary `prev`-word seams
//! (cycle `k*chunk` reading the last word of the previous chunk)
//! exercised at randomized cycle counts and chunk sizes.

use proptest::prelude::*;
use razorbus_core::{CompiledTrace, DvsBusDesign};
use razorbus_traces::{RandomWords, TraceRecording, TraceSource};

use std::sync::OnceLock;

fn designs() -> &'static Vec<(&'static str, DvsBusDesign)> {
    static DESIGNS: OnceLock<Vec<(&'static str, DvsBusDesign)>> = OnceLock::new();
    DESIGNS.get_or_init(|| {
        vec![
            ("paper", DvsBusDesign::paper_default()),
            ("modified", DvsBusDesign::modified_paper_bus()),
        ]
    })
}

/// A recorded word stream replayable any number of times: the chunked
/// and serial compiles must consume identical words.
fn record(seed: u64, cycles: u64) -> TraceRecording {
    TraceRecording::capture(
        &mut RandomWords::new(seed),
        usize::try_from(cycles).unwrap() + 1,
    )
}

/// The executor's chunked compile, run serially: drain, classify
/// `chunk`-cycle ranges, assemble in cycle order.
fn chunked(
    design: &DvsBusDesign,
    recording: &TraceRecording,
    cycles: u64,
    chunk: usize,
) -> CompiledTrace {
    let words = CompiledTrace::drain_words(&mut recording.replay(), cycles);
    let n = words.len() - 1;
    let chunks = (0..n)
        .step_by(chunk)
        .map(|start| CompiledTrace::analyze_chunk(design, &words, start, chunk.min(n - start)))
        .collect();
    CompiledTrace::from_chunks(design, cycles, chunks)
}

proptest! {
    /// Chunked ≡ serial at arbitrary (cycles, chunk) combinations —
    /// including chunk = 1 (every cycle a seam), chunks that divide the
    /// count, chunks that leave a short tail, and chunks beyond the
    /// whole trace. `PartialEq` covers every array element and stamp,
    /// so any seam that mis-primes its `prev` word fails here.
    #[test]
    fn chunk_seams_never_show(seed in any::<u64>(), cycles in 1u64..400, chunk in 1usize..512) {
        let recording = record(seed, cycles);
        for (name, design) in designs() {
            let serial = CompiledTrace::compile(design, &mut recording.replay(), cycles);
            let chunked = chunked(design, &recording, cycles, chunk);
            prop_assert_eq!(&serial, &chunked, "{}: cycles {}, chunk {}", name, cycles, chunk);
        }
    }

    /// The drained word buffer is exactly the serial path's word
    /// protocol: `cycles + 1` words in stream order, the first priming
    /// `prev`.
    #[test]
    fn drained_words_match_the_stream(seed in any::<u64>(), cycles in 1u64..400) {
        let recording = record(seed, cycles);
        let words = CompiledTrace::drain_words(&mut recording.replay(), cycles);
        prop_assert_eq!(words.len() as u64, cycles + 1);
        let mut replay = recording.replay();
        for (c, &w) in words.iter().enumerate() {
            prop_assert_eq!(w, replay.next_word(), "word {}", c);
        }
    }
}
