//! Host measurements: process CPU time and the streaming roofline the
//! fused replay is judged against.

use std::hint::black_box;
use std::time::Instant;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the harness reads `struct rusage` with the 64-bit Linux layout");

/// `struct timeval` on 64-bit Linux.
#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// User plus system CPU seconds of this process so far, finished
/// threads included.
pub fn cpu_seconds() -> f64 {
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        rest: [0; 14],
    };
    // SAFETY: `usage` is a live, writable value with the 64-bit Linux
    // `struct rusage` layout (checked by the cfg above), which is
    // exactly what `getrusage` writes through the pointer.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail for a valid pointer"
    );
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    secs(&usage.utime) + secs(&usage.stime)
}

/// Bytes per compiled cycle: a `u8` toggle count, a `u16` load bin and
/// an `f64` switched capacitance.
pub const COMPILED_BYTES_PER_CYCLE: usize = 11;

/// Single-thread read bandwidth (GB/s) of a plain sum over the three
/// compiled arrays of one `cycles`-long trace: the most the fused
/// replay could stream if it did nothing but read its input. Runs for
/// about `seconds` and reports the median pass.
pub fn stream_gbps(cycles: usize, seconds: f64) -> f64 {
    let toggles: Vec<u8> = (0..cycles).map(|i| (i % 33) as u8).collect();
    let bins: Vec<u16> = (0..cycles).map(|i| (i % 4_099) as u16).collect();
    let switched: Vec<f64> = (0..cycles).map(|i| (i % 97) as f64 * 0.25).collect();
    let bytes = (cycles * COMPILED_BYTES_PER_CYCLE) as f64;
    let mut rates = Vec::new();
    let start = Instant::now();
    while rates.len() < 5 || start.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        black_box(sum(
            black_box(&toggles),
            black_box(&bins),
            black_box(&switched),
        ));
        rates.push(bytes / t.elapsed().as_secs_f64() * 1e-9);
    }
    rates.sort_by(f64::total_cmp);
    rates[rates.len() / 2]
}

/// Sums every element; the float sum keeps eight independent
/// accumulators so it is bound by reads, not by add latency.
fn sum(toggles: &[u8], bins: &[u16], switched: &[f64]) -> f64 {
    let t: u64 = toggles.iter().map(|&x| u64::from(x)).sum();
    let b: u64 = bins.iter().map(|&x| u64::from(x)).sum();
    let mut acc = [0.0f64; 8];
    let chunks = switched.chunks_exact(8);
    let tail: f64 = chunks.remainder().iter().sum();
    for chunk in chunks {
        for (a, x) in acc.iter_mut().zip(chunk) {
            *a += x;
        }
    }
    t as f64 + b as f64 + acc.iter().sum::<f64>() + tail
}
