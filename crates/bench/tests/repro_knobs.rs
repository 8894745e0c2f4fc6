//! `repro` refuses malformed environment knobs loudly: exit status 2
//! and an error naming the knob, never a silent fallback.

use std::process::Command;

#[test]
fn malformed_replay_fanin_exits_2_naming_the_knob() {
    for bad in ["-3", "abc"] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(["scenario", "monte-carlo-dvs-1k"])
            .env("RAZORBUS_CYCLES", "1000")
            .env("RAZORBUS_REPLAY_FANIN", bad)
            .output()
            .expect("run repro");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bad}: {stderr}");
        assert!(stderr.contains("RAZORBUS_REPLAY_FANIN"), "{bad}: {stderr}");
        assert!(out.stdout.is_empty(), "{bad}: refused before any output");
    }
}
