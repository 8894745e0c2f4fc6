//! `repro` refuses malformed environment knobs and stale or corrupt
//! saved results loudly: exit status 2 and an error naming the cause,
//! never a silent fallback or a panic. Its per-figure subcommands render
//! through the scenario path.

use razorbus_artifact::{Artifact, Encoding};
use razorbus_scenario::{LoopData, ScenarioSetResult};
use std::path::PathBuf;
use std::process::{Command, Output};

fn repro(args: &[&str], env: &[(&str, &str)]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .envs(env.iter().copied())
        .output()
        .expect("run repro")
}

/// A scratch path unique to this test process.
fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("razorbus-{}-{name}", std::process::id()))
}

/// Asserts `out` is a refusal: exit 2, nothing on stdout, and stderr
/// containing `needle`.
fn assert_refused(out: &Output, needle: &str, case: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{case}: {stderr}");
    assert!(stderr.contains(needle), "{case}: {stderr}");
    assert!(out.stdout.is_empty(), "{case}: refused before any output");
}

#[test]
fn malformed_replay_fanin_exits_2_naming_the_knob() {
    // Every integer knob, including the `=0` that CYCLES, THREADS and
    // COMPILE_CHUNK refuse like `--threads=0`, and a budget whose byte
    // count overflows (2^44 MiB is 2^64 bytes).
    for (knob, bad) in [
        ("RAZORBUS_REPLAY_FANIN", "-3"),
        ("RAZORBUS_REPLAY_FANIN", "abc"),
        ("RAZORBUS_CYCLES", "abc"),
        ("RAZORBUS_CYCLES", "0"),
        ("RAZORBUS_THREADS", "x"),
        ("RAZORBUS_THREADS", "0"),
        ("RAZORBUS_COMPILE_CHUNK", "abc"),
        ("RAZORBUS_COMPILE_CHUNK", "0"),
        ("RAZORBUS_COMPILE_BUDGET_MB", "lots"),
        ("RAZORBUS_COMPILE_BUDGET_MB", "17592186044416"),
    ] {
        // The later entry wins, so the `RAZORBUS_CYCLES` case overrides.
        let out = repro(
            &["scenario", "monte-carlo-dvs-1k"],
            &[("RAZORBUS_CYCLES", "1000"), (knob, bad)],
        );
        assert_refused(&out, knob, &format!("{knob}={bad}"));
    }
    // A zero-cycle run is refused before the paper drivers print a
    // banner or divide by the cycle count.
    let out = repro(&["scaling"], &[("RAZORBUS_CYCLES", "0")]);
    assert_refused(&out, "RAZORBUS_CYCLES", "scaling at RAZORBUS_CYCLES=0");
}

#[test]
fn reordered_suite_products_are_refused_on_reload() {
    // A decodable result whose Table 1 closed loop lists its programs
    // out of order must exit 2, not panic in the table adapter.
    let path = scratch("t1.rzba");
    let path_str = path.to_str().unwrap();
    let cycles = [("RAZORBUS_CYCLES", "2000")];
    let saved = repro(
        &["scenario", "table1", &format!("--save-result={path_str}")],
        &cycles,
    );
    assert_eq!(saved.status.code(), Some(0), "{saved:?}");

    let mut result = ScenarioSetResult::load_file(path_str).unwrap();
    let worst = result
        .members
        .iter_mut()
        .find(|m| m.spec.name == "table1@worst")
        .unwrap();
    let Some(LoopData::Suite(data)) = &mut worst.closed_loop else {
        panic!("table1@worst carries a suite loop");
    };
    data.segments.swap(0, 1);
    result.save_file(path_str, Encoding::Binary).unwrap();

    let out = repro(
        &["scenario", "table1", &format!("--load-result={path_str}")],
        &cycles,
    );
    assert_refused(&out, "table1@worst", "reordered segments");
    std::fs::remove_file(path).unwrap();
}

#[test]
fn all_load_result_refuses_another_cycle_count_or_seed() {
    // `all` and `scenario paper-all` save the same `scenario-result`
    // bytes; `all --load-result` prints what a cold `all` prints, and
    // refuses a result simulated at another geometry.
    let from_scenario = scratch("scenario.rzba");
    let from_all = scratch("all.rzba");
    let path = from_scenario.to_str().unwrap();
    let load = format!("--load-result={path}");
    let cycles = [("RAZORBUS_CYCLES", "1000")];
    let saved = repro(
        &["scenario", "paper-all", &format!("--save-result={path}")],
        &cycles,
    );
    assert_eq!(saved.status.code(), Some(0), "{saved:?}");
    let cold = repro(
        &["all", &format!("--save-result={}", from_all.display())],
        &cycles,
    );
    assert_eq!(cold.status.code(), Some(0), "{cold:?}");
    assert_eq!(
        std::fs::read(path).unwrap(),
        std::fs::read(&from_all).unwrap()
    );
    let warm = repro(&["all", &load], &cycles);
    assert_eq!(warm.status.code(), Some(0), "{warm:?}");
    assert_eq!(cold.stdout, warm.stdout);

    let out = repro(&["all", &load], &[("RAZORBUS_CYCLES", "2000")]);
    assert_refused(&out, "cycles/benchmark", "another cycle count");

    let mut result = ScenarioSetResult::load_file(path).unwrap();
    for member in &mut result.members {
        member.spec.run.seed += 1;
    }
    result.save_file(path, Encoding::Binary).unwrap();
    let out = repro(&["all", &load], &cycles);
    assert_refused(&out, "seed", "another seed");
    std::fs::remove_file(from_scenario).unwrap();
    std::fs::remove_file(from_all).unwrap();
}

#[test]
fn figure_subcommands_render_through_the_scenario_path() {
    // `repro <fig>` is its banner followed by exactly what `repro
    // scenario <fig>` prints: one render path per paper figure.
    let cycles = [("RAZORBUS_CYCLES", "2000")];
    for (figure, title) in [
        ("fig4", "Fig. 4 (energy & error rate vs. static VDD)"),
        ("fig5", "Fig. 5 (gains vs. PVT delay spread)"),
        ("fig8", "Fig. 8 (closed-loop trajectory, typical corner)"),
        ("table1", "Table 1 (fixed VS vs. proposed DVS)"),
        ("fig10", "Fig. 10 / §6 (modified bus)"),
    ] {
        let direct = repro(&[figure], &cycles);
        assert_eq!(direct.status.code(), Some(0), "{figure}: {direct:?}");
        let scenario = repro(&["scenario", figure], &cycles);
        assert_eq!(scenario.status.code(), Some(0), "{figure}: {scenario:?}");
        let rule = "=".repeat(64);
        let mut expected = format!("\n{rule}\n{title}\n{rule}\n").into_bytes();
        expected.extend_from_slice(&scenario.stdout);
        assert_eq!(
            String::from_utf8_lossy(&direct.stdout),
            String::from_utf8_lossy(&expected),
            "{figure}"
        );
    }
}
