#!/usr/bin/env python3
"""Campaign benchmark for razorbus: `paper`, `mc10k` and `shootout`.

Builds the harness (perfbench/Cargo.toml) from the source tree, then runs
one campaign per child process, closed loop (the next starts when the
previous ends), until --seconds have passed. Each child is reaped with
wait4, so peak RSS is that campaign's alone. Every campaign's outputs are
checked bit for bit: against perfbench/reference/ when it holds this
seed, else against the first campaign of the run.

    python3 perfbench/run.py --workload mc10k --seed 7 --seconds 20 --trace 0

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1
reports its per-layer metrics from untraced runs at nproc and 1 worker
plus the traced single-thread pass. The last stdout line is the result
JSON; everything else goes to stderr. See perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
REFERENCE = HERE / "reference"
WORKLOADS = ("paper", "mc10k", "shootout")
# Environment knobs that change what the campaigns run or how; a run
# under any of them would not measure the benchmark's geometry.
KNOBS = (
    "RAZORBUS_CYCLES",
    "RAZORBUS_THREADS",
    "RAZORBUS_REPLAY_FANIN",
    "RAZORBUS_NO_FUSED",
    "RAZORBUS_COMPILE_CHUNK",
    "RAZORBUS_COMPILE_BUDGET_MB",
)
SETUPS_PER_CAMPAIGN = 9
MIN_CAMPAIGNS = 3
ROOFLINE_SECONDS = 0.5
# The paper's headline figures (Kaul et al., DATE 2005), printed beside
# the simulated ones.
PAPER_FIGURES = (
    "paper: 17% DVS gain at the worst corner with under 2.3% recovery; "
    "35-45% at the typical corner"
)


def fail(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(1)


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Builds the harness; returns its path."""
    if not (ROOT / "crates").is_dir():
        fail(f"no source tree next to {HERE.name}/ (expected {ROOT / 'crates'})")
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    argv = ["cargo", "build", "--release", "--offline", "--quiet",
            "--manifest-path", str(HERE / "Cargo.toml")]
    pid = os.posix_spawnp("cargo", argv, env, file_actions=[(os.POSIX_SPAWN_DUP2, 2, 1)])
    _, status, _ = os.wait4(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        fail("building the harness failed")
    return target / "release" / "perfbench-harness"


class Child:
    """One finished child run: its record, outputs and resource usage."""

    def __init__(self, out_dir, code, rusage):
        self.code = code
        self.rss_mib = rusage.ru_maxrss / 1024.0
        self.stdout = (out_dir / "stdout").read_bytes()
        record = out_dir / "record.json"
        self.record = json.loads(record.read_text()) if code == 0 and record.exists() else None
        products = out_dir / "products"
        self.products = products.read_bytes() if self.record and products.exists() else None

    def problem(self):
        if self.code != 0:
            return f"harness exited with {self.code}"
        if self.record is None:
            return "harness wrote no record"
        return self.record["error"] or self.record["geometry_error"]


def spawn(binary, args, out_dir):
    """Runs the harness with `args` and reaps it with wait4."""
    for name in ("stdout", "record.json", "products"):
        (out_dir / name).unlink(missing_ok=True)
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, str(out_dir / "stdout"), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(out_dir / "stderr"), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    pid = os.posix_spawn(str(binary), [str(binary), *args], dict(os.environ), file_actions=actions)
    _, status, rusage = os.wait4(pid, 0)
    return Child(out_dir, os.waitstatus_to_exitcode(status), rusage)


def reference(workload, seed):
    """The committed (products, stdout) for this workload and seed, if any."""
    base = REFERENCE / f"{workload}-seed{seed}"
    products, stdout = base.with_suffix(".products"), base.with_suffix(".stdout")
    if products.exists() and stdout.exists():
        return products.read_bytes(), stdout.read_bytes()
    return None


class Checker:
    """Counts members attempted and failed across a run's campaigns."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.expected = reference(workload, seed)
        self.source = "reference" if self.expected else "first campaign"
        self.members = None
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def check(self, child, what):
        if child.record:
            self.members = child.record["members"]
        members = self.members or 1
        self.attempted += members
        problem = child.problem()
        if problem is None and self.expected is None:
            self.expected = (child.products, child.stdout)
        if problem is None:
            products, stdout = self.expected
            if stdout != child.stdout:
                problem, bad = "printed output differs", members
            else:
                bad = self.diverged(products, child.products, members)
                problem = f"{bad} member products differ" if bad else None
        else:
            bad = members
        if problem:
            self.failed += bad
            self.notes.append(f"{what}: {problem} (vs {self.source})")

    def diverged(self, want, got, members):
        """Members whose products differ from the expected ones."""
        if want == got:
            return 0
        if self.workload == "mc10k":
            return members  # one digest covers every member
        want, got = json.loads(want), json.loads(got)
        if len(want) != len(got):
            return members
        return sum(1 for a, b in zip(want, got) if a != b)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def knob_line(record):
    return (f"nproc {record['nproc']}, worker_count(None) {record['worker_count']}, "
            f"replay_fanin() {record['replay_fanin']}, "
            f"compile_chunk_cycles() {record['compile_chunk_cycles']}")


def report_info(workload, record):
    """Prints the simulated statistics beside the paper's figures."""
    info = dict(record["info"])
    log("simulated statistics (information, not performance metrics):")
    if workload == "paper":
        for corner in ("worst", "typical"):
            log(f"  Table 1 {corner}: DVS gain {info[f'table1.{corner}.dvs_gain']:.1%}, "
                f"recovery rate {info[f'table1.{corner}.dvs_error_rate']:.2%}, "
                f"fixed-VS gain {info[f'table1.{corner}.fixed_gain']:.1%}")
        log(f"  {PAPER_FIGURES}")
    elif workload == "mc10k":
        log(f"  digest energy gain mean {info['energy_gain.mean']:.1%}, "
            f"max member error rate {info['error_rate.max']:.2%}, "
            f"shadow violations {info['shadow_violations']:.0f} (undervolted members)")
        log(f"  {PAPER_FIGURES}")
    else:
        for name, value in record["info"]:
            log(f"  {name} {value:.4f}")
    log("  the model is unvalidated beyond those figures")


def run_untraced(binary, args, out_dir, checker, deadline):
    """Closed-loop campaigns at nproc workers until the deadline."""
    children = []
    while len(children) < MIN_CAMPAIGNS or time.perf_counter() < deadline:
        child = spawn(binary, ["campaign", args.workload, str(args.seed), "auto",
                               str(out_dir), str(SETUPS_PER_CAMPAIGN)], out_dir)
        checker.check(child, f"campaign {len(children)}")
        children.append(child)
    good = [c for c in children if c.problem() is None]
    if not good:
        return {}
    walls = [c.record["wall_s"] for c in good]
    metrics = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median([c.record["cpu_s"] for c in good]),
        "setup_s": statistics.median([c.record["setup_s"] for c in good]),
        "peak_rss_mb": statistics.median([c.rss_mib for c in good]),
    }
    q1, q3 = quartiles(walls)
    log(f"{len(good)} of {len(children)} campaigns clean; wall_s median {metrics['wall_s']:.4f} "
        f"(q1 {q1:.4f}, q3 {q3:.4f}, min {min(walls):.4f}, max {max(walls):.4f})")
    log(f"knobs: {knob_line(good[0].record)}")
    report_info(args.workload, good[0].record)
    return metrics


def layer_values(record, stream_gbps):
    """The per-layer metrics of one traced pass."""
    self_s = dict(record["layers"])
    total = record["trace_total_s"]
    counts = record["counts"]

    def rate(work, layer, scale):
        return work / self_s[layer] / scale if self_s[layer] > 0 else 0.0

    values = {}
    for layer in ("traces.drain", "wire.analyze", "core.assemble", "core.replay_fused",
                  "core.replay_closed", "core.live_loop"):
        values[f"{layer}.s"] = self_s[layer]
        values[f"{layer}.share"] = self_s[layer] / total
    values["traces.drain.mwords_per_s"] = rate(counts["drain_words"], "traces.drain", 1e6)
    values["wire.analyze.mcyc_per_s"] = rate(counts["analyze_cycles"], "wire.analyze", 1e6)
    values["core.compiled_mb"] = counts["compiled_peak_bytes"] / 2**20
    fused = "core.replay_fused"
    values[f"{fused}.member_mcyc_per_s"] = rate(counts["fused_member_cycles"], fused, 1e6)
    values[f"{fused}.gbps"] = rate(counts["fused_bytes"], fused, 1e9)
    values[f"{fused}.mean_width"] = (counts["fused_members"] / counts["fused_calls"]
                                     if counts["fused_calls"] else 0.0)
    values[f"{fused}.roofline_frac"] = values[f"{fused}.gbps"] / stream_gbps
    values["core.replay_closed.member_mcyc_per_s"] = rate(
        counts["closed_member_cycles"], "core.replay_closed", 1e6)
    values["core.live_loop.member_mcyc_per_s"] = rate(
        counts["live_member_cycles"], "core.live_loop", 1e6)
    values["scenario.aggregate.s"] = self_s["scenario.aggregate"]
    values["scenario.aggregate.members"] = float(counts["aggregate_members"])
    values["artifact.encode_s"] = self_s["artifact.encode"]
    values["artifact.decode_s"] = self_s["artifact.decode"]
    values["artifact.bytes"] = float(record["artifact_bytes"])
    for stage in ("static", "fig6", "scaling", "ablations"):
        values[f"paper.{stage}_s"] = self_s[f"paper.{stage}"]
    values["layers_s"] = sum(s for name, s in self_s.items() if name != "campaign")
    values["total_s"] = total
    return values


def run_traced(binary, args, out_dir, checker, deadline):
    """Rounds of (nproc campaign, 1-worker campaign, traced pass) until the deadline."""
    stream = spawn(binary, ["roofline", str(ROOFLINE_SECONDS)], out_dir)
    if stream.code != 0:
        fail("the roofline leg failed")
    stream_gbps = float(stream.stdout)
    nproc_walls, w1_walls, passes = [], [], []
    knobs = None
    while not passes or time.perf_counter() < deadline:
        for threads, walls in (("auto", nproc_walls), ("1", w1_walls)):
            child = spawn(binary, ["campaign", args.workload, str(args.seed), threads,
                                   str(out_dir), "1"], out_dir)
            checker.check(child, f"campaign at {threads} workers")
            if child.problem() is None:
                walls.append(child.record["wall_s"])
                if threads == "auto":
                    knobs = child.record
        child = spawn(binary, ["traced", args.workload, str(args.seed), str(out_dir)], out_dir)
        checker.check(child, f"traced pass {len(passes)}")
        if child.problem() is None:
            passes.append(layer_values(child.record, stream_gbps))
        elif not passes:
            break
    if not passes or not w1_walls or not nproc_walls:
        return {}
    log(f"knobs: {knob_line(knobs)}")
    per_pass = {k: statistics.median([p[k] for p in passes]) for k in passes[0]}
    w1_wall = statistics.median(w1_walls)
    metrics = {k: v for k, v in per_pass.items() if k not in ("layers_s", "total_s")}
    metrics["exec.w1_wall_s"] = w1_wall
    metrics["exec.speedup"] = w1_wall / statistics.median(nproc_walls)
    metrics["exec.residual_s"] = w1_wall - per_pass["layers_s"]
    metrics["trace.overhead_s"] = per_pass["total_s"] - w1_wall
    metrics["host.stream_gbps"] = stream_gbps
    log(f"{len(passes)} traced passes, {len(w1_walls)} one-worker and {len(nproc_walls)} "
        f"nproc campaigns; spans of the last pass in {out_dir / 'spans.jsonl'}")
    return metrics


def record_reference(binary, args, out_dir):
    """Writes perfbench/reference/<workload>-seed<seed>.{products,stdout}."""
    untraced = spawn(binary, ["campaign", args.workload, str(args.seed), "auto", str(out_dir), "1"], out_dir)
    traced = spawn(binary, ["traced", args.workload, str(args.seed), str(out_dir)], out_dir)
    for child in (untraced, traced):
        if child.problem():
            fail(child.problem())
    if (untraced.products, untraced.stdout) != (traced.products, traced.stdout):
        fail("the traced pass disagrees with the campaign; no reference written")
    REFERENCE.mkdir(exist_ok=True)
    base = REFERENCE / f"{args.workload}-seed{args.seed}"
    base.with_suffix(".products").write_bytes(untraced.products)
    base.with_suffix(".stdout").write_bytes(untraced.stdout)
    log(f"wrote {base}.products and {base}.stdout")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=2005)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="record this workload's reference outputs at --seed and exit")
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be a non-negative integer")
    for knob in KNOBS:
        if knob in os.environ:
            fail(f"{knob} is set; the benchmark pins its own geometry and knobs — unset it")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    binary = build()
    out_dir = ROOT / ".bench_build" / "perfbench-runs" / f"{args.workload}-seed{args.seed}"
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.record_reference:
        record_reference(binary, args, out_dir)
        return

    checker = Checker(args.workload, args.seed)
    deadline = time.perf_counter() + args.seconds
    if args.trace:
        values, wanted = run_traced(binary, args, out_dir, checker, deadline), spec["per_layer"]
        values["failed_frac"] = checker.failed / max(checker.attempted, 1)
    else:
        values, wanted = run_untraced(binary, args, out_dir, checker, deadline), spec["end_to_end"]
    for note in checker.notes:
        log(f"FAILED {note}")
    log(f"checked against the {checker.source}: {checker.failed} of {checker.attempted} members failed")
    correct = checker.failed == 0
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if correct and missing:
        fail(f"metrics not measured: {', '.join(missing)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in values}
    print(json.dumps({
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
