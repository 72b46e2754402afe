"""cubematch benchmark: verdict time and throughput, end to end and by layer.

    python3 bench/run.py --workload verify-large --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

`--trace 0` prints the end-to-end metrics of one workload, `--trace 1`
its per-layer metrics from a cProfile run.  The last line of standard
output is one JSON object with the keys `correct`, `attempted`, `failed`
and `metrics`; the lines before it list the same figures for people.
The program under test is the package in `src/` next to this directory;
the benchmark stops with exit code 2 if it is not there.  See README.md.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PACKAGE = ROOT / "src" / "cubematch"
WORKLOAD_NAMES = ("verify-large", "solve-small", "cli-files")
END_TO_END = {
    "setup_s": "s",
    "verdicts_per_s": "1/s",
    "verdict_ms_p50": "ms",
    "verdict_ms_p90": "ms",
    "input_nodes_per_s": "nodes/s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {"self_ms": "ms", "import_ms": "ms", "yield_ratio": "ratio",
                   "parse_bytes_per_ms": "bytes/ms", "overhead_pct": "%"}
SETUP_RUNS = 9
SPEED_SAMPLES = 24
MIN_TIMED_OPS = 100  # so that at least ten samples lie beyond the 90th percentile


@dataclass
class Phase:
    """Whole rounds of one workload's operations, timed one by one."""

    rounds: int = 0
    times: list[float] = field(default_factory=list)
    nodes: int = 0
    attempted: int = 0
    failed: int = 0
    unexpected: list[str] = field(default_factory=list)
    first_round: list[Any] = field(default_factory=list)

    @property
    def busy_s(self) -> float:
        return sum(self.times)


def run_rounds(
    wl, seconds: float, min_ops: int, call, max_rounds: int | None = None, between=None
) -> Phase:
    """Run whole rounds until the operations have taken `seconds` and at
    least `min_ops` are timed; `between(phase)` runs after every round."""
    ph = Phase()
    while True:
        results = []
        for op in wl.ops:
            t0 = time.perf_counter()
            try:
                out = call(op)
            except Exception as e:  # a raising operation is a failed one
                out = e
            ph.times.append(time.perf_counter() - t0)
            ph.attempted += 1
            ph.nodes += op.nodes
            try:
                ok = not isinstance(out, Exception) and bool(op.expect(out))
            except Exception:
                ok = False
            if not ok:
                ph.failed += 1
                if not op.known_fault:
                    ph.unexpected.append(f"{op.kind}: {out!r}"[:300])
            results.append(out)
        ph.rounds += 1
        if ph.rounds == 1:
            ph.first_round = results
        if between is not None:
            between(ph)
        if max_rounds is not None and ph.rounds >= max_rounds:
            return ph
        if ph.busy_s >= seconds and ph.attempted >= min_ops:
            return ph


@contextmanager
def set_up(args) -> Iterator[Any]:
    """The workload, built from the seed and warmed up, in a scratch directory."""
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import cubematch

    if Path(cubematch.__file__).resolve().parent != PACKAGE.resolve():
        raise SystemExit(f"imported cubematch from {cubematch.__file__}, not from {PACKAGE}")
    import workloads

    (BENCH / ".work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=BENCH / ".work"))
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        wl.warm_up()
        yield wl
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def deep_check(wl, ph: Phase) -> list[str]:
    """The workload's oracle checks on the first round's results."""
    try:
        return wl.deep_check(ph.first_round)
    except Exception as e:  # results a failed operation left malformed
        return [f"deep check raised {e!r}"]


def setup_probe(args) -> int:
    """Set up as a timed run would, then say so; the parent times this."""
    with set_up(args):
        print("ready", flush=True)
    return 0


def setup_seconds(args) -> float:
    """Time from process start to ready, in a fresh process."""
    from workloads import child_env

    t0 = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-probe"],
        stdout=subprocess.PIPE, text=True, cwd=ROOT, env=child_env(),
    ) as proc:
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        proc.stdout.read()
        if proc.wait(timeout=120) != 0 or line.strip() != "ready":
            raise RuntimeError("set-up probe failed")
    return t1 - t0


def end_to_end(args, wl, smoke: bool) -> tuple[Phase, dict[str, float], list[str]]:
    # The machine drifts between faster and slower spells lasting seconds
    # to minutes.  So the set-up probes and the reference task are spread
    # over the run, between rounds, and every time is scaled to the
    # reference speed (README.md, "Reference speed").
    import speed

    whole_process = args.workload == "cli-files"
    reference = speed.in_child if whole_process else speed.in_process
    probes = 1 if smoke else SETUP_RUNS
    samples = 1 if smoke else SPEED_SAMPLES
    setups: list[float] = []
    setup_refs: list[float] = []
    op_refs: list[float] = []

    def due(ph: Phase, done: int, total: int) -> bool:
        return done < total and ph.busy_s >= done * args.seconds / total

    def sample_when_due(ph: Phase) -> None:
        # Every sample is due by the time the run stops.
        while due(ph, len(op_refs), samples):
            op_refs.append(reference())
        while due(ph, len(setups), probes):
            setup_refs.append(speed.in_child())
            setups.append(setup_seconds(args))

    ph = run_rounds(
        wl, args.seconds, 0 if smoke else MIN_TIMED_OPS, wl.call,
        max_rounds=1 if smoke else None, between=sample_when_due,
    )
    if args.workload == "cli-files":
        peak_mb = wl.peak_rss_kb / 1024
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    problems = deep_check(wl, ph)
    nominal = speed.IN_CHILD_S if whole_process else speed.IN_PROCESS_S
    op_scale = nominal / statistics.fmean(op_refs)
    setup_scale = speed.IN_CHILD_S / statistics.fmean(setup_refs)
    print(f"reference task: {statistics.fmean(op_refs) * 1e3:.1f} ms beside the operations, "
          f"{statistics.fmean(setup_refs) * 1e3:.1f} ms in a fresh process beside set-up; "
          f"times below are scaled by {op_scale:.3f} and {setup_scale:.3f}")
    busy_s = ph.busy_s * op_scale
    ms = [t * op_scale * 1e3 for t in ph.times]
    metrics = {
        "setup_s": statistics.median(setups) * setup_scale,
        "verdicts_per_s": ph.attempted / busy_s,
        "verdict_ms_p50": statistics.median(ms),
        "input_nodes_per_s": ph.nodes / busy_s,
        "peak_rss_mb": peak_mb,
    }
    if len(ms) >= MIN_TIMED_OPS:
        metrics["verdict_ms_p90"] = statistics.quantiles(ms, n=10)[8]
    return ph, metrics, problems


def per_layer(args, wl, smoke: bool) -> tuple[Phase, dict[str, float], list[str]]:
    """Untraced rounds for half the run, then the same rounds under cProfile."""
    from layers import LayerProfile

    limit = 1 if smoke else None
    half = args.seconds / 2
    plain = run_rounds(wl, half, 0, wl.call, max_rounds=limit)
    prof = LayerProfile(PACKAGE)
    if args.workload == "cli-files":
        out = wl.dir / "child.prof"

        def call(op):
            try:
                return wl.call(op, wl.profiled(out))
            finally:
                if out.exists():
                    prof.add(out)
                    out.unlink()

        traced = run_rounds(wl, half, 0, call, max_rounds=limit)
        import_ms = wl.import_ms(1 if smoke else SETUP_RUNS)
    else:
        profiler = cProfile.Profile()
        traced = run_rounds(wl, half, 0, lambda op: wl.call(op, profiler), max_rounds=limit)
        prof.add(profiler)
        import_ms = 0.0
    slowdown = (traced.busy_s / traced.rounds) / (plain.busy_s / plain.rounds)
    metrics = prof.metrics(
        rounds=traced.rounds,
        solutions=wl.solutions(traced.first_round),
        parsed_bytes=wl.parsed_bytes,
        import_ms=import_ms,
        overhead_pct=(slowdown - 1) * 100,
    )
    problems = deep_check(wl, plain) + deep_check(wl, traced)
    both = Phase(
        rounds=plain.rounds + traced.rounds,
        attempted=plain.attempted + traced.attempted,
        failed=plain.failed + traced.failed,
        unexpected=plain.unexpected + traced.unexpected,
    )
    return both, metrics, problems


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    return PER_LAYER_UNITS.get(name.split(".", 1)[1], "count")


def report(args, ph: Phase, metrics: dict[str, float], problems: list[str]) -> dict:
    problems = problems + ph.unexpected
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": ph.attempted,
        "failed": ph.failed,
        "metrics": {
            name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()
        },
    }
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{ph.rounds} rounds, attempted {ph.attempted}, failed {ph.failed}, "
          f"correct {str(result['correct']).lower()}")
    for name, m in result["metrics"].items():
        print(f"  {name:34s} {m['value']:14.4f} {m['unit']}")
    return result


def run_one(args) -> int:
    measure = per_layer if args.trace else end_to_end
    with set_up(args) as wl:
        ph, metrics, problems = measure(args, wl, args.smoke)
    print(json.dumps(report(args, ph, metrics, problems)))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; one combined JSON line at the end."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(BENCH / "run.py"), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=600)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for metric, m in res["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = m
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="one round per phase and one set-up probe; checks only")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file() or not (ROOT / "tests" / "named_ref.py").is_file():
        print(f"no cubematch sources and test oracles under {ROOT}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        return setup_probe(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
