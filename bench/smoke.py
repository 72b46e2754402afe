"""Smoke run of the benchmark itself: every workload, every check, tiny length.

    python3 bench/smoke.py

Runs each workload in BENCHMARK.json once untraced and once traced with
`--smoke` (one round per phase, one set-up probe), the way the benchmark
command is invoked, and checks the result line: its keys, `correct`, the
share of failed operations, and that the metric names and units are the
ones BENCHMARK.json declares.  It also checks that the benchmark refuses
to run, without printing a result, when the sources are missing.  Exits 1
on the first problem; takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# Known faults kept as failing operations: one per round on cli-files,
# until the program is fixed and none fail.
FAILS_PER_ROUND = {"cli-files": 1}
OPS_PER_ROUND = {"verify-large": 43, "solve-small": 40, "cli-files": 21}


def result_of(argv: list[str], cwd: Path) -> tuple[int, dict | None, str]:
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=cwd, timeout=300)
    lines = proc.stdout.strip().splitlines()
    try:
        last = json.loads(lines[-1]) if lines else None
    except ValueError:
        last = None
    return proc.returncode, last, proc.stderr


def check_run(spec: dict, workload: str, trace: int) -> list[str]:
    cmd = [sys.executable if c == "python3" else c for c in spec["command"]]
    argv = cmd + ["--workload", workload, "--seed", "1", "--seconds", "1",
                  "--trace", str(trace), "--smoke"]
    code, res, err = result_of(argv, ROOT)
    where = f"{workload} --trace {trace}"
    if code != 0 or res is None:
        return [f"{where}: exit {code}, no result line\n{err[-2000:]}"]
    problems = []
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(res)}")
    if res.get("correct") is not True:
        problems.append(f"{where}: correct is {res.get('correct')}\n{err[-2000:]}")
    rounds, rest = divmod(res["attempted"], OPS_PER_ROUND[workload])
    if rest or res["failed"] not in (0, rounds * FAILS_PER_ROUND.get(workload, 0)):
        problems.append(f"{where}: {res['failed']} of {res['attempted']} failed")
    declared = {m["name"]: m["unit"] for m in spec["end_to_end" if trace == 0 else "per_layer"]}
    if trace == 0:
        # Fewer than 100 timed operations: the 90th percentile is left out.
        declared.pop("verdict_ms_p90")
    got = {name: m["unit"] for name, m in res["metrics"].items()}
    if got != declared:
        problems.append(f"{where}: metrics {got} differ from BENCHMARK.json {declared}")
    return problems


def check_refuses_without_sources(spec: dict) -> list[str]:
    (BENCH / ".work").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=BENCH / ".work"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns(".work"))
        cmd = [sys.executable if c == "python3" else c for c in spec["command"]]
        code, res, _ = result_of(cmd + ["--workload", spec["workloads"][0]["name"],
                                        "--seed", "1", "--seconds", "1", "--trace", "0"], bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if code == 0 or res is not None:
        return [f"without sources: exit {code}, result {res}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_refuses_without_sources(spec)
    for w in spec["workloads"]:
        for trace in (0, 1):
            found = check_run(spec, w["name"], trace)
            print(f"{w['name']} --trace {trace}: {'ok' if not found else 'FAILED'}", flush=True)
            problems += found
    for p in problems:
        print(p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
