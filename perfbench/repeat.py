"""Noise and provenance report: run the benchmark over several seeds.

Usage (from the root of a checkout)::

    python3 perfbench/repeat.py --workload upload-cold --seeds 1-10 \
        --out noise.json

Runs ``perfbench/run.py --trace 0`` once per seed and workload, then
reports for every metric the median, the quartiles and the spread
(``(q3 - q1) / median``, quartiles as ``statistics.quantiles(values,
n=4)`` gives them), together with the seeds, run count, git SHA,
``nproc`` and the Python version.  Every metric other than ``setup_s``
whose spread exceeds a tenth, or a third of its bound in
``BENCHMARK.json``, is named in ``over_target``.  The session list does
not depend on the seed, so ``questions_per_session`` must be identical
in every run; the exit code is 1 when it is not, or when a run failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REPEATABILITY_TARGET = 0.10


def _seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def _git(*args: str) -> str | None:
    try:
        out = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def run_once(workload: str, seed: int, seconds: int) -> dict | None:
    """One benchmark run's JSON result; None (reported) if it crashed."""
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if out.returncode != 0:
        print(f"{workload} seed {seed} exited {out.returncode}:\n{out.stderr[-4000:]}", file=sys.stderr)
        return None
    return json.loads(out.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {
        "median": median, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,7")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    seeds = _seeds(args.seeds)
    report = {
        "meta": {
            "git_sha": _git("rev-parse", "HEAD") or "unknown",
            # Uncommitted changes on top of git_sha (None outside git).
            "git_dirty": None if (status := _git("status", "--porcelain")) is None else bool(status),
            "nproc": os.cpu_count(),
            "python": platform.python_version(), "seconds": config["run_seconds"],
            "seeds": seeds,
        },
        "workloads": {},
    }
    ok = True
    for workload in args.workload:
        runs, crashed = [], []
        for seed in seeds:
            result = run_once(workload, seed, config["run_seconds"])
            if result is None:
                crashed.append(seed)
            else:
                runs.append(result)
                print(f"{workload} seed {seed}: correct={result['correct']}", file=sys.stderr)
        metrics = {
            name: summarize([r["metrics"][name]["value"] for r in runs])
            for name in (runs[0]["metrics"] if runs else {})
        }
        over = [
            name for name, m in metrics.items()
            if name != "setup_s"
            and (m["spread"] > REPEATABILITY_TARGET or m["spread"] > bounds[name] / 3)
        ]
        fixed_work = len({
            r["metrics"].get("questions_per_session", {}).get("value") for r in runs
        }) == 1
        all_correct = bool(runs) and not crashed and all(r["correct"] for r in runs)
        ok = ok and all_correct and fixed_work
        report["workloads"][workload] = {
            "runs": len(runs),
            "crashed": crashed,
            "all_correct": all_correct,
            "failed": sum(r["failed"] for r in runs),
            "questions_per_session_identical": fixed_work,
            "over_target": over,
            "metrics": metrics,
        }
    text = json.dumps(report, indent=2)
    if args.out:
        args.out.write_text(text + "\n")
    print(text)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
