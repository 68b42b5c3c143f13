"""surfcover benchmark: one workload, measured over repeated cold processes.

    python3 benchmarks/run.py --workload mc_g2_n16 --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout. One untimed warm-up process compiles
the bytecode; then fresh processes (``child.py``), one at a time, each run
the workload once on the inputs drawn from ``--seed`` until ``--seconds``
have passed (at least three untraced, or one untraced and one traced pair
with ``--trace 1``). Metrics are medians over those processes.

Output: a human summary line, a JSON record of the machine, source and
settings, and as the last line
``{"correct", "attempted", "failed", "metrics"}`` with every end-to-end
metric of BENCHMARK.json (``--trace 0``) or every per-layer metric
(``--trace 1``). See README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
ENV_PINS = {"SCL_THREADS": "1", "PYTHONHASHSEED": "0"}
MIN_UNTRACED = 3
MIN_TRACED_PAIRS = 1
# The whole run, warm-up and children included, ends within this many seconds.
RUN_LIMIT_S = 170.0


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(ENV_PINS)
    return env


def run_child(args: list[str], env: dict, timeout: float) -> dict | None:
    """One child process; its report, or None when it printed none."""
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), *args],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=max(1.0, timeout),
        )
    except subprocess.TimeoutExpired:
        print(f"child {args} timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"child {args} exited {proc.returncode}:\n{proc.stderr[-2000:]}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def run_children(workload: str, seed: int, seconds: float, trace: bool, env: dict, deadline: float):
    """Cold children one after another until the measured time is used.

    A child is started only while the median child so far still fits in
    ``seconds``, after the minimum count. With tracing, children alternate
    untraced and traced, so each traced child has an untraced neighbour.
    """
    minimum = 2 * MIN_TRACED_PAIRS if trace else MIN_UNTRACED
    reports: list[dict | None] = []
    durations: list[float] = []
    start = time.monotonic()
    while time.monotonic() < deadline:
        elapsed = time.monotonic() - start
        if len(reports) >= minimum and elapsed + statistics.median(durations) > seconds:
            break
        traced = trace and len(reports) % 2 == 1
        args = [
            "--workload", workload,
            "--seed", str(seed),
            "--trace", str(int(traced)),
            "--references", str(int(not reports)),
        ]
        began = time.monotonic()
        reports.append(run_child(args, env, deadline - time.monotonic()))
        durations.append(time.monotonic() - began)
    return reports, durations


def median_of(reports: list[dict], key) -> float:
    values = [key(r) for r in reports]
    return statistics.median(values) if values else 0.0


def end_to_end(reports: list[dict]) -> dict[str, float]:
    plain = [r for r in reports if r and not r["traced"] and r["wall_s"] is not None]
    return {
        "setup_s": median_of(plain, lambda r: r["setup_s"]),
        "wall_s": median_of(plain, lambda r: r["wall_s"]),
        "items_per_s": median_of(plain, lambda r: r["items"] / r["items_s"]),
        "peak_rss_mb": median_of(plain, lambda r: r["peak_rss_mb"]),
    }


def per_layer(reports: list[dict]) -> dict[str, float]:
    plain = [r for r in reports if r and not r["traced"] and r["wall_s"] is not None]
    traced = [r for r in reports if r and r["traced"] and r["layers"] is not None]
    out = {}
    for name in traced[0]["layers"] if traced else ():
        out[name] = median_of(traced, lambda r: r["layers"][name])
    untraced_wall = median_of(plain, lambda r: r["wall_s"])
    traced_wall = median_of(traced, lambda r: r["wall_s"])
    if untraced_wall and traced_wall:
        out["trace.overhead_frac"] = traced_wall / untraced_wall - 1
    return out


def machine() -> dict:
    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "mem_total_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2**20,
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def source() -> dict:
    """The git commit when the checkout is a repository, and always a digest
    of the library sources, which identifies the code in any checkout."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes() + b"\0")
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30
        )
        commit = proc.stdout.strip() if proc.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(checks.OPS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S

    if not (ROOT / "src" / "surfcover" / "__init__.py").is_file():
        print(f"no surfcover sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    env = child_env()
    if run_child(["--warmup"], env, deadline - time.monotonic()) is None:
        return 2

    reports, durations = run_children(
        args.workload, args.seed, args.seconds, bool(args.trace), env, deadline
    )
    if not reports:
        print("no instance ran before the deadline", file=sys.stderr)
        return 2
    attempted, failed, problems = checks.evaluate(args.workload, reports)
    for problem in problems:
        print(problem, file=sys.stderr)
    if args.trace:
        values, section = per_layer(reports), "per_layer"
    else:
        values, section = end_to_end(reports), "end_to_end"
    # A metric with no successful instance to measure it reads 0; those
    # instances' operations count as failed, so the result is not correct.
    metrics = {
        m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in config[section]
    }

    rate_name = "points_per_s" if args.workload == "exact_g2_n4" else "samples_per_s"
    summary = [f"{args.workload} seed={args.seed} processes={len(reports)}"]
    summary.append(f"failed_frac={failed / attempted:.4f}")
    for name, metric in metrics.items():
        label = rate_name if name == "items_per_s" else name
        summary.append(f"{label}={metric['value']:.6g} {metric['unit']}")
    print(" ".join(summary))
    print(json.dumps({
        "record": {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "env": ENV_PINS,
            "machine": machine(),
            "source": source(),
            "process_s": durations,
            "instances": [
                None if r is None else {
                    k: r[k] for k in ("traced", "setup_s", "wall_s", "items", "items_s", "peak_rss_mb")
                }
                for r in reports
            ],
        }
    }))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
