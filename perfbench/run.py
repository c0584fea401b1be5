"""Run one benchmark workload and print its result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload derive-cold --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics
of a traced run instead (see ``perfbench/README.md``).  Each workload runs
in a fresh child process (``workload.py``), so ``peak_rss_mb`` is that
process's own peak.  Set-up time is measured in that child and in
``SETUP_PROBES`` further children that stop after set-up; the reported
``setup_s`` is the median.

The children get ``src`` on ``PYTHONPATH``, a fixed ``PYTHONHASHSEED``
(set iteration order steers the derivation's search order, so a random hash
seed adds run-to-run noise), and none of the ``REPRO_*`` variables that
would change the backend, the kernel, numpy availability or inject faults.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("derive-cold", "classify-mix", "twins-warm")
IGNORED_ENV = ("REPRO_EXECUTOR", "REPRO_KERNEL", "REPRO_NO_NUMPY", "REPRO_FAULT_PLAN")
SETUP_PROBES = 2
#: A run must end within 180 s; the child gets what is left of that.
RUN_LIMIT_S = 170.0


def child_env() -> dict[str, str]:
    env = {key: value for key, value in os.environ.items() if key not in IGNORED_ENV}
    ignored = [key for key in IGNORED_ENV if key in os.environ]
    if ignored:
        print(f"note: ignoring {', '.join(ignored)}", file=sys.stderr)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in ("src", os.environ.get("PYTHONPATH", "")) if part
    )
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args: argparse.Namespace, env: dict[str, str], deadline: float, setup_only: bool) -> str:
    """Start one workload process and return its standard output."""
    command = [
        sys.executable,
        str(BENCH_DIR / "workload.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if setup_only:
        command.append("--setup-only")
    command += ["--t0", repr(time.monotonic())]
    completed = subprocess.run(
        command,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        timeout=max(1.0, deadline - time.monotonic()),
        check=False,
    )
    if completed.returncode != 0:
        raise RuntimeError(f"workload process exited with code {completed.returncode}")
    return completed.stdout


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + RUN_LIMIT_S
    if not (Path("src") / "repro").is_dir():
        print("error: run from the root of a repository checkout (no src/repro here)", file=sys.stderr)
        return 2
    env = child_env()
    try:
        setup_samples = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                probe = run_child(args, env, deadline, setup_only=True)
                setup_samples.append(json.loads(probe.splitlines()[-1])["setup_s"])
        output = run_child(args, env, deadline, setup_only=False).splitlines()
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result = json.loads(output[-1])
    setup_samples.append(result.pop("setup_s"))
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(setup_samples), "unit": "s"}
    for line in output[:-1]:
        print(line)
    if not args.trace:
        print(f"setup samples: {len(setup_samples)}")
    for name, metric in sorted(result["metrics"].items()):
        print(f"{name:>32s} {metric['value']:>14.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
