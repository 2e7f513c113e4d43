"""Benchmark entry point: one workload, measured end to end or traced.

    python3 bench/run.py --workload solver --seed 1 --seconds 50 --trace 0

Run from the root of a checkout.  The workload runs in a fresh Python process
(``workload.py``); with ``--trace 0`` a few more fresh processes only import
roughwave and parse the configs, and ``setup_s`` is the median of all of
them.  The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the metric names and units are the
ones ``BENCHMARK.json`` lists for the mode (``end_to_end`` untraced,
``per_layer`` traced).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOAD = BENCH / "workload.py"
SETUP_PROBES = 6  # extra fresh processes timed for setup_s
TIME_LIMIT_S = 170.0  # the whole run, probes included


def child(args, deadline):
    """Run workload.py in its own process group; its stdout, or None on failure."""
    proc = subprocess.Popen([sys.executable, str(WORKLOAD), *args], cwd=ROOT,
                            stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"error: workload.py {' '.join(args)} ran out of time", file=sys.stderr)
        return None
    finally:
        # reap pool workers left behind if the workload died abnormally
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        print(f"error: workload.py {' '.join(args)} exited {proc.returncode}", file=sys.stderr)
        return None
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    setups = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            out = child(["--workload", args.workload, "--setup-only"], deadline)
            if out is None:
                return 2
            setups.append(json.loads(out.splitlines()[-1])["setup_s"])
    out = child(["--workload", args.workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)], deadline)
    if out is None:
        return 2
    *report, last = out.splitlines()
    print("\n".join(report))
    result = json.loads(last)
    measured = dict(result["metrics"], setup_s=statistics.median(setups + [result["setup_s"]]))
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 2
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
