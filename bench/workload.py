"""One benchmark workload in a fresh process; ``run.py`` starts it.

The studies are driven through ``roughwave.cli.run``, the function behind the
``roughwave`` command, with the package imported from ``src/`` of the
checkout.  Each study command is one operation.  A round runs every command
of the workload once; rounds repeat until the requested seconds are spent.
Rounds of one run must write byte-identical CSVs (same config, same seed);
the last round's outputs are checked in full against ``checks.py``, so an
operation fails when it exits non-zero, when its output check fails, or when
its CSV differs from the checked one.

Only the standard library is imported before ``setup`` so that ``setup_s``
includes the import of numpy that roughwave pulls in.

The speed of the shared test machine drifts by up to 2x over minutes, in CPU
time as much as in wall time, so the median of one run moves with the phase
it falls in.  Before every study command the workload therefore times one
*calibration chunk*: fixed work from ``reference.py`` on fixed inputs
(a small-array numpy loop like the solver's, float formatting like the CSV
writer's, and large-array averaging like the initial-data studies').  Each
round's wall and CPU time is divided by the round's mean chunk time over
``CAL_REF_S``, i.e. rescaled to a machine on which a chunk takes
``CAL_REF_S``, and the set-up time of a process by its first chunk's.  The
metrics are the medians of the rescaled times over the rounds; the times
as measured are printed beside them.

    python3 bench/workload.py --workload solver --seed 1 --seconds 50 --trace 0
    python3 bench/workload.py --workload solver --setup-only
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PACKAGE = ROOT / "src" / "roughwave"
CONFIGS = BENCH / "configs"
OUT = BENCH / "out"
CAL_REF_S = 0.2  # nominal seconds of one calibration chunk

# workload -> [(study, config file, --workers)]
WORKLOADS = {
    "solver": [("converge", "converge.cfg", 1), ("sharpness", "sharpness.cfg", 2),
               ("tvdecay", "tvdecay.cfg", 2), ("solve", "solve.cfg", 1)],
    "data": [("tvscale", "scaling.cfg", 1), ("lipscale", "scaling.cfg", 1),
             ("fbm", "fbm.cfg", 1)],
}


def setup(workload: str):
    """Import roughwave from the checkout and parse the workload's configs."""
    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    from roughwave import cli

    for name in sorted({cfg for _, cfg, _ in WORKLOADS[workload]}):
        cli.parse_config(CONFIGS / name)
    elapsed = time.perf_counter() - start
    if Path(cli.__file__).resolve() != (PACKAGE / "cli.py").resolve():
        raise SystemExit(f"roughwave was imported from {cli.__file__}, not from {PACKAGE}")
    return cli, elapsed


def cpu_seconds() -> float:
    """User + system CPU of this process and of its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mib() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def digest(path: Path):
    """(sha256 hex, data rows) of a CSV, or None when it is missing."""
    if not path.is_file():
        return None
    sha = hashlib.sha256()
    lines = 0
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            sha.update(chunk)
            lines += chunk.count(b"\n")
    return sha.hexdigest(), lines - 1


class _Sink:
    """A file-like object that drops what is written to it."""

    def write(self, text):
        return len(text)


def calibration_chunk(workload: str):
    """A function that times one calibration chunk of the workload's kind of work.

    ``solver``: a small-array numpy loop (``reference.evolve`` on 2^9 cells).
    ``data``: splitmix64 and Box-Muller on 2^18 draws, cell averaging from
    2^18 to 2^8 cells, and CSV formatting of 2^15 floats.  The inputs do not
    depend on the seed.  Every large array is allocated here, once, so that
    the chunks leave the heap, and with it peak RSS, as they found it.
    """
    import numpy as np
    import reference

    if workload == "solver":
        small = reference.fbm_cells(0.5, 9, 1)

        def work():
            for _ in range(10):
                reference.evolve(small, "burgers", "godunov", 1.0, 0.5, False)
    else:
        n = 1 << 18
        steps = np.arange(1, n + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
        z = np.empty(n, np.uint64)
        shifted = np.empty(n, np.uint64)
        u = np.empty(n)
        r = np.empty(n // 2)
        halves = [np.empty(n >> i) for i in range(1, 11)]
        rows = np.sin(np.arange(1 << 15) * 0.001).reshape(-1, 2).tolist()
        writer = csv.writer(_Sink(), lineterminator="\n")

        def work():
            for seed in range(10):
                np.add(steps, np.uint64(seed), out=z)
                for shift, mult in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
                    np.right_shift(z, np.uint64(shift), out=shifted)
                    np.bitwise_xor(z, shifted, out=z)
                    np.multiply(z, np.uint64(mult), out=z)
                np.right_shift(z, np.uint64(11), out=z)
                np.multiply(z, 2.0**-53, out=u, casting="unsafe")
                np.maximum(u, 2.0**-53, out=u)
                np.log(u[0::2], out=r)
                np.multiply(r, -2.0, out=r)
                np.sqrt(r, out=r)
                np.multiply(u[1::2], 2.0 * np.pi, out=u[1::2])
                np.cos(u[1::2], out=u[1::2])
                np.multiply(r, u[1::2], out=r)
            for _ in range(60):
                src = u
                for dst in halves:
                    np.add(src[0::2], src[1::2], out=dst)
                    np.multiply(dst, 0.5, out=dst)
                    src = dst
                reference.total_variation(src)
            writer.writerows([repr(a), repr(b)] for a, b in rows)

    def chunk() -> float:
        start = time.perf_counter()
        work()
        return time.perf_counter() - start

    return chunk


def measure(cli, ops, out_dir: Path, seed: int, seconds: float, chunk, workers=None):
    """Whole rounds until ``seconds`` have passed; one record per round.

    A calibration chunk runs before every study command, outside the timed
    interval.
    """
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        codes, op_s, cal_s = [], [], []
        cpu = 0.0
        for study, cfg, default_workers in ops:
            cal_s.append(chunk())
            argv = [study, "--config", str(CONFIGS / cfg), "--out", str(out_dir),
                    "--seed", str(seed), "--workers", str(workers or default_workers)]
            cpu0 = cpu_seconds()
            t0 = time.perf_counter()
            codes.append(cli.run(argv, out=io.StringIO()))
            op_s.append(time.perf_counter() - t0)
            cpu += cpu_seconds() - cpu0
        rounds.append({
            "codes": codes,
            "wall_s": sum(op_s),
            "cpu_s": cpu,
            "op_s": op_s,
            "cal_s": cal_s,
            "digests": [digest(out_dir / f"{study}.csv") for study, _, _ in ops],
        })
    return rounds


def tally(ops, rounds, problems):
    """(attempted, failed) over every operation of every round."""
    final = rounds[-1]["digests"]
    failed = 0
    for r in rounds:
        for i, (study, _, _) in enumerate(ops):
            failed += bool(r["codes"][i] != 0 or problems[study]
                           or r["digests"][i] is None or r["digests"][i] != final[i])
    return len(rounds) * len(ops), failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="print the set-up time of a fresh process and exit")
    args = parser.parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no roughwave package at {PACKAGE}", file=sys.stderr)
        return 2

    cli, raw_setup_s = setup(args.workload)
    sys.path.insert(0, str(BENCH))
    import checks
    import tracing

    # the first chunk of a process rescales its set-up time like the rounds'
    # times, and warms the chunk up for them
    chunk = calibration_chunk(args.workload)
    setup_s = raw_setup_s * CAL_REF_S / chunk()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    ops = WORKLOADS[args.workload]
    out_dir = OUT / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    metrics = {}
    if args.trace:
        # one worker, so every span is recorded in this process; plain and
        # traced rounds alternate so that drift in machine speed hits both
        tracer = tracing.Tracer()
        plain, traced, layers = [], [], []
        start = time.perf_counter()
        while not traced or time.perf_counter() - start < args.seconds:
            plain += measure(cli, ops, out_dir, args.seed, 0, chunk, workers=1)
            tracer.reset()
            restore = tracing.install(tracer)
            try:
                traced += measure(cli, ops, out_dir, args.seed, 0, chunk, workers=1)
            finally:
                restore()
            layers.append(tracing.layer_metrics(tracer))
        for name in layers[0]:
            metrics[name] = statistics.median(one[name] for one in layers)
        metrics["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                       - statistics.median(r["wall_s"] for r in plain))
        metrics.update(tracing.micro_metrics(out_dir))
        rounds = plain + traced
    else:
        rounds = measure(cli, ops, out_dir, args.seed, args.seconds, chunk)
        for name in ("wall_s", "cpu_s"):
            metrics["norm_" + name] = statistics.median(
                r[name] * CAL_REF_S / statistics.mean(r["cal_s"]) for r in rounds)
        print("measured: wall_s={:.4f} cpu_s={:.4f} setup_s={:.4f} "
              "calibration chunk {:.4f} s".format(
                  statistics.median(r["wall_s"] for r in rounds),
                  statistics.median(r["cpu_s"] for r in rounds), raw_setup_s,
                  statistics.median(c for r in rounds for c in r["cal_s"])))
        metrics["peak_rss_mib"] = peak_rss_mib()

    problems = {}
    for study, cfg, default_workers in ops:
        workers = 1 if args.trace else default_workers
        config = checks.read_config(CONFIGS / cfg, args.seed)
        problems[study] = checks.check_output(study, out_dir, config, args.seed, workers)
    attempted, failed = tally(ops, rounds, problems)

    print(f"workload {args.workload}: seed {args.seed}, {len(rounds)} rounds, "
          f"{attempted} operations, {failed} failed")
    for i, (study, _, _) in enumerate(ops):
        sha, rows = rounds[-1]["digests"][i] or ("missing", 0)
        seconds = statistics.median(r["op_s"][i] for r in rounds)
        print(f"output {study}.csv sha256={sha} rows={rows} median_s={seconds:.3f}")
    for study, found in problems.items():
        print(f"check {study}: " + ("ok" if not found else f"{len(found)} problem(s)"))
        for problem in found[:5]:
            print(f"  {problem}")
    print(json.dumps({"attempted": attempted, "failed": failed, "setup_s": setup_s,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
