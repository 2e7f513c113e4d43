"""Command-line entry point: config parsing, study execution, CSV + manifest
persistence, and a self-check of the flux and PRNG contracts.

Config files are line-oriented ``key = value`` text.  Recognized keys:
equation, numflux, hurst, resolutions, reference_exponent, t_final, samples,
base_seed, cfl, boundary, snapshot_times.  Lists are comma separated.  Blank
lines and lines starting with ``#`` are ignored; unknown and duplicate keys
are errors.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

from . import __version__
from .experiments import (STUDIES, StudyConfig, StudyResult, check_study, config_from_dict,
                          run_samples_parallel)
from .flux import FluxSpec, NumericalFluxSpec, NumFluxKind, check_monotone
from .initial_data import SplitMix64
from .solver import Boundary


class ConfigError(ValueError):
    """Invalid configuration file or command-line override."""


def _choice(enum):
    names = sorted(m.value for m in enum)

    def parse(value):
        if value.lower() not in names:
            raise ValueError(f"expected one of {names}, got '{value}'")
        return value.lower()

    return parse


def _numbers(kind):
    return lambda value: [kind(x) for x in value.split(",")]


# config-file key (a ``config_to_dict`` key) -> (parser into its manifest form, required)
_KEYS = {
    "equation": (_choice(FluxSpec), True),
    "numflux": (_choice(NumFluxKind), True),
    "hurst": (_numbers(float), True),
    "resolutions": (_numbers(int), True),
    "reference_exponent": (int, True),
    "samples": (int, True),
    "base_seed": (int, True),
    "t_final": (float, False),
    "cfl": (float, False),
    "boundary": (_choice(Boundary), False),
    "snapshot_times": (lambda value: [float(x) for x in value.split(",")] if value else [], False),
}
_REQUIRED_KEYS = tuple(key for key, (_, required) in _KEYS.items() if required)


def parse_config(path) -> StudyConfig:
    """Parse a key = value config file into a validated StudyConfig."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc

    entries: dict[str, tuple[int, str]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key '{key}'")
        if key in entries:
            first = entries[key][0]
            raise ConfigError(
                f"{path}:{lineno}: duplicate key '{key}' (first set on line {first})"
            )
        entries[key] = (lineno, value)

    missing = [k for k in _REQUIRED_KEYS if k not in entries]
    if missing:
        raise ConfigError(f"{path}: missing required keys: {', '.join(missing)}")

    data = {}
    for key, (parser, _) in _KEYS.items():
        if key in entries:
            lineno, value = entries[key]
            try:
                data[key] = parser(value)
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: bad value for '{key}': {exc}") from exc
    try:
        return config_from_dict(data)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


_CHUNK_ROWS = 1 << 12
_NEEDS_QUOTES = re.compile(r'[,"\r\n]')


def _format_column(name, column):
    """One column's cells as text: formatted once if they repeat one value,
    else in one C-level pass if all are floats (numpy's float64 too), all
    ints or all strs, else by ``_format_cell`` one at a time."""
    first, kinds = column[0], set(map(type, column))
    if len(kinds) == 1 and (first != 0 or kinds == {int}) and column.count(first) == len(column):
        cells = [_format_cell(first)] * len(column)  # not for zero: -0.0 == 0.0
    elif all(issubclass(kind, float) for kind in kinds):
        return list(map(float.__repr__, column))
    elif kinds == {int}:  # not bool, whose str() is 'True'
        return list(map(int.__repr__, column))
    else:
        cells = column if kinds == {str} else list(map(_format_cell, column))
    for bad in filter(_NEEDS_QUOTES.search, set(cells)):
        raise ValueError(f"column {name!r}: cell {bad!r} would need CSV quoting")
    return cells


@contextmanager
def _atomic_file(path):
    """A binary file on a temporary sibling of ``path``, renamed onto ``path`` when
    the block completes and deleted on any error, so no partial file is left."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_csv(result: StudyResult, path) -> None:
    """Write the result table as CSV (LF newlines, shortest round-trip floats).

    Rows are formatted a column at a time, ``_CHUNK_ROWS`` at once, and each
    chunk is streamed into an ``_atomic_file``.  Labels are written verbatim
    and ``None`` as an empty cell; a label that would need quoting (``,``,
    ``"``, CR or LF), a table of one column and a row of the wrong length
    raise ValueError.
    """
    names, rows = result.columns, result.rows
    if len(names) < 2:
        raise ValueError(f"a CSV table needs at least two columns, got {names}")
    with _atomic_file(path) as fh:
        fh.write((",".join(_format_column("header", names)) + "\n").encode())
        for i in range(0, len(rows), _CHUNK_ROWS):
            columns = zip(*rows[i:i + _CHUNK_ROWS], strict=True)
            cells = [_format_column(n, c) for n, c in zip(names, columns, strict=True)]
            fh.write(("\n".join(map(",".join, zip(*cells))) + "\n").encode())


def _selfcheck(out) -> int:
    """Known answers of the integer stream every fBm draw reads (``SplitMix64.u64``)
    and monotonicity probes for all fluxes."""
    failures = 0

    expected = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4]
    for i, (g, e) in enumerate(zip(SplitMix64(0).u64(2).tolist(), expected)):
        ok = g == e
        failures += not ok
        print(f"[{'ok' if ok else 'FAIL'}] splitmix64 seed=0 output {i}: "
              f"0x{g:016X} (expected 0x{e:016X})", file=out)

    probes = []
    for kind in (NumFluxKind.GODUNOV, NumFluxKind.RUSANOV, NumFluxKind.ENGQUIST_OSHER):
        for eq in (FluxSpec.BURGERS, FluxSpec.CUBIC, FluxSpec.LINEAR):
            probes.append((NumericalFluxSpec(kind), eq))
    for eq in (FluxSpec.BURGERS, FluxSpec.CUBIC, FluxSpec.LINEAR):
        probes.append((NumericalFluxSpec(NumFluxKind.LAX_FRIEDRICHS, lam=1.0), eq))
    probes.append((NumericalFluxSpec(NumFluxKind.UPWIND), FluxSpec.LINEAR))
    for numflux, eq in probes:
        report = check_monotone(numflux, eq, box=(-1.0, 1.0), samples_per_axis=64)
        failures += not report.passed
        label = numflux.kind.value + ("" if numflux.lam is None else f"(lam={numflux.lam})")
        print(f"[{'ok' if report.passed else 'FAIL'}] monotone {label} + {eq.value}: "
              f"worst violation {report.worst_violation:.3e}", file=out)

    print(("selfcheck passed" if failures == 0 else f"selfcheck: {failures} failure(s)"),
          file=out)
    return 0 if failures == 0 else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="roughwave",
        description="Finite-volume experiments on conservation laws with rough initial data",
    )
    parser.add_argument("--version", action="version", version=f"roughwave {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in (*STUDIES, "selfcheck"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=name in STUDIES, help="path to key = value config file")
        p.add_argument("--out", required=name in STUDIES, help="output directory")
        p.add_argument("--samples", type=int, default=None, help="override sample count")
        p.add_argument("--seed", type=int, default=None, help="override base seed")
        p.add_argument("--workers", type=int, default=None,
                       help="parallel workers (default: ROUGHWAVE_WORKERS or 1)")
    return parser


def run(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
    try:
        if args.command == "selfcheck":
            return _selfcheck(out)

        cfg = parse_config(args.config)
        overrides = {"n_samples": args.samples, "base_seed": args.seed}
        try:
            cfg = replace(cfg, **{k: v for k, v in overrides.items() if v is not None})
            check_study(args.command, cfg)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

        workers = args.workers
        if workers is None:
            env = os.environ.get("ROUGHWAVE_WORKERS", "1")
            try:
                workers = int(env)
            except ValueError as exc:
                raise ConfigError(f"ROUGHWAVE_WORKERS must be an integer, got {env!r}") from exc
        if workers < 1:
            raise ConfigError(f"workers must be >= 1, got {workers}")

        started = time.monotonic()
        result = run_samples_parallel(args.command, cfg, workers=workers)

        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        csv_path = out_dir / f"{args.command}.csv"
        write_csv(result, csv_path)
        manifest = {
            "command": args.command,
            "config_path": str(args.config),
            "config": result.metadata["config"],
            "base_seed": cfg.base_seed,
            "sample_seeds": result.metadata["sample_seeds"],
            "version": __version__,
            "workers": workers,
            "outputs": [csv_path.name],
            "duration_seconds": round(time.monotonic() - started, 6),
        }
        with _atomic_file(out_dir / f"{args.command}_manifest.json") as fh:
            fh.write((json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode())
        print(f"wrote {csv_path}", file=out)
        return 0
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - report and exit nonzero
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
