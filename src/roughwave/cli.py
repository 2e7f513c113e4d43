"""Command-line entry point: config parsing, study execution, CSV + manifest
persistence, and a self-check of the draw and march, and of the fluxes.

``roughwave <study> --config FILE --out DIR [--seed N] [--workers N]`` runs one
study of ``experiments.STUDIES``; ``--seed`` replaces the config's base_seed and
``--workers`` (default 1) caps the thread pool.  ``roughwave selfcheck`` takes
no options.  Exit codes: 0 success, 1 invalid usage or configuration or an
``--out`` that cannot be made a directory (nothing written, no sample drawn), 2
runtime failure (this run leaves no output file), among them compiled kernels that
cannot be built or loaded, which a run finds before its first sample.

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

import numpy as np

from . import __version__, _kernels
from ._kernels import _sha256
from .experiments import (STUDIES, StudyConfig, StudyResult, _CellRows, check_study,
                          config_from_dict, run_samples_parallel)
from .flux import PAIRS, FluxSpec, NumericalFluxSpec, NumFluxKind, check_monotone
from .initial_data import fbm_initial_field
from .mesh import make_grid
from .solver import Boundary, SchemeConfig, evolve


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


_CHUNK_ROWS = 1 << 12
_NEEDS_QUOTES = re.compile(r'[,"\r\n]')


def _format_cell(name, value) -> str:
    """One cell of column ``name``: ``None`` empty, a str verbatim (one that would
    need CSV quoting raises ValueError), an int (bool too) by ``str``, anything
    else by ``repr(float(value))``."""
    if value is None:
        return ""
    if isinstance(value, str):
        if _NEEDS_QUOTES.search(value):
            raise ValueError(f"column {name!r}: cell {value!r} would need CSV quoting")
        return value
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


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

    The text is streamed into an ``_atomic_file``.  A table of row tuples is
    written a row at a time, each cell through ``_format_cell``.  A per-cell
    table (``_CellRows``) is written a block at a time: its labels through
    ``_format_cell`` once, then ``_CHUNK_ROWS`` lines at once by the library's
    ``cell_lines``, whose ``x`` and ``u`` text is ``repr``'s.  A label that would
    need quoting (``,``, ``"``, CR or LF), a table of one column and a row of the
    wrong length raise ValueError.
    """
    names, rows = result.columns, result.rows
    if len(names) < 2:
        raise ValueError(f"a CSV table needs at least two columns, got {names}")
    with _atomic_file(path) as fh:
        fh.write((",".join(_format_cell("header", n) for n in names) + "\n").encode())
        if isinstance(rows, _CellRows):
            _write_blocks(fh, names, rows.blocks)
        else:
            for row in rows:
                cells = (_format_cell(n, v) for n, v in zip(names, row, strict=True))
                fh.write((",".join(cells) + "\n").encode())


def _write_blocks(fh, names, blocks):
    """The rows of ``_CellBlock``s: each line is the block's label prefix, then
    the cell's ``x`` and ``u``, ``_CHUNK_ROWS`` lines at a time through the
    library's ``cell_lines`` into one buffer."""
    buf = np.empty(0, dtype=np.uint8)
    for labels, grid, values in blocks:
        if len(labels) + 2 != len(names):
            raise ValueError(f"a block of {len(labels)} labels for the columns {names}")
        prefix = "".join(_format_cell(n, label) + "," for n, label in zip(names, labels)).encode()
        size = _CHUNK_ROWS * (len(prefix) + _kernels.LINE_BYTES)
        if buf.size < size:
            buf = np.empty(size, dtype=np.uint8)
        x = grid.cell_midpoints()
        for i in range(0, grid.n_cells, _CHUNK_ROWS):
            chunk = slice(i, i + _CHUNK_ROWS)
            fh.write(buf[:_kernels.cell_lines(prefix, x[chunk], values[chunk], buf)])


def _selfcheck(out) -> int:
    """The known answer of a draw marched with every flux pair on both boundaries,
    through the kernels the studies run, and a monotonicity probe of every pair."""
    failures = 0

    u0 = fbm_initial_field(0.5, make_grid(0, 1, 64), 0)
    g = _sha256(b"".join(
        evolve(u0, SchemeConfig(law, NumericalFluxSpec(kind), 0.25, boundary=boundary))
        .final.values.tobytes() for kind, law in PAIRS for boundary in Boundary))
    e = "f53126f8c3ae47b5c6ba1fec26eef5ffe2b15ca7a9e7a6644646c356d447e44c"
    failures += g != e
    print(f"[{'ok' if g == e else 'FAIL'}] fbm seed=0 H=0.5 on 64 cells, {len(PAIRS)} flux "
          f"pairs x {len(Boundary)} boundaries to t=0.25: sha256 {g[:16]} (expected {e[:16]})",
          file=out)

    for kind, law in PAIRS:
        numflux = NumericalFluxSpec(kind, 1.0 if kind is NumFluxKind.LAX_FRIEDRICHS else None)
        report = check_monotone(numflux, law)
        failures += not report.passed
        label = kind.value + ("" if numflux.lam is None else f"(lam={numflux.lam})")
        print(f"[{'ok' if report.passed else 'FAIL'}] monotone {label} + {law.value}: "
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
    sub.add_parser("selfcheck")
    for name in STUDIES:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to key = value config file")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override base seed")
        p.add_argument("--workers", type=int, default=1, help="parallel workers (default 1)")
    return parser


def run(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # a usage error exits 1; --help and --version exit 0
        return 1 if exc.code else 0
    try:
        if args.command == "selfcheck":
            return _selfcheck(out)

        cfg = parse_config(args.config)
        try:
            if args.seed is not None:
                cfg = replace(cfg, base_seed=args.seed)
            check_study(args.command, cfg)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if args.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {args.workers}")

        out_dir = Path(args.out)
        try:  # before the run, so an --out that cannot be a directory costs no samples
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot make output directory {out_dir}: {exc}") from exc

        _kernels.load()  # its error, if any, once and before any sample
        started = time.monotonic()
        result = run_samples_parallel(args.command, cfg, workers=args.workers)
        csv_path = out_dir / f"{args.command}.csv"
        csv_placed = False
        try:  # the manifest's sibling opens first: a CSV goes only with its manifest
            with _atomic_file(out_dir / f"{args.command}_manifest.json") as fh:
                write_csv(result, csv_path)
                csv_placed = True
                manifest = {
                    "command": args.command,
                    "config_path": str(args.config),
                    "config": result.metadata["config"],
                    "base_seed": cfg.base_seed,
                    "sample_seeds": result.metadata["sample_seeds"],
                    "version": __version__,
                    "workers": args.workers,
                    "outputs": [csv_path.name],
                    "duration_seconds": round(time.monotonic() - started, 6),
                }
                fh.write((json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode())
        except BaseException:
            if csv_placed:
                csv_path.unlink(missing_ok=True)
            raise
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
