"""The compiled kernels of ``_march.c``, loaded on first use: the only kernels the
package runs.

``solver`` counts its time points (``schedule``) and marches through it, the march
keeping the clock, ``initial_data`` draws fBm through it, ``mesh`` restricts through
it, ``log`` gives the rate fits its log, and ``cell_lines`` writes the text of
``cli.write_csv``'s per-cell tables, each double as ``repr`` writes it, with a table
of powers of ten computed on its first call.  Where the library cannot be had,
``load`` raises and names the cause; nothing falls back.  This module imports nothing
of the package, so every module can import it.

The library is built with ``_FLAGS`` and no ``-march``: on x86-64 its step and
pairwise-sum templates and its draw's uniforms and normals carry one clone per
level (baseline, v3 and v4), picked when the library loads, so one cached library
serves every CPU that shares the cache.
"""

from __future__ import annotations

import functools
import os
import platform
import threading
from pathlib import Path


def _flags(machine: str) -> tuple:
    """gcc's flags for the library on ``machine`` (a ``platform.machine()`` name);
    ``-mprefer-vector-width`` is an x86 option, which gcc for other targets rejects."""
    x86 = ("-mprefer-vector-width=512",) if machine in ("x86_64", "AMD64") else ()
    return ("-O3", "-fno-math-errno", "-ffp-contract=off", *x86, "-shared", "-fPIC")


_FLAGS = _flags(platform.machine())
_BUILD_LOCK = threading.Lock()


def _sha256(data: bytes) -> str:
    """The SHA-256 hex digest of ``data``, by CPython's built-in module where there
    is one: ``hashlib`` loads OpenSSL, some megabytes of resident memory."""
    try:
        from _sha256 import sha256  # CPython 3.11
    except ImportError:
        try:
            from _sha2 import sha256  # CPython 3.12+
        except ImportError:
            from hashlib import sha256
    return sha256(data).hexdigest()


def load():
    """``_build()``'s library, or its RuntimeError, kept until ``load.cache_clear()``."""
    lib = _outcome()
    if isinstance(lib, RuntimeError):  # a fresh copy: threads may raise it at once
        raise RuntimeError(*lib.args) from lib.__cause__
    return lib


@functools.cache
def _outcome():
    try:
        return _build()
    except RuntimeError as exc:
        return exc


load.cache_clear = _outcome.cache_clear


def _build():
    """The library built from ``_march.c``.  RuntimeError, naming the cause, if there
    is no ``gcc``, the build fails, or the cache cannot be written or is not trusted.

    It is compiled on first use, in about 1 s, into ``$XDG_CACHE_HOME/roughwave``
    (default ``~/.cache/roughwave``, mode 0700) under the SHA-256 of the source and
    the flags, by one thread at a time, under a temporary name renamed into place, so
    processes that build it at once do not race.  The key is public, so a cache
    directory not the user's own, or that its group or others can write, is not used:
    nothing is built in it or loaded from it.
    """
    import ctypes
    import subprocess

    source = Path(__file__).with_name("_march.c")
    key = _sha256(source.read_bytes() + " ".join(_FLAGS).encode())
    try:
        cache = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "roughwave"
        cache.mkdir(mode=0o700, parents=True, exist_ok=True)
        st = os.stat(cache)
    except (OSError, RuntimeError) as exc:  # RuntimeError: no home
        raise RuntimeError(f"the kernel cache cannot be made: {exc}") from exc
    if st.st_uid != os.getuid() or st.st_mode & 0o022:  # others could plant a library
        raise RuntimeError(f"the kernel cache {cache} is not used: it is not this user's "
                           "own, or its group or others can write it")
    path = cache / f"march-{key}.so"
    with _BUILD_LOCK:
        if not path.exists():
            tmp = cache / f".{path.name}.{os.getpid()}.tmp"
            try:
                subprocess.run(["gcc", *_FLAGS, "-o", str(tmp), str(source)],
                               check=True, capture_output=True)
                os.replace(tmp, path)
            except FileNotFoundError as exc:
                raise RuntimeError("the compiled kernels need gcc, and there is no gcc "
                                   "on PATH") from exc
            except subprocess.CalledProcessError as exc:
                raise RuntimeError(f"gcc failed to build {source} into {cache}:\n"
                                   f"{exc.stderr.decode(errors='replace').strip()}") from exc
            finally:
                tmp.unlink(missing_ok=True)
    lib = ctypes.CDLL(str(path))
    ptr, i64, i32, f64 = ctypes.c_void_p, ctypes.c_int64, ctypes.c_int, ctypes.c_double
    signatures = {
        "march": ((ptr, i64, ptr, i64, f64, f64, f64, f64, i32, i32, f64, ptr), i64),
        "schedule": ((f64, f64, f64), i64),
        "variation": ((ptr, i64, i32), f64),
        "uniforms": ((ctypes.c_uint64, ptr, i64), ctypes.c_uint64),
        "normals": ((ctypes.c_uint64, ptr, i64), ctypes.c_uint64),
        "draw": ((ctypes.c_uint64, ptr, i64, i64, f64), ctypes.c_uint64),
        "log_sincos": ((ptr, i64, ptr, ptr, ptr), None),
        "cell_means": ((ptr, ptr, i64, i64), None),
        "cell_lines": ((ctypes.c_char_p, i64, ptr, ptr, i64, ptr, i64, ptr), i64),
    }
    for name, (argtypes, restype) in signatures.items():
        fn = getattr(lib, name)
        fn.argtypes, fn.restype = argtypes, restype
    return lib


def log(x):
    """The natural log of each double of ``x``, by the draw's ``ieee_log``, whose
    bits are the same on every CPU (the sines and cosines formed with it are
    dropped)."""
    import numpy as np

    x = np.ascontiguousarray(x, dtype=np.float64)
    out = np.empty((3, *x.shape))
    load().log_sincos(x.ctypes.data, x.size, *(row.ctypes.data for row in out))
    return out[0]


# the most bytes a line of ``cell_lines`` takes past its prefix: two reprs of 24 bytes
# at most ("-2.2250738585072014e-308"), a comma and a newline
LINE_BYTES = 50


@functools.cache
def _powers_of_ten():
    """The table of ``cell_lines``: for each k from -292 to 324, g = floor(10^k
    2^(127 - floor(log2 10^k))) + 1, which lies in (2^127, 2^128), as its high and low
    64 bits, computed exactly on first use."""
    import numpy as np

    halves = []
    for k in range(-292, 325):
        shift = 127 - ((k * 1741647) >> 19)  # the C's floor(log2 10^k), exact here
        if k < 0:
            g = (1 << shift) // 10**-k
        else:
            g = 10**k << shift if shift >= 0 else 10**k >> -shift
        halves += ((g + 1) >> 64, (g + 1) & (1 << 64) - 1)
    return np.array(halves, dtype=np.uint64)


def cell_lines(prefix: bytes, x, u, buf) -> int:
    """Write the lines ``prefix + repr(x[i]) + "," + repr(u[i]) + "\\n"`` of the
    float64 arrays ``x`` and ``u``, of one size, into the uint8 array ``buf`` and
    return their length.  ValueError if ``buf`` has less room than as many lines of
    ``len(prefix) + LINE_BYTES`` bytes, the longest, would need (the library returned
    -1)."""
    import numpy as np

    if x.size != u.size:
        raise ValueError(f"{x.size} x cells and {u.size} u cells")
    if not (buf.dtype == np.uint8 and buf.flags.c_contiguous and buf.flags.writeable):
        raise ValueError("the buffer must be a writable contiguous uint8 array")
    x, u = (np.ascontiguousarray(a, dtype=np.float64) for a in (x, u))
    end = load().cell_lines(prefix, len(prefix), x.ctypes.data, u.ctypes.data, x.size,
                            buf.ctypes.data, buf.size, _powers_of_ten().ctypes.data)
    if end < 0:
        raise ValueError(f"{buf.size} bytes are too few for {x.size} lines of "
                         f"{len(prefix)} + {LINE_BYTES} bytes")
    return end
