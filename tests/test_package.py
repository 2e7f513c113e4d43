import os
import subprocess
import sys
from pathlib import Path

import roughwave


def test_every_exported_name_resolves():
    assert [name for name in roughwave.__all__ if not hasattr(roughwave, name)] == []
    assert len(set(roughwave.__all__)) == len(roughwave.__all__)


def test_the_cli_imports_no_process_pool():
    # the studies run on threads: importing multiprocessing would cost every run's
    # start-up about 12 ms for nothing
    probe = ("import sys, roughwave.cli; print(sorted(m for m in sys.modules if m in "
             "('multiprocessing', 'concurrent.futures.process')))")
    env = dict(os.environ, PYTHONPATH=str(Path(roughwave.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
