"""Golden output hashes: every command's CSV and manifest, byte for byte.

Each command runs through ``cli.run`` on one small config.  The manifest is
hashed without ``duration_seconds`` (wall time) and ``config_path`` (the
temporary directory), re-serialized the way the CLI writes it.  The ``solve``
CSV is pinned as well for every numerical flux and equation pair the package
accepts, under both boundaries, and the two per-cell studies on deeper tables:
``fbm`` at k = 8-12 for three Hurst exponents (23,808 rows) and ``solve`` at
k = 9 with three snapshots (2,560 rows).  ``sharpness`` and ``tvdecay`` run on
two threads too and must give the same CSV.  The stdout of ``selfcheck`` is
pinned too.  The ensemble commands and the deep ``fbm`` table are run again in a
subprocess under settings that make numpy, OpenBLAS and glibc pick other kernels
on an x86-64 CPU, and must give the same hashes there: nothing in them depends
on a kernel picked by CPU.  A change that alters any output bit fails here;
re-pin a hash only with a change that is meant to alter that output.
"""

import hashlib
import io
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

from roughwave import _kernels
from roughwave.cli import run

CONFIG = """\
equation = burgers
numflux = godunov
hurst = 0.25,0.75
resolutions = 4,5
reference_exponent = 7
samples = 2
base_seed = 2024
t_final = 0.25
snapshot_times = 0.125,0.25
"""

GOLDEN = {
    "converge": (
        "57aebd9e593bba4bb12ae88565046d0fc653baba394e05011cd6a322aff3a72e",
        "0efc881ce11b14b754f6ced1b27263812517edd8192a335d51f8268c4f4bfc0c",
    ),
    "tvscale": (
        "73dbf1237cbfd2cc1878ec8685439da091ec5a0bec7e5ff3309567db39935532",
        "d0f01ad352677494c10833370ecf2f4551cac791956dbfc8fc980aaf631eae94",
    ),
    "lipscale": (
        "52f767eac3010f7fd9df615c0fde55539f582613b25b58b91015f07925c7388d",
        "c307c9ec5b060a3996c9d14696f767bc791fcfcd3b263e73cb8efca6c57cf31d",
    ),
    "tvdecay": (
        "da5a2af6fecbde296b1296b6a0c6ddf656709576a347137e40bd763ed2af5148",
        "6564c898246c2cf74529eded565bb73359b4b6b869ab3aad7429e5fb2de3852f",
    ),
    "sharpness": (
        "6a364e36110e7580f828c5084d0d6b37362b99bebcfdee79aa6bb8d848581893",
        "0596856425d0ab9ffb9c78272aa3f4095084d4f99dbfb099125163abaa8e66d4",
    ),
    "solve": (
        "8707d02bb3b6866f7ee648909c95cc47eac1a21573b766a93a4b4cf980a78fc3",
        "8f10f535211e147a822af8ea0365f25dffb1cb16b0d107a2997e54f8e7f4b6f8",
    ),
    "fbm": (
        "4a8501acb6263993d3aef8427fa6d7b906dc32d65ebb47fcf10d3acff4bb238e",
        "0367256dc8b7e451a3faccf834769f535e24518a18f7520f4823b1e8cdb878b7",
    ),
}

PAIR_CONFIG = """\
equation = {equation}
numflux = {numflux}
boundary = {boundary}
hurst = 0.5
resolutions = 5
reference_exponent = 6
samples = 1
base_seed = 2024
t_final = 0.5
snapshot_times = 0.125,0.25
"""

# solve.csv SHA-256 per (numflux, equation, boundary)
PAIR_GOLDEN = {
    ("godunov", "burgers", "outflow"): "8575119f1c79d67c81cf40802272836f93ca832050fa5b8e142393a605135678",
    ("godunov", "cubic", "outflow"): "93d7e371bd2b2c6077c0ef2759dd5fd1514aa69f3a8658a7280c18bb6f9b67cb",
    ("godunov", "linear", "outflow"): "7f6a7740592a8dc8eecf448f963a9caf34d53b218dd2e39c2a7656dc2e900c0c",
    ("rusanov", "burgers", "outflow"): "fd543592d89a502ea40b5cefaac0d23ceb4c7df407cbb563471af6694520ff52",
    ("rusanov", "cubic", "outflow"): "b58e953e2e5bc416aa979affe7d4c45075031ca92d994c08cabbf03c4914cca0",
    ("rusanov", "linear", "outflow"): "2e873758ab28a156c649d814a12533b8eecd5b5379543ba51743254a6865e300",
    ("lax_friedrichs", "burgers", "outflow"): "3b9c6b88798f240d99ebfdad9090ad50fb747ffa9780be389890267a6c7ce539",
    ("lax_friedrichs", "cubic", "outflow"): "750d1613c537b98e9e69c3f7601fa135a074a44d63bd14ccc211f77b0cecce28",
    ("lax_friedrichs", "linear", "outflow"): "3202efe586bac17c801965a417c1f9d0300142c8ae68e1cdd49e6ff8f5c9d6b7",
    ("engquist_osher", "burgers", "outflow"): "5e534af05c0696e4047a557879827e556dbab164c4415ff5734d7c59445cf829",
    ("engquist_osher", "cubic", "outflow"): "93d7e371bd2b2c6077c0ef2759dd5fd1514aa69f3a8658a7280c18bb6f9b67cb",
    ("engquist_osher", "linear", "outflow"): "7f6a7740592a8dc8eecf448f963a9caf34d53b218dd2e39c2a7656dc2e900c0c",
    ("upwind", "linear", "outflow"): "7f6a7740592a8dc8eecf448f963a9caf34d53b218dd2e39c2a7656dc2e900c0c",
    ("godunov", "burgers", "periodic"): "5d48d6536247773cf07a0871fe99216b0713eccc36ed2b4c78705e61c812c141",
    ("godunov", "cubic", "periodic"): "4bf65d1e434e545beb77919b880c3efb5a0225c4fdfe9a6d141e834c9f91342d",
    ("godunov", "linear", "periodic"): "91df9966a29a0aa9f9a1d7f6c13601df8a7ffb36eb6aee9bcc3321fe03188ed8",
    ("rusanov", "burgers", "periodic"): "558b053b7e28754d361ed63aced9d5ede8574b4a97378c34d518590eb4e2964c",
    ("rusanov", "cubic", "periodic"): "a9bec997d6b94767b6796644381c4feb46ba7c50bcfad47e71a1278c4de5ea81",
    ("rusanov", "linear", "periodic"): "052858a6d820b76c4f898517c255dddc21016d66377acad84857e02823e17f45",
    ("lax_friedrichs", "burgers", "periodic"): "714c4ea261fb1a68717dbc0dd242bade145086340635e5f8971a79d99cb90b26",
    ("lax_friedrichs", "cubic", "periodic"): "76e360103c5dfebbd5c78933935f23b888d00c94a96c6b96a0910100774ba84a",
    ("lax_friedrichs", "linear", "periodic"): "85329c763866c73402c57c55257c13f446fb289ae8c55872baaf7cb9e1b9289e",
    ("engquist_osher", "burgers", "periodic"): "8ed97d678add1d02c21f82384b608178358a973c88a9de97164a7a904fd4c5c5",
    ("engquist_osher", "cubic", "periodic"): "4bf65d1e434e545beb77919b880c3efb5a0225c4fdfe9a6d141e834c9f91342d",
    ("engquist_osher", "linear", "periodic"): "91df9966a29a0aa9f9a1d7f6c13601df8a7ffb36eb6aee9bcc3321fe03188ed8",
    ("upwind", "linear", "periodic"): "91df9966a29a0aa9f9a1d7f6c13601df8a7ffb36eb6aee9bcc3321fe03188ed8",
}

DEEP_CONFIG = {
    "fbm": """\
equation = burgers
numflux = godunov
hurst = 0.25,0.5,0.75
resolutions = 8,9,10,11,12
reference_exponent = 13
samples = 1
base_seed = 2024
""",
    "solve": """\
equation = burgers
numflux = godunov
hurst = 0.5
resolutions = 9
reference_exponent = 10
samples = 1
base_seed = 2024
t_final = 0.25
snapshot_times = 0.0625,0.125,0.1875
""",
}

# CSV SHA-256 of each command run on its DEEP_CONFIG
DEEP_GOLDEN = {
    "fbm": "4def34075fba8d3016a2ab43f9bd134c6e3409d61db1e16742ebaaad508ae51b",
    "solve": "4b1fb7f5afc7046fc37cc314e0639c0de30bb3faf0caaf98c979e12faa0319d2",
}

# SHA-256 of the stdout of ``roughwave selfcheck``
SELFCHECK_GOLDEN = "10115719267dbc9643bd76c54b94e54c2101df11388db26db3565733a1c0d784"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def output_hashes(command, tmp_path, config=CONFIG, workers=1):
    """(csv sha256, manifest sha256) of one command run on ``config``."""
    cfg = tmp_path / "golden.cfg"
    cfg.write_text(config)
    out = tmp_path / command
    assert run([command, "--config", str(cfg), "--out", str(out), "--workers", str(workers)]) == 0
    manifest = json.loads((out / f"{command}_manifest.json").read_text())
    del manifest["duration_seconds"], manifest["config_path"]
    manifest_bytes = (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode()
    return _sha256((out / f"{command}.csv").read_bytes()), _sha256(manifest_bytes)


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_golden_hashes(command, march, tmp_path):
    assert output_hashes(command, tmp_path) == GOLDEN[command]


@pytest.mark.parametrize("command", ["sharpness", "tvdecay"])
def test_golden_csv_on_two_threads(command, march, tmp_path):
    # the manifest records the worker count, so only the CSV keeps its pinned hash
    csv_hash, _ = output_hashes(command, tmp_path, workers=2)
    assert csv_hash == GOLDEN[command][0]


@pytest.mark.parametrize("numflux, equation, boundary", sorted(PAIR_GOLDEN))
def test_golden_solve_per_flux_pair(numflux, equation, boundary, march, tmp_path):
    config = PAIR_CONFIG.format(numflux=numflux, equation=equation, boundary=boundary)
    csv_hash, _ = output_hashes("solve", tmp_path, config)
    assert csv_hash == PAIR_GOLDEN[numflux, equation, boundary]


@pytest.mark.parametrize("command", sorted(DEEP_GOLDEN))
def test_golden_deep_per_cell_tables(command, march, tmp_path):
    csv_hash, _ = output_hashes(command, tmp_path, DEEP_CONFIG[command])
    assert csv_hash == DEEP_GOLDEN[command]


def test_golden_selfcheck_stdout():
    out = io.StringIO()
    assert run(["selfcheck"], out=out) == 0
    assert _sha256(out.getvalue().encode()) == SELFCHECK_GOLDEN


# Settings that make each library pick other kernels than it would on an x86-64 CPU
# with AVX-512: numpy's AVX-512 loops off, OpenBLAS's Haswell kernels (those of any
# AVX2 CPU without AVX-512), and glibc's libm without its AVX2 and FMA variants
PLATFORMS = {
    "numpy-avx2": {"NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4"},
    "openblas-haswell": {"OPENBLAS_CORETYPE": "Haswell"},
    "glibc-no-fma": {"GLIBC_TUNABLES": "glibc.cpu.hwcaps=-AVX2,-FMA"},
}

ENSEMBLE = ("converge", "lipscale", "sharpness", "tvscale")

# run in a subprocess with argv = [out dir]: prints the CSV and manifest hashes of
# the ensemble commands and the deep fbm table's CSV hash, as JSON
PLATFORM_RUN = """
import json, sys
from pathlib import Path
import test_golden as g
out = Path(sys.argv[1])
hashes = {c: list(g.output_hashes(c, out)) for c in g.ENSEMBLE}
hashes["deep-fbm"] = g.output_hashes("fbm", out / "deep", g.DEEP_CONFIG["fbm"])[0]
print(json.dumps(hashes))
"""


@pytest.mark.parametrize("setting", sorted(PLATFORMS))
def test_golden_hashes_on_other_kernels(march, setting, tmp_path):
    if platform.machine() not in ("x86_64", "AMD64"):
        pytest.skip("the settings pick x86-64 kernels")
    (tmp_path / "deep").mkdir()
    here = Path(__file__).resolve().parent
    path = os.pathsep.join([str(Path(_kernels.__file__).parents[1]), str(here)])
    env = dict(os.environ, PYTHONPATH=path, **PLATFORMS[setting])
    done = subprocess.run([sys.executable, "-c", PLATFORM_RUN, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    hashes = json.loads(done.stdout.splitlines()[-1])
    assert hashes.pop("deep-fbm") == DEEP_GOLDEN["fbm"]
    assert hashes == {command: list(GOLDEN[command]) for command in ENSEMBLE}
