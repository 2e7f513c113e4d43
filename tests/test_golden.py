"""Golden output hashes: every command's CSV and manifest, byte for byte.

Each command runs through ``cli.run`` on one small config.  The manifest is
hashed without ``duration_seconds`` (wall time) and ``config_path`` (the
temporary directory), re-serialized the way the CLI writes it.  The ``solve``
CSV is pinned as well for every numerical flux and equation pair the package
accepts, under both boundaries, and the two per-cell studies on deeper
tables: ``fbm`` at k = 8-12 for three Hurst exponents (23,808 rows) and
``solve`` at k = 9 with three snapshots (2,560 rows).  The stdout of
``selfcheck`` is pinned too.  A change that alters any output bit fails
here; re-pin a hash only with a change that is meant to alter that output.
"""

import hashlib
import io
import json

import pytest

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
        "6f73363f0aacb571c72e153410e1bc3aab21a33b5f1e97e80f2d28b4e6ef9ea0",
        "0efc881ce11b14b754f6ced1b27263812517edd8192a335d51f8268c4f4bfc0c",
    ),
    "tvscale": (
        "4bd8c668e0535a3b92e4ac415fbebf08a7e27049363a747ebf05d597906d371d",
        "d0f01ad352677494c10833370ecf2f4551cac791956dbfc8fc980aaf631eae94",
    ),
    "lipscale": (
        "e959ba594cf869c3237d9fcc7286eee84edb039d1532c75033bcf8339f15dac1",
        "c307c9ec5b060a3996c9d14696f767bc791fcfcd3b263e73cb8efca6c57cf31d",
    ),
    "tvdecay": (
        "7124cb23e8de3043d7e86e340580808c22f81d5a54714197939c5585bf1a3eb9",
        "6564c898246c2cf74529eded565bb73359b4b6b869ab3aad7429e5fb2de3852f",
    ),
    "sharpness": (
        "574a62337c2c54620d1057f4c54b7448144517bdbf345025280d0c373df23812",
        "0596856425d0ab9ffb9c78272aa3f4095084d4f99dbfb099125163abaa8e66d4",
    ),
    "solve": (
        "8707d02bb3b6866f7ee648909c95cc47eac1a21573b766a93a4b4cf980a78fc3",
        "8f10f535211e147a822af8ea0365f25dffb1cb16b0d107a2997e54f8e7f4b6f8",
    ),
    "fbm": (
        "93d2e4c11f49e0b7919d039ad69394be05f69e61006eb7007efed81e848c8ea7",
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
    ("godunov", "burgers", "outflow"): "b56dcce3958b474ae5bf95869ea1f2c01979df5bed2ba85ca4b473f532e5217f",
    ("godunov", "cubic", "outflow"): "c014140ab2a40f5e91418f364e644bfa354ea21241bdddf697e2fefdbc654155",
    ("godunov", "linear", "outflow"): "d1c57387baf22166c4cbf0a5bc331400ef107f71854d63ad5dd408f631a68d7c",
    ("rusanov", "burgers", "outflow"): "3284d693f0a159135ac24460ada226524ebaa811d04ee895010e086d7a4f388b",
    ("rusanov", "cubic", "outflow"): "842075e28116731fd05250a82ac55bfcf79620a44d8c1b009b8dffc695c6657e",
    ("rusanov", "linear", "outflow"): "362787b754c18f7fa4358efd3a51e20f40999a475581a50354d51bd624a709ad",
    ("lax_friedrichs", "burgers", "outflow"): "9b83ffafd4bafb7866f4d3f0ed6fde1237f03e4a40edb431edb55a2f24a6b363",
    ("lax_friedrichs", "cubic", "outflow"): "8fcdf02856ac601a9abd1fbc3514d074b9aeb825b562b257986078799494e5b8",
    ("lax_friedrichs", "linear", "outflow"): "0a1d4b5bd34ee10cb6424b3f10ed91867184b378e5c9ecd37885141bcd362110",
    ("engquist_osher", "burgers", "outflow"): "ee65ed66a9ed061d521a4ae65738c5b3e60b7590ce9830057ce55ee3a5548b5e",
    ("engquist_osher", "cubic", "outflow"): "c014140ab2a40f5e91418f364e644bfa354ea21241bdddf697e2fefdbc654155",
    ("engquist_osher", "linear", "outflow"): "d1c57387baf22166c4cbf0a5bc331400ef107f71854d63ad5dd408f631a68d7c",
    ("upwind", "linear", "outflow"): "d1c57387baf22166c4cbf0a5bc331400ef107f71854d63ad5dd408f631a68d7c",
    ("godunov", "burgers", "periodic"): "4f9474e3431fbb06858bc84353e3e1461b5b5cef580eac87d1cca64a34f19b7c",
    ("godunov", "cubic", "periodic"): "89c32859a0b28bfc4b71680ad0d7c4be76ae57af593054b4a290b9b27be1b819",
    ("godunov", "linear", "periodic"): "629d88e40382d0f52d0adb0e77d991114ff0c6205486056652ff1203dc191a77",
    ("rusanov", "burgers", "periodic"): "0df326bb7f8a47e7a5eb18d46d68c7694f1054d70da916f7018d65ada7d42ae6",
    ("rusanov", "cubic", "periodic"): "cdffeb5c06dd0086dbc1509192463bba3b18a27926fbe0c192733f913fdf37c9",
    ("rusanov", "linear", "periodic"): "c17a50f3ae5b2c971bfd3fff4fcf29292ee2d274c863f9354b228c45a7e3227b",
    ("lax_friedrichs", "burgers", "periodic"): "04de8103bfa54996d00268f1a6857acad3fef3234183d57bd8df9888617d2d87",
    ("lax_friedrichs", "cubic", "periodic"): "f23ab3934fecee289cbb95007eb2e34ca75a586d5bab576bb9702a4f9b51b222",
    ("lax_friedrichs", "linear", "periodic"): "378c5d1e25adc9c8669cd0eabfab8e264f325e7806f7306fbe1dbd44c63e12b2",
    ("engquist_osher", "burgers", "periodic"): "3473117864dee58df51f11c3d170b9ac6e31d9fc134878040d9ffade965ea132",
    ("engquist_osher", "cubic", "periodic"): "89c32859a0b28bfc4b71680ad0d7c4be76ae57af593054b4a290b9b27be1b819",
    ("engquist_osher", "linear", "periodic"): "629d88e40382d0f52d0adb0e77d991114ff0c6205486056652ff1203dc191a77",
    ("upwind", "linear", "periodic"): "629d88e40382d0f52d0adb0e77d991114ff0c6205486056652ff1203dc191a77",
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
    "fbm": "636466ac8e9253ecb0b279e57b1ca76ec6aa850a104c842c6962bef37c39602e",
    "solve": "0eb541b2789365391e5def6a1553be883c6f3016acd3c6f12e0d03731dd4eaf2",
}

# SHA-256 of the stdout of ``roughwave selfcheck``
SELFCHECK_GOLDEN = "016fe42df9c7f805b2767b7265fd69424cb373411983ad8d41613747603c2b61"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def output_hashes(command, tmp_path, config=CONFIG):
    """(csv sha256, manifest sha256) of one command run on ``config``."""
    cfg = tmp_path / "golden.cfg"
    cfg.write_text(config)
    out = tmp_path / command
    assert run([command, "--config", str(cfg), "--out", str(out), "--workers", "1"]) == 0
    manifest = json.loads((out / f"{command}_manifest.json").read_text())
    del manifest["duration_seconds"], manifest["config_path"]
    manifest_bytes = (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode()
    return _sha256((out / f"{command}.csv").read_bytes()), _sha256(manifest_bytes)


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_golden_hashes(command, tmp_path):
    assert output_hashes(command, tmp_path) == GOLDEN[command]


@pytest.mark.parametrize("numflux, equation, boundary", sorted(PAIR_GOLDEN))
def test_golden_solve_per_flux_pair(numflux, equation, boundary, tmp_path):
    config = PAIR_CONFIG.format(numflux=numflux, equation=equation, boundary=boundary)
    csv_hash, _ = output_hashes("solve", tmp_path, config)
    assert csv_hash == PAIR_GOLDEN[numflux, equation, boundary]


@pytest.mark.parametrize("command", sorted(DEEP_GOLDEN))
def test_golden_deep_per_cell_tables(command, tmp_path):
    csv_hash, _ = output_hashes(command, tmp_path, DEEP_CONFIG[command])
    assert csv_hash == DEEP_GOLDEN[command]


def test_golden_selfcheck_stdout():
    out = io.StringIO()
    assert run(["selfcheck"], out=out) == 0
    assert _sha256(out.getvalue().encode()) == SELFCHECK_GOLDEN
