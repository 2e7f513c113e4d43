"""Golden output hashes: every command's CSV and manifest, byte for byte.

Each command runs through ``cli.run`` on one small config.  The manifest is
hashed without ``duration_seconds`` (wall time) and ``config_path`` (the
temporary directory), re-serialized the way the CLI writes it.  A change that
alters any output bit fails here; re-pin a hash only with a change that is
meant to alter that output.
"""

import hashlib
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


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def output_hashes(command, tmp_path):
    """(csv sha256, manifest sha256) of one command run on ``CONFIG``."""
    cfg = tmp_path / "golden.cfg"
    cfg.write_text(CONFIG)
    out = tmp_path / command
    assert run([command, "--config", str(cfg), "--out", str(out), "--workers", "1"]) == 0
    manifest = json.loads((out / f"{command}_manifest.json").read_text())
    del manifest["duration_seconds"], manifest["config_path"]
    manifest_bytes = (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode()
    return _sha256((out / f"{command}.csv").read_bytes()), _sha256(manifest_bytes)


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_golden_hashes(command, tmp_path):
    assert output_hashes(command, tmp_path) == GOLDEN[command]
