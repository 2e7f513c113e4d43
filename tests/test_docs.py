"""The docs against the code they document: the README's per-study CSV column table
and example config file, and the config keys the CLI's module docstring lists."""

import re
from pathlib import Path

from roughwave import cli
from roughwave.cli import _KEYS, parse_config
from roughwave.experiments import STUDIES

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def test_readme_column_table_matches_studies():
    table = dict(re.findall(r"^\| `(\w+)` \| `([\w,]+)` \|$", README, re.MULTILINE))
    assert table == {study: ",".join(spec.columns) for study, spec in STUDIES.items()}


def test_readme_example_config_parses(tmp_path):
    block = README.split("```ini\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "readme.cfg"
    path.write_text(block)
    cfg = parse_config(path)
    assert cfg.hurst_list == (0.25, 0.5, 0.75)
    assert cfg.snapshot_times == (0.25, 0.5, 1.0)
    named = {line.split("=", 1)[0].strip() for line in block.splitlines()
             if line.strip() and not line.startswith("#")}
    assert named == set(_KEYS)


def test_cli_docstring_lists_the_recognized_keys():
    listed = cli.__doc__.split("Recognized keys:", 1)[1].split(".", 1)[0]
    assert {key.strip() for key in listed.split(",")} == set(_KEYS)
