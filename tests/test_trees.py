"""Every pinned ``hurstscan run`` configuration still writes the bytes recorded in ``fixtures/trees.json``,
and ``write_csv`` the bytes pinned below."""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from hurstlab.cli import main

_SPEC = importlib.util.spec_from_file_location("make_trees", Path(__file__).parent / "fixtures" / "make_trees.py")
make_trees = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(make_trees)

PINNED = json.loads(make_trees.TREES.read_text(encoding="utf-8"))

# sha256 of write_csv's files: any price form that reads back the same floats but prints otherwise fails here
SYNTH_CSV_SHA256 = "f9ae449be13779d256d1766e9902663721512d53a873735f9553e4c78a14606a"  # synth --n 6 --len 400
HALTED_CSV_SHA256 = "13e9f2b3395a1b6969a2f558f9615d015b6002842bc1ffcb96d4342a24cc5f1c"  # write_halted_cohort


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("trees")


def test_every_configuration_is_pinned():
    assert sorted(PINNED) == sorted(make_trees.CONFIGS)


@pytest.mark.parametrize("name", sorted(make_trees.CONFIGS))
def test_tree_matches_its_pinned_digests(name, scratch):
    tree = make_trees.run_tree(name, scratch)
    pinned = PINNED[name]
    assert sorted(tree["files"]) == sorted(pinned["files"]), f"{name}: different file names"
    for file, digest in pinned["files"].items():
        assert tree["files"][file] == digest, f"{name}: {file} differs"
    assert tree["skips"] == pinned["skips"], f"{name}: skip count differs"


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_synth_csv_matches_its_pinned_digest(tmp_path):
    path = tmp_path / "synth.csv"
    assert main(["synth", "--n", "6", "--len", "400", "--out", str(path)]) == 0
    assert _sha256(path) == SYNTH_CSV_SHA256


def test_halted_cohort_csv_matches_its_pinned_digest(tmp_path):
    path = tmp_path / "halted.csv"
    make_trees.write_halted_cohort(path)
    assert _sha256(path) == HALTED_CSV_SHA256
