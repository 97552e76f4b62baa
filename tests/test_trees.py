"""Every pinned ``hurstscan run`` configuration still writes the bytes recorded in ``fixtures/trees.json``."""

import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location("make_trees", Path(__file__).parent / "fixtures" / "make_trees.py")
make_trees = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(make_trees)

PINNED = json.loads(make_trees.TREES.read_text(encoding="utf-8"))


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
