"""ROADMAP standing constraint (i): every entry of ``bench.layers.LAYER_TABLE``
resolves the way the tracer resolves it.

``bench/`` is frozen outside ``[benchmark]`` PRs and read here, never edited.
``Tracer.install`` does ``importlib.import_module(module)``, ``getattr`` for a
class owner, then ``owner.__dict__[attr]`` — so a name a module binds with
``from ... import`` (``exchange_resident`` in ``cleaning.denial``,
``cleaning.dedup`` and ``physical.parallel_exec``) must stay a module-level
binding there.  Un-binding one should fail this test, not every traced run.
"""

import importlib
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT))

from bench.layers import LAYER_TABLE  # noqa: E402


@pytest.mark.parametrize("layer, owner_path, attr", LAYER_TABLE)
def test_entry_resolves_as_the_tracer_does_it(layer, owner_path, attr):
    module_name, _, class_name = owner_path.partition(":")
    owner = importlib.import_module(module_name)
    if class_name:
        owner = getattr(owner, class_name)
    assert attr in owner.__dict__, f"{owner_path} no longer binds {attr!r} ({layer} layer)"
    assert callable(owner.__dict__[attr])
