"""``python -m tools.loc``: the CI contract (exit 0 at the committed
ceilings) and the failure it exists for (a path past its ceiling)."""

import json
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT))

from tools import loc  # noqa: E402


def test_committed_source_is_within_its_ceilings():
    done = subprocess.run(
        [sys.executable, "-m", "tools.loc"], cwd=REPO_ROOT, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    total = sum(
        path.read_bytes().count(b"\n") for path in (REPO_ROOT / "src").rglob("*.py")
    )
    assert f"{total:7d}  src " in done.stdout


def test_a_file_can_carry_a_ceiling(tmp_path, monkeypatch, capsys):
    """The two former god-objects are held at 800 lines each, except that
    the pool module's ceiling is its measured size: the one-way delta
    patch (``WorkerPool.patch``) grew it from 797 to 813 lines, replacing
    the inbox queues with plain pipes shrank it to 807, writing each
    command at once, with no function registry, to 757, and importing
    ``FaultPlan`` for its annotation only (a ``TYPE_CHECKING`` block, so a
    launch does not load ``engine.faults``) grew it to 759."""
    committed = json.loads(loc.CEILINGS.read_text())
    assert committed["src/repro/core/language.py"] == 800
    assert committed["src/repro/engine/parallel.py"] == 759
    ceilings = tmp_path / "ceilings.json"
    ceilings.write_text(json.dumps({"src/repro/errors.py": 10}))
    monkeypatch.setattr(loc, "CEILINGS", ceilings)
    assert loc.main() == 1
    captured = capsys.readouterr()
    assert "src/repro/errors.py" in captured.out
    assert "src/repro/errors.py" in captured.err


def test_a_path_past_its_ceiling_fails(tmp_path, monkeypatch, capsys):
    lines = loc.count_lines()
    ceilings = tmp_path / "ceilings.json"
    ceilings.write_text(json.dumps({"src/repro/cleaning": lines["src/repro/cleaning"] - 1}))
    monkeypatch.setattr(loc, "CEILINGS", ceilings)
    assert loc.main() == 1
    assert "src/repro/cleaning" in capsys.readouterr().err
