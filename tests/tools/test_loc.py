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


def test_a_path_past_its_ceiling_fails(tmp_path, monkeypatch, capsys):
    lines = loc.count_lines()
    ceilings = tmp_path / "ceilings.json"
    ceilings.write_text(json.dumps({"src/repro/cleaning": lines["src/repro/cleaning"] - 1}))
    monkeypatch.setattr(loc, "CEILINGS", ceilings)
    assert loc.main() == 1
    assert "src/repro/cleaning" in capsys.readouterr().err
