"""``python -m tools.loc``: the tracked size of ``src/``.

ROADMAP makes the line count of ``src/`` a tracked metric that should end
each round lower.  This prints the lines per package and the total — the
number ``find src -name '*.py' | xargs cat | wc -l`` gives — and exits
non-zero when a path grew past its ceiling in ``loc_ceiling.json``.  A
ceiling key is ``src``, a package directory, or one file (the two modules
that were once god-objects are held under 800 lines each, and the largest
module, ``core/semantics.py``, at its size); a ``.md`` file's ceiling is
counted the same way (``docs/ARCHITECTURE.md`` may only shrink).  A PR that
shrinks ``src/`` lowers the ceiling to its result; one that has to grow it
raises the ceiling in the same diff, where review sees it.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CEILINGS = Path(__file__).with_name("loc_ceiling.json")


def count_lines(root: Path = ROOT) -> Counter[str]:
    """Lines per ``src/repro`` package (its top-level modules count as
    ``src/repro/*.py``), plus the ``src`` total."""
    lines: Counter[str] = Counter()
    for path in sorted((root / "src").rglob("*.py")):
        count = path.read_bytes().count(b"\n")
        parts = path.relative_to(root / "src" / "repro").parts
        lines["src/repro/" + (parts[0] if len(parts) > 1 else "*.py")] += count
        lines["src"] += count
    return lines


def main() -> int:
    lines = count_lines()
    ceilings: dict[str, int] = json.loads(CEILINGS.read_text())
    for key in ceilings:  # a file's ceiling: count that file
        if key.endswith((".py", ".md")):
            lines[key] = (ROOT / key).read_bytes().count(b"\n")
    over = []
    for path in sorted(lines):
        ceiling = ceilings.get(path)
        note = "" if ceiling is None else f"  (ceiling {ceiling})"
        print(f"{lines[path]:7d}  {path}{note}")
        if ceiling is not None and lines[path] > ceiling:
            over.append(path)
    for path in over:
        print(
            f"{path}: {lines[path]} lines, ceiling {ceilings[path]} "
            f"(tools/loc_ceiling.json)",
            file=sys.stderr,
        )
    return 1 if over else 0


if __name__ == "__main__":
    raise SystemExit(main())
