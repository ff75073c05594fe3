"""README's knob tables name exactly the env vars the code reads.

Every ``REPRO_*`` name under ``src/`` must have a row in one of
README's knob tables (env in the first column), and every row must
name a variable the code still reads, so the two cannot drift.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _code_knobs() -> set[str]:
    names: set[str] = set()
    for path in (ROOT / "src").rglob("*.py"):
        names.update(re.findall(r"REPRO_[A-Z_]+", path.read_text()))
    return names


def _readme_knobs() -> set[str]:
    rows = re.findall(r"^\|\s*`(REPRO_[A-Z_]+)`\s*\|",
                      (ROOT / "README.md").read_text(), flags=re.M)
    return set(rows)


def test_readme_knob_tables_match_the_code():
    code, readme = _code_knobs(), _readme_knobs()
    assert code == readme, {"undocumented": sorted(code - readme),
                            "stale rows": sorted(readme - code)}
    assert len(code) == 2
