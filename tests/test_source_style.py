"""Source-wide style rules, checked over the package, the tests and the demos."""

import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PATTERNS = ("src/dpsk/*.py", "tests/*.py", "demos/*.py")
MAX_COLUMNS = 99


def test_lines_fit_in_99_columns():
    sources = sorted(path for pattern in PATTERNS for path in ROOT.glob(pattern))
    assert {path.parent.name for path in sources} == {"dpsk", "tests", "demos"}
    long = [
        f"{path.relative_to(ROOT)}:{number}"
        for path in sources
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if len(line) > MAX_COLUMNS
    ]
    assert long == []
