from pathlib import Path

import dmcensus

MAX_LINE = 100


def test_package_lines_fit_the_line_length():
    long_lines = [
        f"{path.name}:{number}: {len(line)} characters"
        for path in sorted(Path(dmcensus.__file__).parent.glob("*.py"))
        for number, line in enumerate(path.read_text("utf-8").splitlines(), start=1)
        if len(line) > MAX_LINE
    ]
    assert long_lines == []
