"""The README quick tour runs and prints what its comments say."""

import contextlib
import io
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_tour() -> str:
    text = README.read_text()
    return text.split("Quick tour:", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_quick_tour_outputs():
    # a print's output is its inline comment, or else the comment line after it
    block = quick_tour()
    lines = block.splitlines()
    expected = []
    for i, line in enumerate(lines):
        if line.startswith("print("):
            comment = line.partition("#")[2]
            if not comment and i + 1 < len(lines) and lines[i + 1].startswith("#"):
                comment = lines[i + 1][1:]
            expected.append(comment.strip())
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(block, {})
    assert expected and all(expected), "every print in the quick tour shows its output"
    assert out.getvalue().splitlines() == expected
