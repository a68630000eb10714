"""The README's python examples import only names the package exports."""

import pathlib
import re

import pytest

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"

PYTHON_BLOCK = re.compile(r"^```python\n(.*?)^```", re.MULTILINE | re.DOTALL)


def readme_imports():
    """Every ``from repro… import …`` line of the README's python blocks."""
    lines = []
    for block in PYTHON_BLOCK.findall(README.read_text()):
        lines.extend(
            line.strip()
            for line in block.splitlines()
            if re.match(r"\s*from repro(\.\w+)* import ", line)
        )
    return lines


def test_the_readme_has_imports_to_check():
    assert any("repro.storage" in line for line in readme_imports())


@pytest.mark.parametrize("line", readme_imports())
def test_readme_import_runs(line):
    exec(line, {})
