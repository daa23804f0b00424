"""Every source and test file parses as the oldest Python that pyproject.toml
accepts, so syntax of a later release fails here rather than on install."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(path for top in ("src", "tests") for path in (ROOT / top).rglob("*.py"))


def test_the_floor_is_python_3_10():
    assert 'requires-python = ">=3.10"' in (ROOT / "pyproject.toml").read_text()


def test_later_syntax_is_refused():
    with pytest.raises(SyntaxError):  # exception groups came in 3.11
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))


@pytest.mark.parametrize("path", FILES, ids=lambda path: str(path.relative_to(ROOT)))
def test_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
