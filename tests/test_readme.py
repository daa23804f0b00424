"""The README's list of public lower-level pieces stays in step with the
package's exports."""

import re
from pathlib import Path

import crwsnsim

README = Path(__file__).resolve().parent.parent / "README.md"


def library_pieces():
    """Backticked names in the "lower-level pieces" sentence, with the
    parenthetical that lists ``Nodes``' fields left out."""
    text = " ".join(README.read_text(encoding="utf-8").split())
    match = re.search(r"The lower-level pieces are all public and individually tested:(.*?)\.\s",
                      text)
    assert match, "README lost its list of lower-level pieces"
    return re.findall(r"`(\w+)`", re.sub(r"\([^)]*\)", "", match.group(1)))


def test_readme_library_pieces_are_exported():
    names = library_pieces()
    assert len(names) >= 8
    for name in names:
        assert name in crwsnsim.__all__, f"README names {name!r}, which is not exported"
        assert hasattr(crwsnsim, name), f"crwsnsim exports {name!r} but does not define it"
