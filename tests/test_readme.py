"""The README's list of public lower-level pieces stays in step with the
package's exports, its config-file table with the parser's keys, and its
library example runs."""

import re
from dataclasses import fields
from pathlib import Path

import crwsnsim
from crwsnsim import EnergyParams, ScenarioConfig

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


def test_readme_config_table_names_every_key():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Config files"):text.index("## Library use")]
    rows = [line for line in section.splitlines() if line.startswith("| `")]
    keys = [key for row in rows for key in re.findall(r"`(\w+)`", row.split("|")[1])]
    names = [item.name for cls in (ScenarioConfig, EnergyParams) for item in fields(cls)]
    assert sorted(keys) == sorted(name for name in names if name != "energy")


def test_readme_library_example_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library use"):]
    match = re.search(r"```python\n(.*?)```", section, re.S)
    assert match, "README lost its library example"
    exec(compile(match.group(1), "README.md", "exec"), {})
    rows = capsys.readouterr().out.splitlines()
    assert len(rows) == 1501  # the summary line, then one line per round
