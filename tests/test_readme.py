"""The README's library quick start runs as written, and its config table
names every config section and key."""

import os
import re

from hsrsched.cli import SCHEMA

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def _readme() -> str:
    with open(README) as fh:
        return fh.read()


def test_readme_quick_start_runs(capsys):
    block = re.search(r"^## Library quick start\n\n```python\n(.*?)^```", _readme(), re.M | re.S)
    assert block, "README.md has no python block under 'Library quick start'"
    exec(compile(block.group(1), "README.md (Library quick start)", "exec"), {})
    assert "scheduler = dcsa" in capsys.readouterr().out


def test_config_table_names_every_schema_key():
    section = re.search(r"^## Config format\n(.*?)(?=^## )", _readme(), re.M | re.S)
    assert section, "README.md has no '## Config format' section"
    text = section.group(1)
    for name, rows in SCHEMA.items():
        header = "[service.<id>]" if name == "service" else f"[{name}]"
        assert f"`{header}`" in text, f"README config table lacks section {header}"
        for key, *_ in rows:
            assert f"`{key}`" in text, f"README config table lacks key {key!r} of {header}"
