"""The README's library quick start runs as written."""

import os
import re

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def test_readme_quick_start_runs(capsys):
    with open(README) as fh:
        block = re.search(r"^## Library quick start\n\n```python\n(.*?)^```", fh.read(), re.M | re.S)
    assert block, "README.md has no python block under 'Library quick start'"
    exec(compile(block.group(1), "README.md (Library quick start)", "exec"), {})
    assert "scheduler = dcsa" in capsys.readouterr().out
