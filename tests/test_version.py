"""The package's version is written twice, in ``pyproject.toml`` and as
``hsrsched.__version__``; the two must agree."""

import os
import re

import hsrsched

PYPROJECT = os.path.join(os.path.dirname(__file__), os.pardir, "pyproject.toml")


def test_version_matches_pyproject():
    with open(PYPROJECT) as fh:
        text = fh.read()
    # a regex, not tomllib: the package supports Python 3.10
    project = re.search(r"^\[project\]\n(.*?)(?=^\[)", text, re.M | re.S)
    version = re.search(r'^version = "([^"]+)"$', project.group(1), re.M)
    assert version, "pyproject.toml has no [project] version"
    assert hsrsched.__version__ == version.group(1)
