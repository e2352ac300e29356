"""The package's surface.  Its version is written twice, in ``pyproject.toml``
and as ``hsrsched.__version__``, and the two must agree; every name it exports
in ``__all__`` must resolve."""

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


def test_every_exported_name_resolves():
    assert len(set(hsrsched.__all__)) == len(hsrsched.__all__)
    missing = [name for name in hsrsched.__all__ if not hasattr(hsrsched, name)]
    assert not missing
    # a stale entry makes the star import raise AttributeError
    namespace = {}
    exec("from hsrsched import *", namespace)
    assert set(hsrsched.__all__) <= namespace.keys()
