"""Setup shim for environments without the `wheel` package.

All package metadata and dependencies live in `pyproject.toml`.
`pip install -e ".[test]"` builds an editable wheel (PEP 660); on
offline machines without `wheel` installed, `python setup.py develop`
provides the equivalent editable install through this shim.
"""

from setuptools import setup

setup()
