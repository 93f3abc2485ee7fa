"""Packaging shim for ``pip install -e .``.

There is no ``pyproject.toml`` or ``setup.cfg``: setuptools discovers the
``repro`` package under ``src/`` and records version 0.0.0 and no
dependencies (``requirements-ci.txt`` lists them).  No console script is
installed; run the command-line interface as ``python -m repro.cli``.
"""

from setuptools import setup

setup()
