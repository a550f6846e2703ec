"""Setuptools shim.

The pinned environment ships setuptools 65.x without the ``wheel`` package,
so PEP-517 editable installs fail with ``invalid command 'bdist_wheel'``.
This shim lets ``pip install -e . --no-use-pep517`` (and plain
``pip install -e .`` on newer toolchains) work in both worlds.  It declares
no metadata: the packages come from setuptools' automatic discovery of the
``src/`` layout, and the project name reads ``UNKNOWN``.
"""

from setuptools import setup

setup()
