"""Session bootstrap for ``jobs/table.py``.

Puts the repo root and ``src`` on the driver's path, and ``src`` on
``PYTHONPATH``: the Python workers are forked by the JVM and inherit
PYTHONPATH from its environment, so it is set before the JVM launches. The
session itself is the one the tests use, :func:`conftest.build_session`.
"""
from __future__ import annotations

import os
import sys

_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
_SRC = os.path.join(_ROOT, "src")
sys.path.insert(0, _ROOT)
sys.path.insert(0, _SRC)
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH", "")) if p
)

# conftest sets PYSPARK_SUBMIT_ARGS before pyspark is imported.
from conftest import build_session  # noqa: E402,F401
