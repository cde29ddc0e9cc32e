"""The environment of the tests' child processes."""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def child_env(*paths: Path, **extra: str) -> dict[str, str]:
    """A stripped environment: ``PATH``, ``PYTHONPATH`` of ``src/`` and
    ``paths``, and ``PYTHONDONTWRITEBYTECODE`` when this process writes no
    byte code (the variable or ``-B``), so that a test run that leaves no
    ``__pycache__`` in the checkout has children that leave none either;
    ``extra`` adds or overrides variables."""
    env = {"PYTHONPATH": os.pathsep.join(map(str, (ROOT / "src", *paths))),
           "PATH": "/usr/bin:/bin"}
    if sys.dont_write_bytecode:
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    return {**env, **extra}
