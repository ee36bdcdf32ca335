"""Let the suite run from a bare checkout: src/ goes on sys.path, and on
PYTHONPATH for the tests that start ``python -m cylmaps`` in a subprocess."""

import os
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent / "src")
sys.path.insert(0, SRC)
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
