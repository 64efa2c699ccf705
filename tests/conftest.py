import os
import sys
from pathlib import Path

# make tests/ importable so suites can share the oracle helpers
sys.path.insert(0, str(Path(__file__).parent))

# pytest puts src/ on sys.path (pyproject.toml); the CLI tests start
# `python -m copq.cli` in a subprocess, which needs it on PYTHONPATH too
_SRC = str(Path(__file__).parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
