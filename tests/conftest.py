"""Every interpreter a test starts imports gtvmin from the tree the tests
import it from, installed or not."""

import os
from pathlib import Path

import gtvmin

_SRC = str(Path(gtvmin.__file__).resolve().parents[1])
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
