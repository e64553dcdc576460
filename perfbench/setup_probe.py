"""Time the program's set-up in a fresh interpreter; print seconds.

Set-up of a batch user: import the package, build the engine stack
``route_batch`` builds (PatLabor behind a translation cache, the engine
the batch workloads route on), and load the shipped lookup table. Interpreter start-up itself is not counted.
"""

import sys
import time
from pathlib import Path

t0 = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.engine import EngineSpec, build_engine  # noqa: E402
from repro.lut.default import default_table  # noqa: E402

build_engine(EngineSpec(router="patlabor", cache="translation"))
default_table()
print(time.perf_counter() - t0)
