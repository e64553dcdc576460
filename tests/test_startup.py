"""Start-up stays on the route path: what set-up imports, and the
shipped table file.

Set-up (``import repro.engine``, ``build_engine``, ``default_table()``)
runs in every fresh process: each ``repro route`` call, each daemon
start and each spawned pool worker. These tests pin that it loads
neither the evaluation stack nor the table generator, that the lazily
resolved re-exports of :mod:`repro.io`, :mod:`repro.lut` and
:mod:`repro.obs` are the objects their modules define, and that the
shipped table file is exactly what :func:`repro.io.lut_io.save_lut`
writes for the table it holds.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.io import lut_io
from repro.lut.default import DATA_FILE

ROOT = Path(__file__).resolve().parent.parent

#: Modules no route set-up may import: the evaluation stack behind
#: ``repro.io.results_io``, the table generator, and the exporters,
#: ledger and report that run only after routing.
OFF_ROUTE = (
    "repro.analysis",
    "repro.baselines",
    "repro.congestion",
    "repro.eval",
    "repro.io.results_io",
    "repro.lut.generator",
    "repro.lut.symbolic",
    "repro.obs.export",
    "repro.obs.ledger",
    "repro.obs.report",
)

#: Batch set-up (what ``perfbench/setup_probe.py`` times), then the
#: daemon's table load as ``repro.serve.pool.WorkerPool`` does it.
SETUP_SCRIPT = """
import json, os, sys
from repro.engine import SERVING_ENGINE, EngineSpec, build_engine
from repro.lut.default import default_table, load_table
build_engine(EngineSpec(router="patlabor", cache="translation"))
default_table()
load_table(os.path.abspath(SERVING_ENGINE.lut))
print(json.dumps(sorted(sys.modules)))
"""

#: ``repro route`` on one degree-6 net, in process.
ROUTE_SCRIPT = """
import contextlib, io, json, sys
from repro.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["route", "--degree", "6"]) == 0
print(json.dumps(sorted(sys.modules)))
"""

#: Each package whose ``__all__`` must resolve to its defining modules'
#: objects: the three that resolve names lazily and ``repro.core``,
#: which must stay eager (its ``pareto_dw`` name shadows a submodule).
PACKAGES = ("repro.io", "repro.lut", "repro.obs", "repro.core")

#: Resolve every ``__all__`` name of a package before and after all of
#: its submodules are imported; print what each one is.
REEXPORT_SCRIPT = """
import importlib, inspect, json, pkgutil, sys
pkg = importlib.import_module(sys.argv[1])

def resolve():
    out = {}
    for name in pkg.__all__:
        obj = getattr(pkg, name)
        home = None
        defined = False
        if inspect.isclass(obj) or inspect.isfunction(obj):
            home = obj.__module__
            defined = getattr(sys.modules.get(home), name, None) is obj
        out[name] = [id(obj), inspect.ismodule(obj), home, defined]
    return out

before = resolve()
for info in pkgutil.walk_packages(pkg.__path__, pkg.__name__ + "."):
    importlib.import_module(info.name)
print(json.dumps({"before": before, "after": resolve()}))
"""


def _run(script: str, *args: str):
    """Run ``script`` in a fresh interpreter; its last stdout line, as JSON."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-c", script, *args],
        check=True, capture_output=True, text=True, cwd=str(ROOT), env=env,
        timeout=120,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def _off_route(modules):
    return sorted(
        m for m in modules
        if any(m == bad or m.startswith(bad + ".") for bad in OFF_ROUTE)
    )


class TestImportGraph:
    def test_setup_loads_only_the_route_path(self):
        modules = _run(SETUP_SCRIPT)
        assert "repro.io.lut_io" in modules  # the table really was loaded
        assert _off_route(modules) == []

    def test_cli_route_loads_only_the_route_path(self):
        modules = _run(ROUTE_SCRIPT)
        assert "repro.cli" in modules
        assert _off_route(modules) == []


class TestReExports:
    @pytest.mark.parametrize("package", PACKAGES)
    def test_all_names_are_their_defining_objects(self, package):
        report = _run(REEXPORT_SCRIPT, package)
        for name, (_, is_module, home, defined) in report["before"].items():
            assert not is_module, f"{package}.{name} resolved to a module"
            if home is not None and home.startswith(package + "."):
                assert defined, f"{package}.{name} is not {home}.{name}"
        # Importing every submodule rebinds nothing.
        assert report["after"] == report["before"]

    @pytest.mark.parametrize("package", ["repro.io", "repro.lut", "repro.obs"])
    def test_unknown_name_raises_attribute_error(self, package):
        pkg = importlib.import_module(package)
        with pytest.raises(AttributeError, match="no_such_name"):
            pkg.no_such_name  # noqa: B018

    def test_star_import_binds_every_name(self):
        namespace: dict = {}
        exec("from repro.lut import *", namespace)  # noqa: S102
        import repro.lut

        for name in repro.lut.__all__:
            assert namespace[name] is getattr(repro.lut, name)


class TestShippedTableFile:
    def test_shipped_table_round_trips_byte_for_byte(self, tmp_path):
        out = tmp_path / "lut.npz"
        lut_io.save_lut(lut_io.load_lut(DATA_FILE), out)
        assert out.read_bytes() == DATA_FILE.read_bytes()
