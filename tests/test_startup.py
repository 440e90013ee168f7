"""The package loads numpy only when a sieve scan or a series pass runs.

Each check that depends on what is already imported runs in a fresh
interpreter on this same copy of the package."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import rootdensity


def _fresh(code: str) -> str:
    env = {**os.environ, "PYTHONPATH": str(Path(rootdensity.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    return out.stdout.strip()


def test_import_leaves_out_numpy():
    assert _fresh("import sys, rootdensity; print('numpy' in sys.modules)") == "False"


def test_density_and_classify_leave_out_numpy():
    code = (
        "import contextlib, io, sys\n"
        "from rootdensity.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main(['density', '-g', '2', '-f', '28']),\n"
        "             main(['classify', '-g', '2', '--fmax', '12'])]\n"
        "print(codes, 'numpy' in sys.modules)"
    )
    assert _fresh(code) == "[0, 0] False"


def test_scan_is_the_function_after_the_submodule_loads_first():
    code = (
        "import sys\n"
        "from rootdensity.scan import ScanConfig\n"
        "import rootdensity\n"
        "print(rootdensity.scan is sys.modules['rootdensity.scan'].scan)"
    )
    assert _fresh(code) == "True"


def test_dir_lists_every_public_name_before_any_loads():
    code = "import rootdensity; print(set(rootdensity.__all__) <= set(dir(rootdensity)))"
    assert _fresh(code) == "True"


def test_lazy_names_are_the_submodules_all():
    modules = {m: importlib.import_module(f"rootdensity.{m}") for m in ("scan", "series")}
    assert list(rootdensity._LAZY) == modules["scan"].__all__ + modules["series"].__all__
    assert all(name in modules[m].__all__ for name, m in rootdensity._LAZY.items())
