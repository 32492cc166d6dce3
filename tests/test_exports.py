import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import nonresidue

SRC = Path(__file__).resolve().parent.parent / "src"


def test_every_exported_name_resolves():
    # a name left in __all__ after its definition is deleted breaks
    # `from nonresidue.x import *` and misleads readers of the module
    exporting = []
    for info in pkgutil.iter_modules(nonresidue.__path__):
        mod = importlib.import_module(f"nonresidue.{info.name}")
        names = getattr(mod, "__all__", None)
        if names is None:
            continue
        exporting.append(info.name)
        assert len(set(names)) == len(names), info.name
        for name in names:
            assert getattr(mod, name, None) is not None, f"nonresidue.{info.name}.{name}"
    assert len(exporting) >= 7, exporting


# Runs in a fresh interpreter: the test session itself has scipy loaded.
_NO_SCIPY_PROBE = """
import contextlib, io, sys
import nonresidue, nonresidue.cli, nonresidue.bounds, nonresidue.search
import nonresidue.lfunctions, nonresidue.explicit_formula, nonresidue.kernels

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

assert not scipy_modules(), ("on import", scipy_modules()[:5])
for argv in (
    ["scan", "qnr", "--q", "101"],
    ["classnum", "--q", "23"],
    ["scan", "subgroup", "--q", "1000000000000037"],
    # the squared-sine constants are closed forms: line_l1 = 2 alpha and W(lambda)
    ["kernel", "fejer", "--l1", "--weighted", "1", "--prop62", "--optimize"],
):
    with contextlib.redirect_stdout(io.StringIO()):
        assert nonresidue.cli.main(argv + ["--format", "csv"]) == 0, argv
    assert not scipy_modules(), (argv, scipy_modules()[:5])
"""


def test_integer_commands_load_no_scipy():
    # scipy is imported inside the functions that integrate or evaluate
    # special functions, so the package, its integer commands and the
    # squared-sine constants start without it
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY_PROBE], env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
