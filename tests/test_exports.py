import importlib
import pkgutil

import nonresidue


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
