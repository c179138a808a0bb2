"""Every name a uaplab module lists in ``__all__`` is defined there."""

import importlib
import pkgutil

import uaplab


def test_every_exported_name_resolves():
    missing, modules = [], 0
    for info in pkgutil.iter_modules(uaplab.__path__):
        if info.name == "__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module(f"uaplab.{info.name}")
        names = getattr(module, "__all__", None)
        if names is None:
            continue
        modules += 1
        missing += [f"{module.__name__}.{name}" for name in names
                    if not hasattr(module, name)]
    assert modules >= 8
    assert missing == []
