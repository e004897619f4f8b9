"""The benchmark tracer's layer tables name attributes that exist.

``perfbench/tracer.py`` wraps functions and methods by rebinding them by
name, so a rename or a removed import in the package would break only the
traced benchmark pass.  Oracle: each name in its ``FUNCTIONS`` and
``METHODS`` tables is looked up in the package.  The tracer module is
loaded by path and only its tables are read; nothing is rebound.
"""

import importlib
import importlib.util
from pathlib import Path

_TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_tables():
    spec = importlib.util.spec_from_file_location("perfbench_tracer_tables", _TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.FUNCTIONS, module.METHODS


def test_traced_names_resolve():
    functions, methods = _tracer_tables()
    assert functions and methods
    missing = [
        f"{mod}.{attr}" for mod, attr, _layer in functions
        if not callable(getattr(importlib.import_module(mod), attr, None))
    ]
    missing += [
        f"{mod}.{cls}.{attr}" for mod, cls, attr, _layer in methods
        if not callable(getattr(getattr(importlib.import_module(mod), cls, None), attr, None))
    ]
    assert missing == []
