"""perfbench's tracer wraps library functions by name; a rename or deletion
in `src/` that it still names breaks the benchmark, so it is caught here."""

import importlib
import sys
from pathlib import Path

import ckltl.semantics

PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")


def _bindings():
    """Every ckltl module attribute and the two wrapped EvalContext methods."""
    mods = {k: dict(vars(m)) for k, m in sys.modules.items()
            if m is not None and (k == "ckltl" or k.startswith("ckltl."))}
    cls = ckltl.semantics.EvalContext
    return mods, (cls.value, cls.similarity_holds)


def test_tracer_installs_and_restores_every_wrapped_name():
    sys.path.insert(0, PERFBENCH)
    try:
        from tracer import FUNCTIONS, SELF_RECURSIVE, Tracer
    finally:
        sys.path.remove(PERFBENCH)
    for _, modname, _ in FUNCTIONS:  # perfbench imports them before installing
        importlib.import_module(modname)
    before = _bindings()
    t = Tracer()
    try:
        t.install()
        for _, modname, attr in FUNCTIONS:
            bound = getattr(sys.modules[modname], attr)
            assert hasattr(bound, "__wrapped__") != (attr in SELF_RECURSIVE), attr
        cls = ckltl.semantics.EvalContext
        assert cls.value.__wrapped__ is before[1][0]
        assert cls.similarity_holds.__wrapped__ is before[1][1]
    finally:
        t.uninstall()
    after = _bindings()
    assert after[1] == before[1]
    for name, attrs in before[0].items():
        changed = [k for k, v in attrs.items() if after[0][name].get(k) is not v]
        assert not changed, (name, changed)
