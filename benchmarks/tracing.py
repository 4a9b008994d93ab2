"""Per-layer timing: wrap public package functions where their callers look them up.

``from .x import f`` copies the binding, so a function is patched on every
``diracboost`` module that holds it, not only where it is defined.  Spans are
aggregated as they close: for each wrapped function, the call count, busy
time (entry to exit) and self time (busy minus the wrapped calls it made).
Nothing under ``src/`` is changed; the patches are undone on exit.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
from time import perf_counter

#: Layer metric prefix -> dotted path of the wrapped function.
TRACED = (
    "cli.build_config",
    "sweep.run_sweep",
    "sweep.scenario_density",
    "sweep.emit",
    "states.boost_two_particle",
    "kinematics.bispinor_boost",
    "kinematics.BoostSpec.from_polar_angle",
    "measures.global_entanglement",
    "measures.spin_spin_reduced",
    "measures.negativity",
    "measures.single_qubit_reductions",
    "measures.bloch_vector",
    "measures.analytic_boosted_bloch",
    "tensor.partial_trace",
    "tensor.partial_transpose",
    "tensor.hermitian_eigenvalues",
    "tensor.kron",
)


class Tracer:
    """Aggregated spans: name -> [calls, busy seconds, self seconds]."""

    def __init__(self) -> None:
        self.stats: dict[str, list] = {name: [0, 0.0, 0.0] for name in TRACED}
        self._child_time: list[float] = []

    def wrap(self, name: str, fn):
        stats = self.stats[name]
        child_time = self._child_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            child_time.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                busy = perf_counter() - start
                inner = child_time.pop()
                stats[0] += 1
                stats[1] += busy
                stats[2] += busy - inner
                if child_time:
                    child_time[-1] += busy

        return traced

    @contextlib.contextmanager
    def patched(self):
        """Install the wrappers on every diracboost module binding; undo on exit."""
        undo = []
        try:
            for name in TRACED:
                module_name, _, attr = name.partition(".")
                module = importlib.import_module(f"diracboost.{module_name}")
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[meth]
                    setattr(cls, meth, classmethod(self.wrap(name, original.__func__)))
                    undo.append((cls, meth, original))
                    continue
                original = getattr(module, attr)
                wrapper = self.wrap(name, original)
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name.startswith("diracboost.") and getattr(mod, attr, None) is original:
                        setattr(mod, attr, wrapper)
                        undo.append((mod, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)
