"""Layer trace: spans around the public functions of each netcert module.

``LayerTrace.install()`` replaces every traced function in every netcert
module namespace that holds it, so calls made through a ``from .x import f``
binding (``certify.py`` imports ``canonical_form`` that way) are caught too.
A span records name, start, end, parent span and request id; spans stay in
compact arrays until the run ends.  Self time is a span's duration minus the
durations of its direct children (calls are sequential, so children never
overlap).  The enumeration generator is timed per ``next()``.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# (module, function) pairs wrapped by the trace.  ``cli`` and ``errors`` are
# thin and not traced.
TRACED = (
    ("multigraph", "enumerate_connected_multigraphs"),
    ("multigraph", "canonical_form"),
    ("multigraph", "partition_neighborhoods"),
    ("multigraph", "local_complement"),
    ("multigraph", "find_angle_or_triangle"),
    ("multigraph", "is_connected"),
    ("certify", "certify_any"),
    ("certify", "verify_obs3"),
    ("stabilizer", "word"),
    ("pauli", "multiply"),
    ("pauli", "commutation_phase"),
    ("pauli", "support"),
    ("pauli", "relabel"),
    ("pauli", "restrict"),
    ("network", "marginal_chain_checks"),
    ("oracle", "dense"),
    ("oracle", "common_plus_one_eigenvector"),
    ("ghzbound", "ghz_numeric_bound"),
    ("ghzbound", "ghz_prime_bound"),
)
_GENERATORS = {"enumerate_connected_multigraphs"}


class LayerTrace:
    """In-memory span recorder; one per traced process."""

    def __init__(self) -> None:
        self.names = [f"{mod}.{fn}" for mod, fn in TRACED]
        self.request = -1
        self._name = array("i")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("q")
        self._req = array("q")
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.classes = 0
        self.certificates = 0
        self.lc_certificates = 0
        self.ghz_cells = 0
        self.ghz_bisections = 0

    # -- recording ---------------------------------------------------------

    def _open(self, name_id: int) -> int:
        idx = len(self._start)
        self._name.append(name_id)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._req.append(self.request)
        self._end.append(0.0)
        self._stack.append(idx)
        self._start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self._end[idx] = time.perf_counter()
        self._stack.pop()

    def _observe(self, fn_name: str, result: object) -> None:
        if fn_name == "certify_any" and hasattr(result, "lc_path"):
            self.certificates += 1
            self.lc_certificates += bool(result.lc_path)
        elif fn_name == "ghz_numeric_bound":
            self.ghz_cells += sum(cells for _, _, cells in result.solver_trace)
            self.ghz_bisections += len(result.solver_trace) - 1

    def _wrap(self, name_id: int, fn_name: str, fn):
        trace = self
        if fn_name in _GENERATORS:

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    idx = trace._open(name_id)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        trace._close(idx)
                    trace.classes += 1
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = trace._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                trace._close(idx)
            trace._observe(fn_name, result)
            return result

        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function wherever a netcert module binds it."""
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "netcert" or name.startswith("netcert."))
        ]
        for name_id, (mod_name, fn_name) in enumerate(TRACED):
            original = getattr(sys.modules[f"netcert.{mod_name}"], fn_name)
            wrapper = self._wrap(name_id, fn_name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- results -----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self._name, dtype=np.int32),
            "start": np.frombuffer(self._start, dtype=np.float64),
            "end": np.frombuffer(self._end, dtype=np.float64),
            "parent": np.frombuffer(self._parent, dtype=np.int64),
            "request": np.frombuffer(self._req, dtype=np.int64),
        }

    def per_function(self) -> dict[str, tuple[int, float]]:
        """``module.function`` -> (calls, self seconds)."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        nested = a["parent"] >= 0
        child = np.bincount(a["parent"][nested], weights=dur[nested], minlength=len(dur))
        own = dur - child
        k = len(self.names)
        calls = np.bincount(a["name"], minlength=k)
        self_s = np.bincount(a["name"], weights=own, minlength=k)
        return {n: (int(calls[i]), float(self_s[i])) for i, n in enumerate(self.names)}

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())
