"""Spans and call counts for the traced benchmark run.

Everything here acts from outside the library: public functions of the
``cstar_mixing`` modules are wrapped by replacing the module attributes
that name them, and the numpy/scipy linear-algebra entry points the library
calls are wrapped the same way to count calls. Spans are kept in memory and
written once, when the run ends. An untraced run never imports this module.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import sys
import threading
import time
import weakref

# The public functions timed as layers, by module of cstar_mixing. The
# algebra, config and errors modules are not timed as layers of their own.
LAYER_FUNCTIONS = {
    "channel": ("random_unital_cp", "canonical_invariant_state",
                "invariant_states", "tensor"),
    "spectral": ("spectrum", "power_limit", "range_of_defect"),
    "mixing": ("check_ergodic", "check_strictly_ergodic",
               "check_weakly_mixing", "check_strictly_weak_mixing",
               "check_exact", "check_phi_ergodic_equiv",
               "check_peripheral_obstruction", "classify", "verify_theorem"),
    "sequences": ("check_kvn_equivalence",),
    "serialize": ("parse_system", "report_to_dict"),
    "cli": ("main",),
}

# Library entry points at the boundary to numpy/scipy, counted per call.
LINALG_FUNCTIONS = (
    ("numpy.linalg", "eigvals"),
    ("numpy.linalg", "eig"),
    ("scipy.linalg", "schur"),
    ("numpy.linalg", "svd"),
    ("numpy.linalg", "eigh"),
    ("scipy.linalg", "solve_sylvester"),
)


class Tracer:
    """Collects spans (name, start, end, parent, op) and linear-algebra
    call counts. Safe to use from the library's trial threads."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counts = {name: 0 for _, name in LINALG_FUNCTIONS}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._op: tuple[str, int] | None = None   # (op id, its span id)
        self._tensor_ops: weakref.WeakSet = weakref.WeakSet()
        self._patched: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _begin(self, name: str, attrs: dict | None) -> dict:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:   # a library worker thread: its caller is the running op
            parent = self._op[1] if self._op else None
        with self._lock:
            span_id = next(self._ids)
        span = {"id": span_id, "name": name, "parent": parent,
                "op": self._op[0] if self._op else None,
                "start": time.perf_counter(), "end": None}
        if attrs:
            span.update(attrs)
        stack.append(span_id)
        return span

    def _end(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    @contextlib.contextmanager
    def op(self, op_id: str, label: str):
        """One benchmark operation: spans recorded while it is open, in any
        thread, carry its id, and its span gets the call counts it made."""
        span = self._begin("op", {"label": label})
        span["op"] = op_id
        self._op = (op_id, span["id"])
        before = self.snapshot()
        try:
            yield
        finally:
            after = self.snapshot()
            span["counts"] = {k: after[k] - before[k] for k in after}
            self._end(span)
            self._op = None

    def snapshot(self) -> dict:
        with self._lock:
            return dict(self.counts)

    # -- wrapping ---------------------------------------------------------

    def _layer_wrapper(self, qualname: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name, attrs = qualname, None
            if qualname == "spectral.spectrum":
                op = args[0] if args else kwargs["op"]
                tensor = op in tracer._tensor_ops
                name = "spectral.spectrum_tensor" if tensor else name
                attrs = {"dim": op.dim}
            elif qualname == "mixing.verify_theorem":
                attrs = {"theorem": args[0] if args else kwargs["name"],
                         "trials": args[2] if len(args) > 2
                         else kwargs["trials"]}
            span = tracer._begin(name, attrs)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._end(span)
            if qualname == "channel.tensor":
                tracer._tensor_ops.add(out)
            return out

        return wrapper

    def _count_wrapper(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer._lock:
                tracer.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch_everywhere(self, original, wrapper, modules) -> None:
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._patched.append((mod, attr, original))

    def install(self) -> "Tracer":
        """Wrap every layer function in each cstar_mixing module that names
        it (the package root re-exports most of them), and the counted
        linear-algebra functions on their numpy/scipy modules."""
        for short in LAYER_FUNCTIONS:
            importlib.import_module(f"cstar_mixing.{short}")
        ours = [m for n, m in sys.modules.items()
                if n == "cstar_mixing" or n.startswith("cstar_mixing.")]
        for short, names in LAYER_FUNCTIONS.items():
            mod = sys.modules[f"cstar_mixing.{short}"]
            for name in names:
                original = getattr(mod, name)
                self._patch_everywhere(
                    original, self._layer_wrapper(f"{short}.{name}", original),
                    ours)
        for modname, name in LINALG_FUNCTIONS:
            mod = importlib.import_module(modname)
            original = getattr(mod, name)
            self._patch_everywhere(original,
                                   self._count_wrapper(name, original), [mod])
        return self

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()
