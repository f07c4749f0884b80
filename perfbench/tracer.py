"""Spans around the public functions of each qcenters layer.

The tracer rebinds every module and class attribute that holds a wrapped
function (for example both `qcenters.centers.center_tower` and
`qcenters.report.center_tower`) to a wrapper that records a span: name,
start, end, parent span and operation id.  Spans are kept in flat arrays in
memory, written out at the end of the pass, and turned into per-function
call counts and self times (span duration minus the time its child spans
cover) after the timed work.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import sys
from array import array
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns
from typing import Any, Callable, Optional

# Wrapped functions as "<module>.<qualified name>" under the qcenters package.
TARGETS = [
    "rootdata.build_root_datum",
    "qparam.make_param",
    "qparam.QParam.eval",
    "qparam.QParam.l_of",
    "qparam.QParam.rad",
    "qparam.classify",
    "intlat.hnf",
    "intlat.smith_normal_form",
    "intlat.congruence_kernel",
    "intlat.intersect",
    "intlat.index",
    "intlat.quotient",
    "centers.center_tower",
    "centers.x_star",
    "centers.dual_datum",
    "centers.verdicts",
    "kappa.build_kappa",
    "kappa.radicals",
    "kappa.extend_psi",
    "invariants.dim_report",
    "twistcheck.run_all",
    "report.build_report",
    "report.to_json",
    "rmatrix.term_table",
    "rmatrix.support_size",
    "rmatrix.coeff",
    "rmatrix.pairing_diag",
    "cyclo.CycloNum.__mul__",
    "cyclo.CycloNum.inverse",
    "cyclo.CycloNum.power",
    "cyclo.cyclotomic_poly",
    "cyclo.qfact",
    "cyclo.root_of_unity",
    "angles.AngleQZ.of",
]
# A preset's `check` is a per-instance callable field, so the benchmark
# records its span where it calls it instead of rebinding an attribute.
CALL_SITE_TARGETS = ["presets.PresetCase.check"]
LAYER_FUNCTIONS = TARGETS + CALL_SITE_TARGETS
OP_SPAN = "op"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = [OP_SPAN]
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.name = array("q")
        self.op_labels: list[str] = []
        self._stack: list[int] = []
        self._op_id = -1  # outside an operation nothing is recorded
        self._restore: list[tuple[Any, str, Any]] = []
        self.supports_materialized = 0
        self.terms_returned = 0

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op_id)
        self.name.append(name_id)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter_ns()
        self._stack.pop()

    def wrap(self, name: str, fn: Callable, on_result: Optional[Callable[[Any], None]] = None) -> Callable:
        self.names.append(name)
        name_id = len(self.names) - 1

        def traced(*args, **kwargs):
            if self._op_id < 0:
                return fn(*args, **kwargs)
            idx = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if on_result is not None:
                on_result(result)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = fn.__doc__
        return traced

    def call(self, name: str, fn: Callable, *args):
        """Call fn inside a span named `name` (for call-site targets)."""
        if self._op_id < 0:
            return fn(*args)
        if name not in self.names:
            self.names.append(name)
        idx = self._open(self.names.index(name))
        try:
            return fn(*args)
        finally:
            self._close(idx)

    @contextmanager
    def operation(self, label: str):
        """Root span of one operation; spans inside it carry its id."""
        self.op_labels.append(label)
        self._op_id = len(self.op_labels) - 1
        self._stack.clear()
        idx = self._open(0)
        try:
            yield
        finally:
            self.end[idx] = perf_counter_ns()
            self._stack.clear()
            self._op_id = -1

    def install(self) -> None:
        """Rebind every attribute of the loaded qcenters modules, and of their
        classes, that holds a target function."""
        modules = [m for n, m in list(sys.modules.items()) if n == "qcenters" or n.startswith("qcenters.")]
        classes = {id(v): v for m in modules for v in vars(m).values()
                   if isinstance(v, type) and v.__module__.startswith("qcenters")}
        for target in TARGETS:
            modname, *path = target.split(".")
            owner: Any = importlib.import_module(f"qcenters.{modname}")
            for part in path[:-1]:
                owner = getattr(owner, part)
            raw = inspect.getattr_static(owner, path[-1])
            original = raw.__func__ if isinstance(raw, staticmethod) else raw
            wrapper = self.wrap(target, original, self._result_hook(target))
            for holder in modules + list(classes.values()):
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        self._rebind(holder, attr, wrapper)
                    elif isinstance(value, staticmethod) and value.__func__ is original:
                        self._rebind(holder, attr, staticmethod(wrapper))

    def _result_hook(self, target: str) -> Optional[Callable[[Any], None]]:
        if target == "rmatrix.support_size":
            def count_supports(result) -> None:
                if result[1] is not None:
                    self.supports_materialized += len(result[1])
            return count_supports
        if target == "rmatrix.term_table":
            def count_terms(result) -> None:
                self.terms_returned += len(result)
            return count_terms
        return None

    def _rebind(self, holder: Any, attr: str, value: Any) -> None:
        self._restore.append((holder, attr, vars(holder)[attr]))
        setattr(holder, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            holder, attr, value = self._restore.pop()
            setattr(holder, attr, value)

    def self_ns(self) -> array:
        """Self time of every span: its duration minus its children's."""
        out = array("q", (e - s for s, e in zip(self.start, self.end)))
        for i, p in enumerate(self.parent):
            if p >= 0:
                out[p] -= self.end[i] - self.start[i]
        return out

    def layer_totals(self) -> dict[str, tuple[int, int]]:
        """(calls, self time in ns) per wrapped function, root spans excluded."""
        totals = {name: [0, 0] for name in LAYER_FUNCTIONS}
        for name_id, own in zip(self.name, self.self_ns()):
            if name_id:
                entry = totals[self.names[name_id]]
                entry[0] += 1
                entry[1] += own
        return {name: (calls, ns) for name, (calls, ns) in totals.items()}

    def write(self, path: Path) -> None:
        """Spans as gzip CSV: span,parent,op,name,start_ns,end_ns."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("# names " + " ".join(self.names) + "\n")
            for i, label in enumerate(self.op_labels):
                f.write(f"# op {i} {label}\n")
            f.write("span,parent,op,name,start_ns,end_ns\n")
            for i, row in enumerate(zip(self.parent, self.op, self.name, self.start, self.end)):
                f.write(f"{i},{row[0]},{row[1]},{row[2]},{row[3]},{row[4]}\n")
