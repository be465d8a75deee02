"""Layer spans recorded from outside the program.

``Tracer.install`` replaces each public function listed in ``TARGETS`` on
the attribute its callers resolve: the class attribute for methods, and
every ``newstein`` module global bound to the same function object for
plain functions (``kernel_basis`` is imported into ``liealg`` and
``cohomology`` as well as defined in ``exactla``).  Calls that cross from
one module into another are therefore seen at the boundary.  Leaf
functions called millions of times, such as ``LieAlgebra.bracket_basis``,
are deliberately not wrapped.

Each call becomes a span (name, start, end, parent, run id), kept in
memory.  Times come from the benchmark's reference clock, so self times
are in the same reference seconds as ``wall_s`` and exclude the clock's
own probes.  A span's self time is its duration minus the durations of its
direct children.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import statistics
import sys
import weakref
from collections import defaultdict
from pathlib import Path

# (module, attribute path): every function whose calls and self time are
# reported as "<module>.<attribute path>.{calls,self_s}"
TARGETS = (
    ("liealg", "LieAlgebra.ad_columns"),
    ("liealg", "LieAlgebra.jacobi_check"),
    ("liealg", "LieAlgebra.centralizer"),
    ("exactla", "SparseExactMatrix.rank_exact"),
    ("exactla", "SparseExactMatrix.rank_mod_p"),
    ("exactla", "Echelon.insert"),
    ("exactla", "kernel_basis"),
    ("cohomology", "CochainComplex.d_matrix"),
    ("cohomology", "CochainComplex.d_matrix_by_domain"),
    ("cohomology", "CochainComplex.dd_violations"),
    ("cohomology", "invariant_cochains"),
    ("cohomology", "reduction_data"),
    ("cohomology", "betti"),
    ("algebras", "build_newstein"),
    ("algebras", "build_newstein2"),
    ("algebras", "build_extended"),
    ("extensions", "classify"),
    ("grouplaw", "compose"),
    ("grouplaw", "compose_extended"),
    ("grouplaw", "inverse"),
    ("grouplaw", "vector_rep"),
    ("grouplaw", "so3_rep"),
    ("grouplaw", "wigner_phase"),
    ("grouplaw", "commutator_coords"),
    ("oscillator", "hamiltonian_K"),
    ("oscillator", "spectrum"),
    ("oscillator", "evolve"),
    ("oscillator", "casimir_MN"),
    ("oscillator", "casimir_MA"),
    ("oscillator", "generator_oracle"),
    ("oscillator", "iur_apply"),
)

# iur_apply only builds a closure; the span is the returned callable's call
SPAN_NAMES = {"oscillator.iur_apply": "oscillator.iur_point"}


def span_name(module: str, attr: str) -> str:
    full = f"{module}.{attr}"
    return SPAN_NAMES.get(full, full)


def _resolve(module: str, attr: str):
    mod = importlib.import_module(f"newstein.{module}")
    owner_name, _, name = attr.rpartition(".")
    owner = getattr(mod, owner_name) if owner_name else mod
    return owner, name, owner.__dict__[name]


def _bindings(module: str, attr: str) -> list[tuple[object, str, object]]:
    """(owner, name, original) for every place callers look the target up."""
    owner, name, original = _resolve(module, attr)
    if owner is not sys.modules[f"newstein.{module}"]:
        return [(owner, name, original)]
    out = []
    for modname, mod in sorted(sys.modules.items()):
        if modname.startswith("newstein") and mod.__dict__.get(name) is original:
            out.append((mod, name, original))
    return out


def snapshot() -> list[tuple[object, str, object]]:
    """Current bindings of every target, for :func:`assert_untouched`."""
    return [b for module, attr in TARGETS for b in _bindings(module, attr)]


def assert_untouched(bindings) -> None:
    """Raise if any target is not the function object its module defined.

    ``bindings`` comes from :func:`snapshot` before any tracer exists, so an
    installed wrapper is a different object.
    """
    for owner, name, original in bindings:
        if owner.__dict__.get(name) is not original:
            raise RuntimeError(f"{getattr(owner, '__name__', owner)}.{name} is wrapped "
                               "in an untraced run")


class Tracer:
    """Records spans and counts while installed."""

    def __init__(self, now):
        self.now = now
        self.run_id = "setup"
        self.names: list[str] = []
        self.spans: list[tuple] = []
        self.calls: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.self_s: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.counts: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.distinct: dict[str, dict[str, set]] = defaultdict(lambda: defaultdict(set))
        self._stack: list[list] = []
        self._ids: dict[str, int] = {}
        self._bindings = snapshot()
        self._matrices: dict[str, weakref.WeakSet] = defaultdict(weakref.WeakSet)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        wrappers: dict[int, object] = {}
        for module, attr in TARGETS:
            name = span_name(module, attr)
            for owner, key, original in _bindings(module, attr):
                if id(original) not in wrappers:
                    wrappers[id(original)] = self._wrap(name, original)
                setattr(owner, key, wrappers[id(original)])

    def uninstall(self) -> None:
        for owner, name, original in self._bindings:
            setattr(owner, name, original)

    # -- spans -------------------------------------------------------------

    def _span(self, name: str, fn, before=None, after=None):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            parent = stack[-1][0] if stack else -1
            frame = [len(spans), 0.0]
            spans.append(None)
            stack.append(frame)
            start = self.now()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = self.now()
                stack.pop()
                duration = end - start
                spans[frame[0]] = (nid, start, end, parent, self.run_id)
                self.calls[self.run_id][name] += 1
                self.self_s[self.run_id][name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _count(self, key: str, value: float) -> None:
        self.counts[self.run_id][key] += value

    def _wrap(self, name: str, fn):
        if name == "liealg.LieAlgebra.ad_columns":
            def before(args):
                self.distinct[self.run_id]["ad_columns"].add((id(args[0]), args[1]))
            return self._span(name, fn, before=before)
        if name.startswith("exactla.SparseExactMatrix.rank_"):
            modular = name.endswith("rank_mod_p")

            def before(args):
                mat = args[0]
                self._count("exactla.rank.rows", len(mat.rows))
                self._count("exactla.rank.nnz", mat.nnz())
                if modular and mat not in self._matrices[self.run_id]:
                    self._matrices[self.run_id].add(mat)
                    self._count("exactla.rank_mod_p.distinct_matrices", 1)
            return self._span(name, fn, before=before)
        if name.startswith("cohomology.CochainComplex.d_matrix"):
            def after(args, result):
                self._count("cohomology.d_matrix.nnz_out", result.nnz())
            return self._span(name, fn, after=after)
        if name == "oscillator.hamiltonian_K":
            def before(args):
                params, basis = args
                self.distinct[self.run_id]["hamiltonian_K"].add((params, basis.cutoff))
                key = "oscillator.matrix_dim"
                self.counts[self.run_id][key] = max(self.counts[self.run_id][key], basis.dim)
            return self._span(name, fn, before=before)
        if name == "oscillator.iur_point":
            def iur_apply(*args, **kwargs):
                return self._span(name, fn(*args, **kwargs))
            return functools.wraps(fn)(iur_apply)
        return self._span(name, fn)

    def span_cost(self) -> float:
        """Reference seconds one wrapper adds to a call, timed on a no-op.

        Counting hooks (such as ``nnz`` before a rank) are not included.
        """
        probe = Tracer(self.now)

        def noop():
            return None

        wrapped = probe._span("noop", noop)
        costs = []
        for _ in range(5):
            t0 = self.now()
            for _ in range(2000):
                noop()
            t1 = self.now()
            for _ in range(2000):
                wrapped()
            t2 = self.now()
            costs.append(((t2 - t1) - (t1 - t0)) / 2000)
        return statistics.median(costs)

    # -- results -----------------------------------------------------------

    def metrics(self, runs: list) -> dict[str, float]:
        """Per-layer metrics averaged over the given traced runs, with the
        tracing overhead per pass.

        Construction spans recorded during set-up are added once, so the
        ``algebras`` constructors report what one set-up costs.
        """
        out: dict[str, float] = {}
        n = max(1, len(runs))

        def mean(values) -> float:
            return sum(values) / n

        def ratio(calls_of: str, base) -> float:
            # calls per distinct input, averaged over runs that made any
            vals = [self.calls[r][calls_of] / base(r) for r in runs if base(r)]
            return sum(vals) / len(vals) if vals else 0.0

        for module, attr in TARGETS:
            name = span_name(module, attr)
            out[f"{name}.calls"] = mean(self.calls[r][name] for r in runs) + self.calls["setup"][name]
            out[f"{name}.self_s"] = (mean(self.self_s[r][name] for r in runs)
                                     + self.self_s["setup"][name])
        out["liealg.ad_columns.calls_per_distinct"] = ratio(
            "liealg.LieAlgebra.ad_columns", lambda r: len(self.distinct[r]["ad_columns"]))
        out["exactla.rank.rows"] = mean(self.counts[r]["exactla.rank.rows"] for r in runs)
        out["exactla.rank.nnz"] = mean(self.counts[r]["exactla.rank.nnz"] for r in runs)
        out["exactla.rank_mod_p.calls_per_matrix"] = ratio(
            "exactla.SparseExactMatrix.rank_mod_p",
            lambda r: self.counts[r]["exactla.rank_mod_p.distinct_matrices"])
        out["cohomology.d_matrix.nnz_out"] = mean(
            self.counts[r]["cohomology.d_matrix.nnz_out"] for r in runs)
        out["oscillator.matrix_dim"] = max(
            (self.counts[r]["oscillator.matrix_dim"] for r in runs), default=0.0)
        out["oscillator.hamiltonian_K.calls_per_distinct"] = ratio(
            "oscillator.hamiltonian_K", lambda r: len(self.distinct[r]["hamiltonian_K"]))
        # spans per pass times the cost of one wrapper: the difference of
        # traced and untraced passes is far below their pass-to-pass spread
        out["trace.overhead_s"] = (mean(sum(self.calls[r].values()) for r in runs)
                                   * self.span_cost())
        return out

    def write_spans(self, path: Path) -> int:
        """Write every span as CSV (name,start,end,parent,run); returns the count."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name,start,end,parent,run\n")
            for span in self.spans:
                if span is None:
                    continue
                nid, start, end, parent, run = span
                fh.write(f"{self.names[nid]},{start:.9f},{end:.9f},{parent},{run}\n")
        return len(self.spans)
