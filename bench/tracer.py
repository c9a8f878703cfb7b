"""Span tracer for the curlstokes layers, installed from outside the package.

``Tracer.install`` rebinds every public function of the layer modules, in
every ``curlstokes`` namespace that holds it, to a wrapper that records a
span (name, start, end, parent span, run id) and a few facts read off the
arguments and the result. ``Tracer.uninstall`` restores the originals, so
untraced and traced iterations can alternate in one process. Spans stay in
memory; ``layer_metrics`` derives the per-layer numbers from them.

The tracer keeps one span stack, so it assumes the library runs its levels
on one thread (``CURLSTOKES_THREADS`` unset).
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import sys
import time
import weakref
from collections import defaultdict

LAYERS = ("mesh", "spaces", "forms", "solver", "analysis", "experiments", "cli")
# per-triangle kernels run thousands of times per level; a span each would
# cost more than the work, so their time stays in the calling span
PER_ELEMENT = {"eval_edge_basis", "eval_nodal_basis", "eval_edge_field",
               "eval_nodal_field"}
CASE_CALLBACKS = ("u", "p", "curl_u", "grad_p", "f")
DENSE_LINALG = ("svd", "eigh", "cholesky")
# counts that must repeat exactly between two traced runs of one workload
EXACT_COUNTS = ("mesh.triangles", "spaces.dofs", "forms.assembly_calls",
                "forms.nnz_A", "forms.nnz_B", "cases.eval_calls",
                "cases.eval_points", "solver.fill_nnz",
                "solver.dense_path_solves", "solver.sparse_path_solves",
                "analysis.hodge_calls", "trace.spans")


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB-computed"     # from array shapes, not measured
    if name.endswith(("_ratio", "_frac", "_share")):
        return "ratio"
    if name.endswith("_residual"):
        return "relative"
    return "count"


@dataclasses.dataclass
class Span:
    name: str                 # "<layer>.<function>"
    start: float
    end: float
    parent: int | None        # index of the enclosing span
    run: int
    facts: dict = dataclasses.field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, run: int):
        self.spans: list[Span] = []
        self.run = run
        self.eval_calls = 0
        self.eval_points = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._tokens: dict[int, tuple[weakref.ref, int]] = {}
        self._serial = 0

    # -- recording ---------------------------------------------------------

    def _token(self, obj) -> int:
        """Serial number of an object, stable for its lifetime, never reused."""
        entry = self._tokens.get(id(obj))
        if entry is None or entry[0]() is not obj:
            self._serial += 1
            entry = (weakref.ref(obj), self._serial)
            self._tokens[id(obj)] = entry
        return entry[1]

    def _facts(self, args, result) -> dict:
        facts = {"spaces": tuple(self._token(a) for a in args if type(a).__name__
                                 in ("EdgeSpace", "NodalSpace"))}
        kind = type(result).__name__
        if kind == "Mesh":
            facts["triangles"] = result.triangle_count
        elif kind in ("EdgeSpace", "NodalSpace"):
            facts["dofs"] = result.dof_count
        elif kind == "SparseOperator":
            facts["nnz"] = result.matrix.nnz
        elif kind == "SolveReport":
            facts["residual"] = result.residual
        elif kind == "SuperLU":
            facts["fill"] = result.L.nnz + result.U.nnz
        return facts

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, time.perf_counter(), 0.0,
                        self._stack[-1] if self._stack else None, self.run)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            span.facts.update(self._facts(args, result))
            return result
        return traced

    def _count_points(self, fn):
        @functools.wraps(fn)
        def counted(x, y):
            self.eval_calls += 1
            self.eval_points += getattr(x, "size", 1)
            return fn(x, y)
        return counted

    def _note_dense(self, fn):
        """Record the operand and result bytes of a dense LAPACK call on the
        innermost open span, as computed from the array shapes."""
        @functools.wraps(fn)
        def noted(a, *args, **kwargs):
            result = fn(a, *args, **kwargs)
            if self._stack:
                outs = result if isinstance(result, tuple) else (result,)
                mb = (a.nbytes + sum(getattr(o, "nbytes", 0) for o in outs)) / 2 ** 20
                facts = self.spans[self._stack[-1]].facts
                facts["dense_mb"] = max(facts.get("dense_mb", 0.0), mb)
            return result
        return noted

    # -- installation ------------------------------------------------------

    def _rebind(self, original, replacement) -> None:
        for modname, mod in list(sys.modules.items()):
            if modname == "curlstokes" or modname.startswith("curlstokes."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, replacement)
                        self._patches.append((mod, attr, original))

    def install(self) -> None:
        for layer in LAYERS:
            mod = importlib.import_module(f"curlstokes.{layer}")
            for attr, fn in list(vars(mod).items()):
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not attr.startswith("_") and attr not in PER_ELEMENT):
                    self._rebind(fn, self._wrap(f"{layer}.{attr}", fn))
        solver = importlib.import_module("curlstokes.solver")
        self._patches.append((solver, "splu", solver.splu))
        solver.splu = self._wrap("solver.factor", solver.splu)

        cases = importlib.import_module("curlstokes.cases")
        get_case = cases.get_case

        def counted_case(name):
            case = get_case(name)
            return dataclasses.replace(case, **{cb: self._count_points(getattr(case, cb))
                                                for cb in CASE_CALLBACKS})
        self._rebind(get_case, counted_case)

        import numpy.linalg
        for attr in DENSE_LINALG:
            original = getattr(numpy.linalg, attr)
            setattr(numpy.linalg, attr, self._note_dense(original))
            self._patches.append((numpy.linalg, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Per-layer times, counts and ratios of one traced iteration."""
    spans = tracer.spans
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent is not None:
            children[s.parent].append(i)
    self_s = [s.duration - sum(spans[c].duration for c in children[i])
              for i, s in enumerate(spans)]

    def inclusive(*names) -> float:
        return sum(s.duration for s in spans if s.name in names)

    def named(name):
        return [s for s in spans if s.name == name]

    m: dict[str, float] = {}
    mesh_calls = [s for s in spans if s.layer == "mesh"
                  and (s.parent is None or spans[s.parent].layer != "mesh")]
    m["mesh.build_s"] = sum(s.duration for s in mesh_calls)
    m["mesh.triangles"] = sum(s.facts.get("triangles", 0) for s in mesh_calls)
    builds = ("spaces.build_edge_space", "spaces.build_nodal_space")
    m["spaces.build_s"] = inclusive(*builds)
    m["spaces.dofs"] = sum(s.facts["dofs"] for s in spans if s.name in builds)

    # an assembly is an assemble_* call that calls no other assemble_*; it is
    # useful the first time its form meets its spaces in an iteration
    leaves = [i for i, s in enumerate(spans) if s.name.startswith("forms.assemble_")
              and not any(spans[c].name.startswith("forms.assemble_") for c in children[i])]
    seen, useful, reassembly_s = set(), 0, 0.0
    for i in leaves:
        key = (spans[i].name, spans[i].facts["spaces"])
        if key in seen:
            reassembly_s += spans[i].duration
        else:
            seen.add(key)
            useful += 1
    m["forms.velocity_block_s"] = inclusive("forms.assemble_velocity_block")
    m["forms.coupling_s"] = inclusive("forms.assemble_b")
    m["forms.load_s"] = inclusive("forms.assemble_rhs", "forms.assemble_divergence_rhs",
                                  "forms.assemble_mean_vector")
    m["forms.reassembly_s"] = reassembly_s
    m["forms.assembly_calls"] = len(leaves)
    m["forms.useful_assembly_ratio"] = useful / len(leaves) if leaves else 1.0
    m["forms.nnz_A"] = sum(s.facts["nnz"] for s in named("forms.assemble_velocity_block"))
    m["forms.nnz_B"] = sum(s.facts["nnz"] for s in named("forms.assemble_b"))

    m["cases.eval_calls"] = tracer.eval_calls
    m["cases.eval_points"] = tracer.eval_points

    solves = [i for i, s in enumerate(spans) if s.name == "solver.solve"]
    factored = [any(spans[c].name == "solver.factor" for c in children[i]) for i in solves]
    m["solver.solve_s"] = inclusive("solver.solve")
    m["solver.factor_s"] = inclusive("solver.factor")
    m["solver.fill_nnz"] = sum(s.facts["fill"] for s in named("solver.factor"))
    m["solver.dense_path_solves"] = factored.count(False)
    m["solver.sparse_path_solves"] = factored.count(True)
    m["solver.max_residual"] = max((spans[i].facts["residual"] for i in solves), default=0.0)

    hodge = named("analysis.hodge_decompose")
    m["analysis.errors_s"] = inclusive("analysis.compute_errors")
    m["analysis.hodge_share"] = inclusive("analysis.hodge_decompose") / wall_s
    m["analysis.hodge_calls"] = len(hodge)
    m["analysis.hodge_unique_ratio"] = (len({s.facts["spaces"] for s in hodge}) / len(hodge)
                                        if hodge else 1.0)
    m["analysis.hodge_dense_mb"] = max((s.facts.get("dense_mb", 0.0) for s in hodge),
                                       default=0.0)

    m["experiments.hash_norm_s"] = inclusive("experiments.discrete_hash_norm")
    m["cli.write_s"] = sum(s.duration - sum(spans[c].duration for c in children[i]
                                            if spans[c].layer == "experiments")
                           for i, s in enumerate(spans) if s.name == "cli.main")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(t for s, t in zip(spans, self_s) if s.layer == layer)
    m["trace.spans"] = len(spans)
    m["trace.attributed_frac"] = sum(t for s, t in zip(spans, self_s)
                                     if s.layer != "cli") / wall_s
    return m
