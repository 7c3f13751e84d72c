import ast
import functools
import inspect
import pathlib
import re
import types

import numpy as np

import localglauber as lg
from localglauber import dynamics, exact

from helpers import couple_rows

RETURN_TYPES = {
    "ContractionReport", "GammaOptimum", "ContractionEstimate", "CoupledStep", "CouplingLayers",
    "ProposalPair", "RoundStats", "CheckReport", "MixingResult", "TVCurve", "ChainAnalysis",
}


# The optional parameters of every exported function and class. An option
# earns its place when two callers, tests and demos aside, set it to
# different values; adding one is an edit of this table. check_lemmas is
# True at every call outside tests, but the benchmark workloads pass it.
OPTIONS = {
    "contraction_experiment": ("pair_sampler", "check_lemmas"),
    "ChainConfig": ("seed",),
    "run_chain": ("observe",),
    "ParseError": ("line",),
    "exact_mixing_time": ("curve",),
    "tv_curve": ("starts", "max_rounds", "stop_tv"),
    "generate": ("seed",),
}


def _optional_parameters(obj) -> tuple:
    try:
        params = inspect.signature(obj).parameters.values()
    except ValueError:  # an exception class that keeps Exception's own __init__
        return ()
    return tuple(p.name for p in params if p.default is not p.empty)


def test_all_is_explicit_and_complete():
    public = {name for name, obj in vars(lg).items()
              if not name.startswith("_") and not isinstance(obj, types.ModuleType)}
    assert len(lg.__all__) == len(set(lg.__all__))
    assert set(lg.__all__) == public
    assert not {"effective_proposal", "effective_proposals", "neighbors_inclusive"} & public
    assert not {"analysis", "coupling", "dynamics", "errors", "exact", "graph"} & set(lg.__all__)


def test_exported_options_are_pinned():
    found = {}
    for name in lg.__all__:
        obj = getattr(lg, name)
        if callable(obj):
            options = _optional_parameters(obj)
            if options:
                found[name] = options
    assert found == OPTIONS
    assert sum(map(len, found.values())) == 10


def test_every_exported_option_is_set_outside_tests():
    # Some call in the package or the benchmark workloads passes each option
    # by keyword, to `name(...)` or to `module.name(...)`.
    root = pathlib.Path(lg.__file__).parent
    files = [*root.glob("*.py"), root.parents[1] / "bench" / "workloads.py"]
    passed = {(node.func.id if isinstance(node.func, ast.Name) else node.func.attr, kw.arg)
              for path in files for node in ast.walk(ast.parse(path.read_text()))
              if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute))
              for kw in node.keywords}
    unset = [(name, option) for name, options in OPTIONS.items() for option in options
             if (name, option) not in passed]
    assert unset == []


def test_every_export_has_a_caller_outside_tests():
    # A name earns its place in __all__ when a file other than the module
    # that defines it (and __init__, which re-exports it) mentions it: the
    # package's other modules, the demos or the benchmark workloads.
    root = pathlib.Path(lg.__file__).parent
    home = {alias.name: node.module
            for node in ast.parse((root / "__init__.py").read_text()).body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names}
    files = [*root.glob("*.py"), *root.parents[1].glob("demos/*.py"), root.parents[1] / "bench" / "workloads.py"]
    texts = {path: path.read_text() for path in files if path.name != "__init__.py"}
    uncalled = [name for name in lg.__all__
                if not any(re.search(rf"\b{name}\b", text) for path, text in texts.items()
                           if path.parent != root or path.stem != home[name])]
    assert uncalled == []
    assert len(lg.__all__) == 42


def test_every_definition_has_a_caller_outside_tests():
    # Each top-level function and class of the package, and each public
    # method and property of its classes, is used in code, as a name or an
    # attribute (a docstring or a comment does not count), by one of the
    # package's modules other than __init__, which only re-exports, by a
    # demo or by the benchmark workloads. Python calls the dunder methods,
    # and numpy calls _Key.generate_state.
    root = pathlib.Path(lg.__file__).parent
    users = [*root.glob("*.py"), *root.parents[1].glob("demos/*.py"), root.parents[1] / "bench" / "workloads.py"]
    used = {node.id if isinstance(node, ast.Name) else node.attr
            for path in users if path != root / "__init__.py"
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, (ast.Name, ast.Attribute))}
    defined = []
    for path in sorted(root.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append(f"{path.stem}.{node.name}")
            if isinstance(node, ast.ClassDef):
                defined.extend(f"{path.stem}.{node.name}.{item.name}" for item in node.body
                               if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"))
    exempt = {"_stream._Key.generate_state"}
    assert [name for name in defined if name.rsplit(".", 1)[1] not in used and name not in exempt] == []


def test_only_exact_calls_the_exact_pipeline():
    # The transition matrix, its checks, the orbit starts, the TV curve and
    # the mixing times are put together in one place, exact.analyze_chain;
    # no other module of the package calls them.
    root = pathlib.Path(lg.__file__).parent
    pieces = {"build_transition_matrix", "symmetry_reduced_starts", "tv_curve", "exact_mixing_time",
              *(name for name in vars(exact) if name.startswith("check_"))}
    assert len(pieces) == 9
    calls = sorted(f"{path.stem}: {name}" for path in root.glob("*.py") if path.stem != "exact"
                   for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Call)
                   for name in [getattr(node.func, "id", getattr(node.func, "attr", None))] if name in pieces)
    assert calls == []


def test_return_types_are_not_exported_but_importable():
    assert not RETURN_TYPES & set(lg.__all__)
    assert all(any(hasattr(getattr(lg, m), name) for m in ("analysis", "coupling", "dynamics", "exact"))
               for name in RETURN_TYPES)


def test_philox_is_built_only_in_the_stream_helper():
    src = pathlib.Path(lg.__file__).parent
    builders = sorted(p.name for p in src.glob("*.py") if "np.random.Philox(" in p.read_text())
    assert builders == ["_stream.py"]


def test_kernel_and_exact_builder_share_one_acceptance_rule(monkeypatch):
    # The round kernel, the exact builder and the coupled block all resolve
    # proposals through dynamics._clashes: under a rule that never clashes,
    # every marked node adopts its proposal in each.
    def never(ps, pd, *rest):
        return np.zeros(np.broadcast_shapes(np.shape(ps), np.shape(pd)), dtype=bool)

    g = lg.generate("cycle", n=4)
    pairs = np.array([[0, 0, 0, 0], [1, 2, 1, 2]]), np.array([[1, 0, 0, 0], [1, 2, 0, 2]]), np.array([0, 2])
    block_marked = np.array([[True, True, False, True], [True, True, True, True]])
    draws = np.array([[1, 1, 2, 0], [2, 1, 2, 1]])

    def coupled_block_accepts_all():
        step = couple_rows(g, *pairs, block_marked, draws)
        return all(np.array_equal(nxt, np.where(block_marked.ravel(), c, cur.ravel())) for nxt, c, cur in (
            (step.x_next, step.proposals.cx, pairs[0]), (step.y_next, step.proposals.cy, pairs[1])))

    assert not coupled_block_accepts_all()
    assert exact._clashes is dynamics._clashes
    for module in (dynamics, exact):
        monkeypatch.setattr(module, "_clashes", never)
    assert coupled_block_accepts_all()
    marked = np.array([True, True, False, True])
    out, accepted = lg.apply_proposals(g, np.zeros(4, dtype=np.int64), marked, np.array([1, 1, 2, 0]))
    assert accepted.tolist() == marked.tolist() and out.tolist() == [1, 1, 0, 0]
    # Nodes then move independently, so P is a Kronecker power of the one-node matrix.
    q, gamma = 3, 0.3
    P = lg.build_transition_matrix(g, lg.ChainConfig(q=q, gamma=gamma))
    one_node = (1 - gamma) * np.eye(q) + gamma / q
    assert np.allclose(P, functools.reduce(np.kron, [one_node] * 4), rtol=0.0, atol=1e-12)
