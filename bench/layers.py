"""Per-layer metrics of the traced run: counting hooks and their reduction.

The hooks observe arguments and results at the layer boundaries the tracer
wraps, so counts are taken where the work happens. `layer_metrics` turns a
traced run into the flat per_layer metric dict that BENCHMARK.json declares.
Busy times, call counts and extensive counts are per repetition; layers a
workload does not touch read 0.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse

import localglauber as lg

from tracing import tail_percentile

# Modules traced as layers, by the names the metrics use.
LAYER_MODULES = ("graph", "analysis", "dynamics", "coupling", "exact", "cli")
WITNESS_BUCKETS = ("L1", "L2", "L3", "L4plus")


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def matrix_footprint(P) -> tuple[float, int]:
    """(nonzeros per row, bytes held) of a dense ndarray or a scipy.sparse matrix."""
    if scipy.sparse.issparse(P):
        P = P.tocsr()
        held = P.data.nbytes + P.indices.nbytes + P.indptr.nbytes
        return P.nnz / P.shape[0], int(held)
    return np.count_nonzero(P) / P.shape[0], int(P.nbytes)


def _generate(t, args, kwargs, g):
    t.values["graph.directed_edges"] = len(g.edge_src)


def _optimize_gamma(t, args, kwargs, opt):
    t.values["analysis.delta"] = opt.delta


def _mixing_bound(t, args, kwargs, rounds):
    t.values["analysis.mixing_bound_rounds"] = rounds


def _apply_proposals(t, args, kwargs, result):
    t.count("dynamics.node_updates", len(_arg(args, kwargs, 1, "x")))
    t.count("dynamics.marked", int(np.count_nonzero(_arg(args, kwargs, 2, "marked"))))
    t.count("dynamics.accepted", int(np.count_nonzero(result[1])))


def _assign_coupled_proposals(t, args, kwargs, result):
    layers = result[1]
    depth = len(layers.M) - 1
    t.count("coupling.layer_depth.sum", depth)
    t.count("coupling.assignments")
    t.maximum("coupling.layer_depth.max", depth)
    t.count("coupling.flipped_nodes.sum", sum(len(f) for f in layers.F[1:]))


def _check_flip_path_lemmas(t, args, kwargs, report):
    pair = _arg(args, kwargs, 1, "pair")
    x_next = _arg(args, kwargs, 4, "x_next")
    y_next = _arg(args, kwargs, 5, "y_next")
    t.count("coupling.trials")
    t.count("coupling.divergent_trials", int(bool(report.differing_nodes)))
    t.count("coupling.v0_differ", int(x_next[pair.v0] != y_next[pair.v0]))
    t.count("coupling.off_v0_diff.sum", len(report.differing_nodes))
    t.count("coupling.lemma_violations", len(report.violations))
    for path in report.witnesses.values():
        length = len(path) - 1
        t.count("coupling.witnesses")
        t.count("coupling.witness_len.sum", length)
        t.maximum("coupling.witness_len.max", length)
        t.count(f"coupling.witness_len.{WITNESS_BUCKETS[min(length, 4) - 1]}")


def _build_transition_matrix(t, args, kwargs, P):
    nnz_per_row, held = matrix_footprint(P)
    t.values["exact.P_nnz_per_row"] = nnz_per_row
    t.values["exact.P_bytes"] = held


def _tv_curve(t, args, kwargs, curve):
    max_tv = np.asarray(curve.max_tv)
    t.values["exact.tv_rounds"] = len(max_tv) - 1
    ratios = max_tv[1:] / max_tv[:-1]
    t.values["exact.tv_tail_ratio"] = float(ratios[-20:].mean()) if len(ratios) else 0.0


def _symmetry_reduced_starts(t, args, kwargs, starts):
    t.values["exact.orbit_starts"] = len(starts)


HOOKS = {
    "graph.generate": _generate,
    "analysis.optimize_gamma": _optimize_gamma,
    "analysis.mixing_bound": _mixing_bound,
    "dynamics.apply_proposals": _apply_proposals,
    "coupling.assign_coupled_proposals": _assign_coupled_proposals,
    "coupling.check_flip_path_lemmas": _check_flip_path_lemmas,
    "exact.build_transition_matrix": _build_transition_matrix,
    "exact.tv_curve": _tv_curve,
    "exact.symmetry_reduced_starts": _symmetry_reduced_starts,
}

# Span names whose busy seconds are reported as "<name>.s".
BUSY = (
    "graph.generate", "graph.Graph", "analysis.optimize_gamma",
    "dynamics.draw_round_randomness", "dynamics.apply_proposals", "dynamics.is_proper",
    "coupling.sample_adjacent_pair", "coupling.assign_coupled_proposals",
    "coupling.classify_nodes", "coupling.check_flip_path_lemmas",
    "exact.StateSpace", "exact.build_transition_matrix", "exact.symmetry_reduced_starts",
    "exact.tv_curve",
)
# Span names reported with calls and per-call percentiles as well.
PER_CALL = ("dynamics.draw_round_randomness", "dynamics.apply_proposals")
# Span names whose self time is reported as "<name>.self_s".
SELF = ("dynamics.run_chain_trace", "coupling.contraction_experiment")


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer, summary: dict, reps: int, inst) -> dict:
    """Flat per-layer metric dict from one traced pass of `reps` repetitions."""
    c, v = tracer.counts, tracer.values
    m: dict = {}
    for name in BUSY:
        m[f"{name}.s"] = summary.get(name, {}).get("s", 0.0)
    for name in SELF:
        m[f"{name}.self_s"] = summary.get(name, {}).get("self_s", 0.0)
    for name in PER_CALL:
        entry = summary.get(name, {"calls": 0.0, "durations_ns": []})
        durations = entry["durations_ns"]
        m[f"{name}.calls"] = entry["calls"]
        m[f"{name}.us.p50"] = float(np.median(durations)) / 1e3 if durations else 0.0
        m[f"{name}.us.ptail"] = tail_percentile(durations)[1]
    m["exact.checks.s"] = sum(e["s"] for name, e in summary.items() if name.startswith("exact.check_"))

    m["graph.directed_edges"] = v.get("graph.directed_edges", 0)
    m["analysis.delta"] = v.get("analysis.delta", 0.0)
    m["analysis.mixing_bound_rounds"] = v.get("analysis.mixing_bound_rounds", 0)

    for key in ("dynamics.node_updates", "dynamics.marked", "dynamics.accepted"):
        m[key] = c[key] / reps
    m["dynamics.accept_ratio"] = _ratio(c["dynamics.accepted"], c["dynamics.marked"])
    m["dynamics.marked_ratio"] = _ratio(c["dynamics.marked"], c["dynamics.node_updates"])
    m["dynamics.gamma"] = inst.cfg.gamma

    trials = c["coupling.trials"]
    m["coupling.trials"] = trials / reps
    m["coupling.divergent_trial_ratio"] = _ratio(c["coupling.divergent_trials"], trials)
    m["coupling.layer_depth.mean"] = _ratio(c["coupling.layer_depth.sum"], c["coupling.assignments"])
    m["coupling.layer_depth.max"] = tracer.maxima.get("coupling.layer_depth.max", 0)
    m["coupling.flipped_nodes.mean"] = _ratio(c["coupling.flipped_nodes.sum"], c["coupling.assignments"])
    m["coupling.witness_len.mean"] = _ratio(c["coupling.witness_len.sum"], c["coupling.witnesses"])
    m["coupling.witness_len.max"] = tracer.maxima.get("coupling.witness_len.max", 0)
    m["coupling.lemma_violations"] = c["coupling.lemma_violations"] / reps
    m["coupling.v0_differ_ratio"] = _ratio(c["coupling.v0_differ"], trials)
    m["coupling.off_v0_diff.mean"] = _ratio(c["coupling.off_v0_diff.sum"], trials)
    for bucket in WITNESS_BUCKETS:
        m[f"coupling.witness_len.{bucket}.per_trial"] = _ratio(c[f"coupling.witness_len.{bucket}"], trials)
    # The bounds these counts estimate; computed untraced, after the run.
    bounds = {"coupling.v0_bound": 0.0, "coupling.path_bound": 0.0}
    bounds.update({f"coupling.path_bound_term.{b}": 0.0 for b in WITNESS_BUCKETS})
    if trials:
        D, q, gamma = inst.g.max_degree, inst.cfg.q, inst.cfg.gamma
        total = lg.path_bound(D, q, gamma)
        sums = lg.analysis.path_bound_partial_sums(D, q, gamma, 3)
        terms = np.diff(sums, prepend=0.0).tolist() + [total - sums[-1]]
        bounds["coupling.v0_bound"] = lg.v0_bound(D, q, gamma)
        bounds["coupling.path_bound"] = total
        bounds.update({f"coupling.path_bound_term.{b}": t for b, t in zip(WITNESS_BUCKETS, terms)})
    m.update(bounds)

    m["exact.P_nnz_per_row"] = v.get("exact.P_nnz_per_row", 0.0)
    m["exact.P_bytes"] = v.get("exact.P_bytes", 0)
    m["exact.tv_rounds"] = v.get("exact.tv_rounds", 0)
    m["exact.tv_curve.bytes_computed"] = m["exact.tv_rounds"] * m["exact.P_bytes"]
    m["exact.orbit_starts"] = v.get("exact.orbit_starts", 0)
    m["exact.tv_tail_ratio"] = v.get("exact.tv_tail_ratio", 0.0)
    return m
