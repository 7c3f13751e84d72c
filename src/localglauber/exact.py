"""Brute-force ground truth on tiny instances.

Enumerates all q^n colorings of a small graph, builds the exact one-round
transition matrix of the local Glauber dynamics by summing over every
(marking, proposal) combination, and derives detailed-balance /
stationarity / absorption reports, total-variation curves, and exact
mixing times from it. analyze_chain runs that whole pipeline once.

State indexing is the base-q encoding of the color vector with node 0 as
the least significant digit, so index 0 is the all-zeros coloring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix, vstack
from scipy.sparse.csgraph import connected_components

from .dynamics import ChainConfig, _clashes
from .errors import ParameterError, ResourceLimitError, ValidationError
from .graph import Graph, _neighbors, cycle_automorphisms, generate

ENUMERATION_CAP_BITS = 24.0           # allow q^n states up to 2^24
MATRIX_ENTRY_CAP = 2 ** 24            # allow q^n * q^n matrix entries up to 2^24
_BLOCK = 1 << 18                      # entries per temporary block of the orbit scatter and the checks
_CHECK_TOL = 1e-12                    # largest error the row-sum, balance and stationarity checks pass


class StateSpace:
    """All q^n colorings of a graph, with a properness mask."""

    def __init__(self, graph: Graph, q: int):
        if not isinstance(q, (int, np.integer)):
            raise ParameterError(f"q must be an integer, got {q!r}")
        if q < 1:
            raise ParameterError(f"q must be >= 1, got {q}")
        n = graph.node_count
        if n * math.log2(q) > ENUMERATION_CAP_BITS:
            raise ResourceLimitError(
                f"q^n = {q}^{n} exceeds the enumeration budget of 2^{ENUMERATION_CAP_BITS:g} states"
            )
        self.graph = graph
        self.q = q
        self.size = q ** n
        self.q_powers = q ** np.arange(n, dtype=np.int64)
        # states[s, v] = color of node v in the coloring with index s
        idx = np.arange(self.size, dtype=np.int64)
        self.states = (idx[:, None] // self.q_powers[None, :]) % q
        self.states = self.states.astype(np.min_scalar_type(q - 1))
        self.proper_mask = np.ones(self.size, dtype=bool)
        for u, v in graph.edges():
            self.proper_mask &= self.states[:, u] != self.states[:, v]
        self.proper_indices = np.flatnonzero(self.proper_mask)

    @property
    def proper_count(self) -> int:
        return int(self.proper_mask.sum())


def enumerate_proper_colorings(g: Graph, q: int):
    """All proper q-colorings in index order; returns (array of colorings, count)."""
    space = StateSpace(g, q)
    proper = space.states[space.proper_mask].astype(np.int64)
    return proper, len(proper)


def build_transition_matrix(g: Graph, cfg: ChainConfig) -> np.ndarray:
    """Exact dense one-round transition matrix, rows indexed like StateSpace.

    Both P and the combination table it is summed from must fit in
    MATRIX_ENTRY_CAP entries, else ResourceLimitError.

    Sums over all 2^n markings and q^|M| proposal vectors, weighting each by
    gamma^|M| (1-gamma)^(n-|M|) q^(-|M|) and applying the acceptance rule
    deterministically. The rule is dynamics._clashes, the function
    dynamics.apply_proposals resolves a round with, so the two cannot drift
    apart.

    Layout: the (q+1)^n combinations form the columns of one table (see
    _combination_table), and rows are computed once per color-relabelling
    orbit. For an orbit representative r (colors renamed by first
    appearance) the rule runs vectorized over all combinations, node by
    node on the edges v -> u, and np.bincount sums the combination weights
    into r's row. Every other state of the orbit is sigma(r) for a color
    permutation sigma, and its row is written as P[sigma(r), sigma(y)] = P[r, y].

    P is bit-identical to a loop that adds each combination's weight to its
    target in turn: bincount adds in column order, so row r receives that
    loop's additions in its order; and sigma maps the combinations of row r
    one-to-one onto those of row sigma(r) with the same marking, hence the
    same weight, so each entry of sigma(r) receives the same number of the
    same weight, marking by marking, in the same mask-major order.
    """
    space = StateSpace(g, cfg.q)
    Q = space.size
    if Q * Q > MATRIX_ENTRY_CAP:
        raise ResourceLimitError(
            f"transition matrix needs {Q}x{Q} = {Q * Q} entries, over the cap of {MATRIX_ENTRY_CAP}"
        )
    n, q = g.node_count, cfg.q
    # The combination table is held to P's cap; with one color it outgrows P.
    if n * (q + 1) ** n > MATRIX_ENTRY_CAP:
        raise ResourceLimitError(
            f"{(q + 1) ** n} (marking, proposal) combinations of {n} nodes need "
            f"{n * (q + 1) ** n} table entries, over the cap of {MATRIX_ENTRY_CAP}"
        )
    A, weight = _combination_table(n, q, cfg.gamma)
    marked = A >= 0
    nbrs = [_neighbors(g, v) for v in range(n)]
    # Each node's proposal at its base-q digit: a column's target state index
    # sums, over v, the digit of the color v ends the round with.
    A_digit = A * space.q_powers[:, None]

    pattern = _color_pattern_index(space.states, q, space.q_powers)
    P = np.zeros((Q, Q), dtype=np.float64)
    for r in np.flatnonzero(pattern == np.arange(Q)):
        x = space.states[r].astype(A.dtype)
        accepted = marked.copy()
        for v, u in enumerate(nbrs):
            clash = _clashes(A[v], A[u], x[v], x[u, None], marked[u])
            accepted[v] &= ~clash.any(axis=0)
        target = np.where(accepted, A_digit, (x * space.q_powers)[:, None]).sum(axis=0)
        row = np.bincount(target, weights=weight, minlength=Q)
        _scatter_orbit(P, space, x, row, np.flatnonzero(pattern == r))
    return P


def _combination_table(n: int, q: int, gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """All (marking, proposal) combinations as columns, with their probabilities.

    A[v, j] is node v's proposal in combination j, or -1 when v is unmarked.
    Columns run mask-major (marking bit v = node v), then in
    itertools.product order over the marked nodes' proposals (last marked
    node fastest). weight[j] = gamma^k (1-gamma)^(n-k) / q^k for k marked.
    """
    dtype = np.min_scalar_type(-q)
    blocks, weights = [], []
    for mask in range(1 << n):
        marked = [v for v in range(n) if mask >> v & 1]
        k = len(marked)
        block = np.full((n, q ** k), -1, dtype=dtype)
        if k:
            block[marked] = np.indices((q,) * k, dtype=dtype).reshape(k, -1)
        blocks.append(block)
        weights.append(np.full(q ** k, gamma ** k * (1.0 - gamma) ** (n - k) / q ** k))
    return np.concatenate(blocks, axis=1), np.concatenate(weights)


def _scatter_orbit(P: np.ndarray, space: StateSpace, x: np.ndarray, row: np.ndarray, members: np.ndarray) -> None:
    """Write P[s] for every state s in the orbit of the representative x, whose row is `row`.

    s = sigma(x), where sigma maps each label of x to s's color at the
    label's first position, and the labels x leaves unused, in increasing
    order, to the colors s leaves unused, in increasing order.
    """
    q = space.q
    support = np.flatnonzero(row)
    values = row[support]
    labels = space.states[support]
    m = int(x.max()) + 1
    first = np.unique(x, return_index=True)[1]
    step = max(1, _BLOCK // (len(support) * len(x)))
    for lo in range(0, len(members), step):
        s = members[lo:lo + step]
        sigma = np.empty((len(s), q), dtype=np.int64)
        sigma[:, :m] = space.states[s][:, first]
        if m < q:
            free = np.ones((len(s), q), dtype=bool)
            free[np.arange(len(s))[:, None], sigma[:, :m]] = False
            sigma[:, m:] = np.nonzero(free)[1].reshape(len(s), q - m)
        P[s[:, None], sigma[:, labels] @ space.q_powers] = values


@dataclass
class CheckReport:
    name: str
    passed: bool
    max_error: float
    detail: str = ""

    def __str__(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return f"{self.name}: {status} (max_error={self.max_error:.3e}) {self.detail}".rstrip()


def _row_blocks(P: np.ndarray, rows: np.ndarray, cols: np.ndarray):
    """P[np.ix_(rows, cols)] in blocks of whole rows of about _BLOCK entries: (row slice, block)."""
    step = max(1, _BLOCK // max(len(cols), 1))
    for lo in range(0, len(rows), step):
        part = slice(lo, lo + step)
        yield part, P[np.ix_(rows[part], cols)]


def check_detailed_balance(P: np.ndarray, space: StateSpace) -> CheckReport:
    """P must be symmetric on proper-proper index pairs (uniform detailed balance)."""
    idx = space.proper_indices
    maxima = [np.abs(block - P[np.ix_(idx, idx[part])].T).max() for part, block in _row_blocks(P, idx, idx)]
    err = float(np.max(maxima, initial=0.0))
    return CheckReport("detailed_balance", err <= _CHECK_TOL, err)


def check_uniform_stationary(P: np.ndarray, space: StateSpace) -> CheckReport:
    """mu P = mu for mu uniform on proper colorings."""
    mu = stationary_uniform(space)
    err = float(np.abs(mu @ P - mu).max())
    return CheckReport("uniform_stationary", err <= _CHECK_TOL, err)


def check_absorption(P: np.ndarray, space: StateSpace) -> CheckReport:
    """No probability flows from a proper to an improper coloring."""
    proper = space.proper_indices
    improper = np.flatnonzero(~space.proper_mask)
    if len(proper) == 0 or len(improper) == 0:
        return CheckReport("absorption", True, 0.0, "vacuous")
    err = float(np.max([block.max() for _, block in _row_blocks(P, proper, improper)]))
    return CheckReport("absorption", err == 0.0, err)


def check_irreducibility(P: np.ndarray, space: StateSpace) -> CheckReport:
    """Strong connectivity of the positive-transition digraph on proper states.

    Reported, not assumed: expected to hold for q >= max_degree + 2.
    """
    idx = space.proper_indices
    if len(idx) == 0:
        return CheckReport("irreducible_on_proper", False, 0.0, "no proper colorings")
    sub = vstack([csr_matrix(block > 0.0) for _, block in _row_blocks(P, idx, idx)], format="csr")
    ncomp, _ = connected_components(sub, directed=True, connection="strong")
    return CheckReport("irreducible_on_proper", ncomp == 1, float(ncomp - 1), f"{ncomp} strong component(s)")


def check_row_stochastic(P: np.ndarray) -> CheckReport:
    err = float(np.abs(P.sum(axis=1) - 1.0).max())
    return CheckReport("row_stochastic", err <= _CHECK_TOL, err)


def stationary_uniform(space: StateSpace) -> np.ndarray:
    """Uniform distribution over proper colorings, zero elsewhere."""
    count = space.proper_count
    if count == 0:
        raise ValidationError("graph has no proper coloring with this q")
    mu = np.zeros(space.size)
    mu[space.proper_indices] = 1.0 / count
    return mu


@dataclass
class TVCurve:
    """Exact TV-to-stationary trajectories from a set of point-mass starts."""

    start_indices: np.ndarray
    rounds: np.ndarray            # 0..T
    per_start: np.ndarray         # shape (len(start_indices), T+1)
    improper_mass: np.ndarray     # same shape: each start's probability on improper states
    max_tv: np.ndarray = field(init=False)

    def __post_init__(self):
        self.max_tv = self.per_start.max(axis=0)


def tv_curve(
    P: np.ndarray,
    space: StateSpace,
    starts=None,
    max_rounds: int = 10_000,
    stop_tv: float | None = None,
) -> TVCurve:
    """Evolve point masses by repeated vector-matrix products and record TV and improper mass.

    `starts` defaults to every state; to remain exact on larger instances,
    pass the output of symmetry_reduced_starts (TV from a start is constant
    on symmetry orbits, so orbit representatives realize the same maximum).
    Given starts must be a non-empty sequence of integer indices in [0, q^n).
    """
    if max_rounds < 0:
        raise ParameterError(f"max_rounds must be >= 0, got {max_rounds}")
    starts = np.arange(space.size) if starts is None else _check_starts(space, starts)
    mu = stationary_uniform(space)
    improper = np.flatnonzero(~space.proper_mask)
    # Two starts x Q blocks: V holds the distributions, W receives V @ P and
    # then, once V is no longer needed, |V - mu| for the TV row.
    V = np.zeros((len(starts), space.size))
    W = np.empty_like(V)
    V[np.arange(len(starts)), starts] = 1.0
    tv_rows, mass_rows = [], []

    def record(dist, scratch):
        mass_rows.append(dist[:, improper].sum(axis=1))
        np.abs(np.subtract(dist, mu, out=scratch), out=scratch)
        tv_rows.append(0.5 * scratch.sum(axis=1))

    record(V, W)
    t = 0
    while t < max_rounds:
        if stop_tv is not None and tv_rows[-1].max() <= stop_tv:
            break
        np.matmul(V, P, out=W)
        V, W = W, V
        record(V, W)
        t += 1
    per_start = np.stack(tv_rows, axis=1)
    return TVCurve(start_indices=starts, rounds=np.arange(per_start.shape[1]), per_start=per_start,
                   improper_mass=np.stack(mass_rows, axis=1))


@dataclass
class MixingResult:
    rounds: int | None            # None when the TV curve never reached eps


def exact_mixing_time(
    P: np.ndarray,
    space: StateSpace,
    eps: float,
    curve: TVCurve | None = None,
) -> MixingResult:
    """Smallest t with max-over-starts TV(sigma P^t, uniform-proper) <= eps.

    Accepts a precomputed TVCurve so several eps thresholds can share one
    evolution; without one, evolves every start for at most tv_curve's
    default round count. A curve that never reaches eps is reported, not
    raised.
    """
    if not 0.0 < eps:
        raise ParameterError(f"eps must be positive, got {eps}")
    if curve is None:
        curve = tv_curve(P, space, stop_tv=eps)
    hit = np.flatnonzero(curve.max_tv <= eps)
    return MixingResult(rounds=int(hit[0]) if len(hit) else None)


@dataclass
class ChainAnalysis:
    space: StateSpace
    checks: list[CheckReport]     # row sums, detailed balance, stationarity, absorption, irreducibility
    curve: TVCurve                # from one start per symmetry orbit, start 0 first
    rounds: list[int | None]      # exact mixing time per eps, None where the curve never reached it


def analyze_chain(g: Graph, cfg: ChainConfig, eps_list, max_rounds: int) -> ChainAnalysis:
    """The exact pipeline of a tiny instance: P, its five checks, the TV curve and the mixing times.

    P is built once. The starts are one per orbit of colour relabelling,
    and of the dihedral group too where g is the cycle 0-1-...-(n-1); the
    curve runs until its maximum reaches min(eps_list) or for max_rounds
    rounds, and every eps reads its mixing time from it.
    """
    if not eps_list or not all(0.0 < eps for eps in eps_list):
        raise ParameterError(f"eps_list must be non-empty and positive, got {eps_list!r}")
    space = StateSpace(g, cfg.q)
    P = build_transition_matrix(g, cfg)
    checks = [check_row_stochastic(P), *(check(P, space) for check in (
        check_detailed_balance, check_uniform_stationary, check_absorption, check_irreducibility))]
    n = g.node_count
    autos = cycle_automorphisms(n) if n >= 3 and g.edges() == generate("cycle", n=n).edges() else []
    starts = symmetry_reduced_starts(space, autos)
    curve = tv_curve(P, space, starts=starts, max_rounds=max_rounds, stop_tv=min(eps_list))
    rounds = [exact_mixing_time(P, space, eps, curve=curve).rounds for eps in eps_list]
    return ChainAnalysis(space, checks, curve, rounds)


def _check_starts(space: StateSpace, starts) -> np.ndarray:
    """Start states as an int64 array: a non-empty 1-D sequence of integer indices in [0, size), else ParameterError."""
    starts = np.asarray(starts)
    if starts.ndim != 1 or starts.size == 0 or not np.issubdtype(starts.dtype, np.integer):
        raise ParameterError(f"starts must be a non-empty 1-D sequence of integer state indices, got {starts!r}")
    outside = starts[(starts < 0) | (starts >= space.size)]
    if outside.size:
        raise ParameterError(f"state index {outside[0]} outside [0,{space.size})")
    return starts.astype(np.int64)


def symmetry_reduced_starts(space: StateSpace, node_automorphisms) -> np.ndarray:
    """One start state per orbit of the (graph automorphism x color relabeling) group.

    The dynamics commutes with node automorphisms and color permutations,
    and the uniform-proper target is invariant under both, so the TV curve
    from a start depends only on its orbit; the returned representatives
    (the smallest index of each orbit) realize the exact maximum over all
    q^n starts. A permutation that is not a node automorphism of the graph
    would merge states of different orbits, so it raises ValidationError.
    """
    perms = [_check_automorphism(space.graph, p) for p in node_automorphisms]
    if not perms:
        perms = [np.arange(space.graph.node_count, dtype=np.int64)]
    canon = None
    for p in perms:
        key = _color_pattern_index(space.states[:, p], space.q, space.q_powers)
        canon = key if canon is None else np.minimum(canon, key)
    _, first = np.unique(canon, return_index=True)
    return np.sort(first)


def _check_automorphism(g: Graph, p) -> np.ndarray:
    """p as an int64 array, when it permutes range(n) and maps the edges of g onto edges of g."""
    p = np.asarray(p)
    n = g.node_count
    if p.shape != (n,) or not np.issubdtype(p.dtype, np.integer) or not np.array_equal(np.sort(p), np.arange(n)):
        raise ValidationError(f"{p.tolist()} is not a permutation of the {n} nodes")
    p = p.astype(np.int64)
    # edge_src * n + edge_dst is sorted (see Graph), so sorting the mapped
    # keys compares the two edge sets.
    if not np.array_equal(np.sort(p[g.edge_src] * n + p[g.edge_dst]), g.edge_src * n + g.edge_dst):
        raise ValidationError(f"{p.tolist()} maps an edge onto a non-edge, so it is not a node automorphism")
    return p


def _color_pattern_index(colors: np.ndarray, q: int, q_powers: np.ndarray) -> np.ndarray:
    """Per row: the colors renamed by order of first appearance, as a base-q state index.

    Scans the n positions once, vectorized over the rows; a pattern uses at
    most q labels, so its index lies below q^n.
    """
    rows, n = colors.shape
    slot = np.arange(rows, dtype=np.int64) * q
    label_of = np.full(rows * q, -1, dtype=np.int64)    # (row, color) -> label, -1 until seen
    used = np.zeros(rows, dtype=np.int64)               # labels handed out per row
    index = np.zeros(rows, dtype=np.int64)
    for j in range(n):
        at = slot + colors[:, j]
        label = label_of[at]
        new = label < 0
        label = np.where(new, used, label)
        label_of[at] = label
        used += new
        index += label * q_powers[j]
    return index
