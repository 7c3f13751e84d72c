"""Shared test utilities, including independent reference implementations
used as oracles: the set-based graph constructor the array-based `Graph`
replaced, the synchronous round the vectorized one implements, and the
set-based coupling layers the mask-based ones replaced."""

import contextlib
import resource

import numpy as np

from localglauber import ParameterError, ValidationError, coupling, dynamics, exact
from localglauber._stream import stream
from localglauber.graph import _copies


class ReferenceGraph:
    """The set-based constructor `Graph` had before it was built from edge arrays."""

    def __init__(self, node_count: int, edges) -> None:
        if node_count < 1:
            raise ParameterError(f"node_count must be >= 1, got {node_count}")
        neighbor_sets: list[set[int]] = [set() for _ in range(node_count)]
        for u, v in edges:
            u, v = int(u), int(v)
            if u == v:
                raise ValidationError(f"self-loop at node {u}")
            if not (0 <= u < node_count and 0 <= v < node_count):
                raise ValidationError(f"edge ({u},{v}) outside [0,{node_count})")
            neighbor_sets[u].add(v)
            neighbor_sets[v].add(u)
        self.node_count = node_count
        self.adjacency = tuple(tuple(sorted(s)) for s in neighbor_sets)
        self.max_degree = max((len(s) for s in neighbor_sets), default=0)
        src, dst = [], []
        for u, nbrs in enumerate(self.adjacency):
            src.extend([u] * len(nbrs))
            dst.extend(nbrs)
        self.edge_src = np.asarray(src, dtype=np.int64)
        self.edge_dst = np.asarray(dst, dtype=np.int64)

    @property
    def edge_count(self) -> int:
        return len(self.edge_src) // 2

    def edges(self) -> list[tuple[int, int]]:
        """Undirected edge list with u < v, sorted."""
        return [(u, v) for u in range(self.node_count) for v in self.adjacency[u] if u < v]


def neighbor_lists(g):
    """Per-node neighbor lists built from `g.edges()`, independent of the CSR layout."""
    nbrs = [[] for _ in range(g.node_count)]
    for u, v in g.edges():
        nbrs[u].append(v)
        nbrs[v].append(u)
    return nbrs


def reference_round(g, x, marked, proposal, order=None, enforce=True):
    """Plain-loop re-derivation of one round from the update rule.

    Iterates nodes in an arbitrary `order` (the result must not depend on
    it), reading only round-start state: node v with proposal c accepts iff
    every neighbor u satisfies c != x[u], c != eff[u], and, when enforce is
    set, marked u does not propose x[v]. Returns (new_colors, accepted_mask).
    """
    n = g.node_count
    if order is None:
        order = range(n)
    adjacency = neighbor_lists(g)
    eff = [proposal[v] if marked[v] else x[v] for v in range(n)]
    out = list(x)
    accepted = [False] * n
    for v in order:
        if not marked[v]:
            continue
        c = proposal[v]
        ok = True
        for u in adjacency[v]:
            if c == x[u] or c == eff[u]:
                ok = False
                break
            if enforce and marked[u] and proposal[u] == x[v]:
                ok = False
                break
        if ok:
            out[v] = c
            accepted[v] = True
    return np.asarray(out, dtype=np.int64), np.asarray(accepted, dtype=bool)


def _clashes_without_condition_ii(ps, pd, xs, xd, marked_d):
    """`dynamics._clashes` with the `pd == xs` term, condition (ii), dropped."""
    clash = ps == pd
    clash &= marked_d
    clash |= ps == xd
    return clash


@contextlib.contextmanager
def without_condition_ii():
    """Run the round kernel and the exact builder under the rule without condition (ii).

    Both read the rule as `_clashes` from their own module, so both names are
    replaced, and restored on exit.
    """
    saved = dynamics._clashes, exact._clashes
    dynamics._clashes = exact._clashes = _clashes_without_condition_ii
    try:
        yield
    finally:
        dynamics._clashes, exact._clashes = saved


def random_graph_and_coloring(rng, n_max=12, q_max=7, proper=False):
    """A random ER graph with either a greedy-proper or arbitrary coloring."""
    from localglauber import generate, greedy_coloring

    n = int(rng.integers(2, n_max + 1))
    p = float(rng.uniform(0.1, 0.6))
    g = generate("erdos_renyi", n=n, p=p, seed=int(rng.integers(2**31)))
    if proper:
        q = g.max_degree + 1 + int(rng.integers(0, 3))
        x = greedy_coloring(g, q)
    else:
        q = int(rng.integers(2, q_max + 1))
        x = rng.integers(0, q, size=n)
    return g, q, np.asarray(x, dtype=np.int64)


def reference_erdos_renyi_edges(n, p, seed):
    """The per-pair loop `generate("erdos_renyi")` ran before it drew rows in blocks."""
    rng = np.random.Generator(np.random.Philox(key=np.array([seed & ((1 << 64) - 1), 0], dtype=np.uint64)))
    edges = []
    for i in range(n):
        draw = rng.random(n - i - 1)
        for off, j in enumerate(range(i + 1, n)):
            if draw[off] < p:
                edges.append((i, j))
    return edges


@contextlib.contextmanager
def address_space_limit(extra_bytes=1 << 30):
    """Cap this process's address space at its current size plus `extra_bytes`.

    Tests of size caps run under it, so that a cap that stopped firing shows
    up as a MemoryError instead of an attempt to allocate the hostile size.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        vm_kib = next(int(line.split()[1]) for line in fh if line.startswith("VmSize:"))
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    limit = vm_kib * 1024 + extra_bytes
    for cap in (soft, hard):
        if cap != resource.RLIM_INFINITY:
            limit = min(limit, cap)
    resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


def index_of(space, coloring) -> int:
    """The state index of a coloring: its colors as base-q digits, node 0 the least significant."""
    return sum(int(color) * space.q ** v for v, color in enumerate(coloring))


def coloring_of(space, index: int) -> np.ndarray:
    """The coloring whose state index is `index`, the inverse of index_of."""
    return np.array([index // space.q ** v % space.q for v in range(space.graph.node_count)], dtype=np.int64)


def reference_symmetry_reduced_starts(space, node_automorphisms):
    """The per-state loop `symmetry_reduced_starts` ran before it was vectorized."""

    def color_pattern(colors):
        relabel = {}
        return tuple(relabel.setdefault(c, len(relabel)) for c in colors)

    perms = [np.asarray(p, dtype=np.int64) for p in node_automorphisms]
    if not perms:
        perms = [np.arange(space.graph.node_count, dtype=np.int64)]
    reps = {}
    for idx in range(space.size):
        colors = space.states[idx]
        canon = min(color_pattern(colors[p].tolist()) for p in perms)
        if canon not in reps:
            reps[canon] = idx
    return np.asarray(sorted(reps.values()), dtype=np.int64)


def reference_k(g, pair):
    """The set-based K the mask-based one replaced: the closed neighborhood of the red/blue nodes B, minus v0."""
    adjacency = neighbor_lists(g)
    rb = {pair.r, pair.b}
    B = {v for v in range(g.node_count) if v != pair.v0 and int(pair.x[v]) in rb}
    K = set()
    for v in B:
        K.add(v)
        K.update(adjacency[v])
    K.discard(pair.v0)
    return K


# Sampling modes of the coupled proposals, as the reference below labels them.
UNMARKED, CONSISTENT, MIRRORED = 0, 1, 2


def reference_assign_coupled_proposals(g, pair, marked, draws):
    """The set-based assignment of coupled proposals the frontier-mask one in `coupled_step` replaced.

    Returns ((cx, cy, mode), (K, S, M, F)) with K, S sets and M, F tuples
    of frozensets, M[0] = F[0] = {v0}.
    """
    adjacency = neighbor_lists(g)
    n = g.node_count
    v0, r, b = pair.v0, pair.r, pair.b
    marked = np.asarray(marked, dtype=bool)
    draws = np.asarray(draws, dtype=np.int64)

    K = reference_k(g, pair)
    S = {v for v in range(n) if marked[v] and v != v0 and v not in K}

    cx = np.where(marked, draws, pair.x)
    cy = np.where(marked, draws, pair.y)
    mode = np.where(marked, CONSISTENT, UNMARKED).astype(np.int8)

    M = [frozenset({v0})]
    F = [frozenset({v0})]
    assigned = {v0}
    while F[-1]:
        frontier = set()
        for w in F[-1]:
            frontier.update(adjacency[w])
        nxt = (frontier & S) - assigned
        if not nxt:
            break
        flipped = set()
        for v in nxt:
            mode[v] = MIRRORED
            c = int(draws[v])
            if c == r:
                cx[v], cy[v] = r, b
                flipped.add(v)
            elif c == b:
                cx[v], cy[v] = b, r
                flipped.add(v)
        assigned |= nxt
        M.append(frozenset(nxt))
        F.append(frozenset(flipped))
    return (cx, cy, mode), (K, S, tuple(M), tuple(F))


def sample_adjacent_pair(g, q, rng, x=None):
    """Draw an adjacent pair around X: a uniform coloring when x is None, then v0 and Y's color there.

    The per-trial pair draw `contraction_experiment` makes into its block
    rows, kept here for the oracle below and for tests that need pairs.
    Y's color is computed in Python integers, so it is exact for q up to 2^63.
    """
    if x is None:
        x = rng.integers(0, q, size=g.node_count, dtype=np.int64)
    v0 = int(rng.integers(g.node_count))
    y = np.array(x)
    shift = 1 + int(rng.integers(q - 1))
    y[v0] = (int(x[v0]) + shift) % q
    return coupling.AdjacentPair(x, y, v0)


def reference_contraction_experiment(g, cfg, trials, pair_sampler="uniform_random", burn_rounds=50,
                                     check_lemmas=False):
    """The per-trial loop `contraction_experiment` ran before it ran the coupled round on blocks of trials.

    Every lemma check goes through `coupling.check_flip_path_lemmas`, so a
    test that replaces it sees one call per trial.
    """
    start = None
    if pair_sampler == "proper_random":
        start = dynamics.greedy_coloring(g, cfg.q)
    if trials == 0:
        return coupling.ContractionEstimate(trials=0, mean=float("nan"), stderr=float("nan"), max_phi=0,
                                            lemma_failures=0)
    total = 0.0
    total_sq = 0.0
    max_phi = 0
    lemma_failures = 0
    rng = None
    for trial in range(trials):
        rng = stream(cfg.seed, trial, reuse=rng)
        x = None
        if start is not None:
            burn_cfg = dynamics.ChainConfig(q=cfg.q, gamma=cfg.gamma, seed=int(rng.integers(0, 2**63 - 1)))
            x = dynamics.run_chain(g, burn_cfg, start, burn_rounds)
        pair = sample_adjacent_pair(g, cfg.q, rng, x)
        step = coupling.coupled_step(g, pair, dynamics._marks_then_proposals(rng, cfg, g.node_count))
        phi = coupling.hamming_distance(step.x_next, step.y_next)
        total += phi
        total_sq += phi * phi
        max_phi = max(max_phi, phi)
        if check_lemmas:
            report = coupling.check_flip_path_lemmas(g, pair, step.layers, step.proposals, step.x_next, step.y_next)
            if not report.passed:
                lemma_failures += 1
    mean = total / trials
    var = max(total_sq / trials - mean * mean, 0.0)
    stderr = (var / trials) ** 0.5
    return coupling.ContractionEstimate(trials=trials, mean=mean, stderr=stderr, max_phi=max_phi,
                                        lemma_failures=lemma_failures)


def couple_rows(g, x, y, v0, marked, draws):
    """The coupled steps of the pairs in the rows of (pairs x n) arrays, v0 one entry per row.

    One call of the coupling's block code, with pair i on copy i of g; the
    result holds every pair's arrays end to end, row i at [i*n, (i+1)*n).
    """
    k, n = np.shape(x)
    return coupling._couple(_copies(g, k), np.ravel(x), np.ravel(y), np.arange(k) * n + v0,
                            np.ravel(marked), np.ravel(draws))


def reference_build_transition_matrix(g, cfg, *, entry_cap=2 ** 24, enforce_reversibility_condition=True):
    """The per-combination loop `build_transition_matrix` ran before it was built per orbit.

    Loops over all (marking, proposal) combinations in mask-major, then
    `itertools.product` order, each vectorized over all q^n states.
    """
    import itertools

    from localglauber import ResourceLimitError, StateSpace
    from localglauber.graph import _neighbor_lists

    space = StateSpace(g, cfg.q)
    Q = space.size
    if Q * Q > entry_cap:
        raise ResourceLimitError(
            f"transition matrix needs {Q}x{Q} = {Q * Q} entries, over the cap of {entry_cap}"
        )
    P = np.zeros(Q * Q, dtype=np.float64)
    n = g.node_count
    q, gamma = cfg.q, cfg.gamma
    row_base = np.arange(Q, dtype=np.int64) * Q
    diag = row_base + np.arange(Q, dtype=np.int64)
    nbrs = _neighbor_lists(g)

    # Reusable per-node tables: neq[v][c] = (state color at v) != c, and
    # color deltas scaled by the positional weight q^v.
    cols = [space.states[:, v].astype(np.int64) for v in range(n)]
    neq = [[cols[v] != c for c in range(q)] for v in range(n)]
    cdelta = [[(c - cols[v]) * space.q_powers[v] for c in range(q)] for v in range(n)]

    for mask in range(1 << n):
        marked = [v for v in range(n) if mask >> v & 1]
        k = len(marked)
        w = gamma ** k * (1.0 - gamma) ** (n - k) / q ** k
        if k == 0:
            P[diag] += w
            continue
        marked_set = set(marked)
        for prop in itertools.product(range(q), repeat=k):
            c_of = dict(zip(marked, prop))
            shift = None
            for v, c_v in zip(marked, prop):
                acc = None
                rejected = False
                for u in nbrs[v]:
                    # (i): proposal avoids u's current color and effective proposal
                    acc = neq[u][c_v] if acc is None else acc & neq[u][c_v]
                    if u in marked_set:
                        c_u = c_of[u]
                        if c_u == c_v:
                            rejected = True
                            break
                        # (ii): marked neighbor must not propose v's current color
                        if enforce_reversibility_condition:
                            acc = acc & neq[v][c_u]
                if rejected:
                    continue
                move = cdelta[v][c_v] if acc is None else cdelta[v][c_v] * acc
                shift = move if shift is None else shift + move
            if shift is None:
                P[diag] += w
            else:
                P[diag + shift] += w
    return P.reshape(Q, Q)
