"""Path coupling for adjacent coloring pairs, and its mechanical checkers.

Two chains X and Y that differ at a single node v0 (colors r in X, b in Y)
are driven with shared markings and shared uniform color draws. Nodes near
red/blue colors (the set K) and generic marked nodes sample *consistently*
(both chains propose the draw). Marked nodes outside K are assigned in
breadth-first layers growing from v0 along nodes whose proposals came out
*flipped* (r in one chain, b in the other); nodes inside a layer sample
*mirroredly*: a draw of r or b proposes that color in X and the opposite
color in Y, any other draw proposes itself in both chains.

Under this construction the X-side proposals coincide with the raw draws,
so the X marginal is literally the plain dynamics; the Y side differs only
by the measure-preserving r/b swap at mirrored nodes.

Divergence at a node other than v0 can only happen along a flip path (for
nodes sampled mirroredly) or an almost flip path (for consistently sampled
nodes in K whose draw was r or b). `check_flip_path_lemmas` verifies those
two facts against a concrete coupled step and returns witnesses.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from ._stream import stream
from .dynamics import (
    ChainConfig, RoundRandomness, _marks_then_proposals, apply_proposals, greedy_coloring, random_coloring, run_chain,
)
from .errors import ParameterError, ValidationError
from .graph import Graph, _copies, _neighbors


@dataclass(frozen=True)
class AdjacentPair:
    """Colorings x and y that agree everywhere except node v0.

    r = x[v0] and b = y[v0] are the "red" and "blue" colors of the
    construction. The pair is checked once, on construction.
    """

    x: np.ndarray
    y: np.ndarray
    v0: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", np.asarray(self.x, dtype=np.int64))
        object.__setattr__(self, "y", np.asarray(self.y, dtype=np.int64))
        object.__setattr__(self, "v0", int(self.v0))
        if self.x.shape != self.y.shape:
            raise ValidationError("x and y have different lengths")
        diff = np.flatnonzero(self.x != self.y)
        if len(diff) != 1 or diff[0] != self.v0:
            raise ValidationError(f"pair must differ exactly at v0={self.v0}, differs at {diff.tolist()}")

    @property
    def r(self) -> int:
        return int(self.x[self.v0])

    @property
    def b(self) -> int:
        return int(self.y[self.v0])


@dataclass(frozen=True)
class ProposalPair:
    """Per-node effective proposals of both chains."""

    cx: np.ndarray
    cy: np.ndarray


@dataclass(frozen=True)
class CouplingLayers:
    """Derived node masks of one coupled round.

    K: closed neighborhood of the nodes other than v0 colored r or b, minus v0.
    S: marked nodes outside K, v0 excluded.
    depth: breadth-first layer of each node, -1 when not layered; v0 alone
        has depth 0, whether or not it is marked.
    flipped: layered nodes whose proposals came out flipped, plus v0.
    M[d]/F[d] are the node indices of layer d and of its flipped subset.
    A node samples mirroredly exactly when its depth is >= 1; other marked
    nodes sample consistently.
    """

    K: np.ndarray
    S: np.ndarray
    depth: np.ndarray
    flipped: np.ndarray

    @property
    def M(self) -> tuple:
        return tuple(np.flatnonzero(self.depth == d) for d in range(self.depth.max() + 1))

    @property
    def F(self) -> tuple:
        return tuple(np.flatnonzero(self.flipped & (self.depth == d)) for d in range(self.depth.max() + 1))


@dataclass(frozen=True)
class CoupledStep:
    x_next: np.ndarray
    y_next: np.ndarray
    proposals: ProposalPair
    layers: CouplingLayers


def coupled_step(g: Graph, pair: AdjacentPair, rr: RoundRandomness) -> CoupledStep:
    """One coupled round: shared marks, coupled proposals, the usual acceptance rule per chain."""
    marked = np.asarray(rr.marked, dtype=bool)
    draws = np.asarray(rr.proposal, dtype=np.int64)
    return _couple(g, pair.x, pair.y, [pair.v0], marked, draws)


# coupled_step is the one-pair call of the two functions below, which take
# several pairs at once. Pair i then lives on copy i of the graph inside g
# (see graph._copies): x and y hold every copy's colorings end to end, and
# v0[i] is the index of pair i's v0 there. Copies share no edge, so each
# pair sees only its own nodes, and all pairs go through each numpy call
# together.

def _is_red_or_blue(colors, r, b):
    """Per node, whether `colors` there is r or b of the node's own pair (r and b hold one color per pair)."""
    per_pair = colors.reshape(len(r), -1)
    return ((per_pair == r[:, None]) | (per_pair == b[:, None])).ravel()


def _assign(g: Graph, x, y, v0, marked, draws):
    """Breadth-first assignment of coupled proposals; returns (ProposalPair, CouplingLayers).

    `draws` holds one uniform color per node, read only where marked. Layer
    d+1 collects the not-yet-layered nodes of S next to a flipped node of layer d.
    """
    r, b = x[v0], y[v0]
    n = len(x) // len(r)

    # K: the nodes other than v0 colored r or b, their neighbors too, v0 not.
    K = _is_red_or_blue(x, r, b)
    K[v0] = False
    K[g.edge_dst[K[g.edge_src]]] = True
    K[v0] = False
    S = marked & ~K
    S[v0] = False

    # Defaults: unmarked nodes effectively propose their current colors
    # (which differ at v0 when v0 is unmarked); marked nodes sample
    # consistently unless a layer makes them mirrored, where X keeps the
    # draw and Y swaps a draw of r or b for the other.
    cx = np.where(marked, draws, x)
    cy = np.where(marked, draws, y)

    # The layers of all pairs grow together, until no pair gains a node.
    depth = np.full(len(x), -1, dtype=np.int64)
    depth[v0] = 0
    flipped = np.zeros(len(x), dtype=bool)
    flipped[v0] = True
    front = flipped.copy()
    red_blue = _is_red_or_blue(draws, r, b)
    for d in range(1, len(x)):
        reach = np.zeros(len(x), dtype=bool)
        reach[g.edge_dst[front[g.edge_src]]] = True
        layer = reach & S & (depth < 0)
        if not layer.any():
            break
        depth[layer] = d
        front = layer & red_blue
        flipped |= front
        at = np.flatnonzero(front)
        owner = at // n
        cy[at] = np.where(draws[at] == r[owner], b[owner], r[owner])

    layers = CouplingLayers(K=K, S=S, depth=depth, flipped=flipped)
    return ProposalPair(cx=cx, cy=cy), layers


def _couple(g: Graph, x, y, v0, marked, draws) -> CoupledStep:
    proposals, layers = _assign(g, x, y, v0, marked, draws)
    x_next, _ = apply_proposals(g, x, marked, proposals.cx)
    y_next, _ = apply_proposals(g, y, marked, proposals.cy)
    return CoupledStep(x_next=x_next, y_next=y_next, proposals=proposals, layers=layers)


def _pair_of(block, i: int, n: int):
    """Pair i's slice of a ProposalPair or CouplingLayers of several pairs."""
    return type(block)(**{f.name: getattr(block, f.name)[i * n:(i + 1) * n] for f in fields(block)})


def hamming_distance(x: np.ndarray, y: np.ndarray) -> int:
    x = np.asarray(x)
    y = np.asarray(y)
    if x.shape != y.shape:
        raise ValidationError(f"length mismatch: {x.shape} vs {y.shape}")
    return int(np.count_nonzero(x != y))


@dataclass
class LemmaViolation:
    node: int
    reason: str


@dataclass
class LemmaReport:
    """Outcome of checking both divergence lemmas on one coupled step."""

    differing_nodes: list
    witnesses: dict            # node -> path (v0, ..., node) that certifies the lemma
    violations: list

    @property
    def passed(self) -> bool:
        return not self.violations


def check_flip_path_lemmas(
    g: Graph,
    pair: AdjacentPair,
    layers: CouplingLayers,
    proposals: ProposalPair,
    x_next: np.ndarray,
    y_next: np.ndarray,
) -> LemmaReport:
    """Verify the two divergence lemmas on a concrete coupled step.

    For every node v != v0 where the next states differ:
      * v in S: there must be a flip path (v0, w1, ..., v) with w_d in F[d],
        whose last hop flips orientation: v's X-proposal equals the
        predecessor's Y-side color and vice versa (for length 1 the
        predecessor colors are v0's current colors r and b).
      * v in K: v must have proposed the same color in both chains, that
        color must be r or b, and v must neighbor the flipped set of some
        layer, extending a flip path by one consistent node.
    Anything else is a violation (and would indicate an implementation bug,
    so violations are reported rather than raised).
    """
    v0 = pair.v0
    differing = [v for v in np.flatnonzero(x_next != y_next).tolist() if v != v0]
    witnesses: dict[int, tuple] = {}
    violations: list[LemmaViolation] = []
    # What a flip path's last hop is checked against: the predecessor's
    # proposals, or v0's current colors when v0 is the predecessor.
    side_x, side_y = proposals.cx.copy(), proposals.cy.copy()
    side_x[v0], side_y[v0] = pair.r, pair.b

    for v in differing:
        cxv, cyv = int(proposals.cx[v]), int(proposals.cy[v])
        if layers.S[v]:
            reason = "differing S-node without a valid flip path"
            d, path = layers.depth[v], None
            if layers.flipped[v] and d >= 1:
                path = _walk_back(g, layers, v, lambda w: (
                    (layers.depth[w] == d - 1) & (side_y[w] == cxv) & (side_x[w] == cyv)))
        elif not layers.K[v]:
            reason, path = "differing node outside S and K", None
        elif cxv != cyv:
            reason, path = "differing K-node with flipped proposals", None
        elif cxv not in (pair.r, pair.b):
            reason, path = f"differing K-node proposed {cxv}, not r/b", None
        else:
            reason = "differing K-node without an almost flip path"
            path = _walk_back(g, layers, v, lambda w: True)
        if path is None:
            violations.append(LemmaViolation(v, reason))
        else:
            witnesses[v] = path

    return LemmaReport(differing_nodes=differing, witnesses=witnesses, violations=violations)


def _walk_back(g, layers, v, first_hop):
    """Path (v0, ..., v) through flipped nodes, or None where a hop is missing.

    The first hop goes to a flipped neighbor of v that `first_hop` keeps
    (a mask over neighbor ids), each later hop to a flipped neighbor one
    layer shallower, until v0 at depth 0. Every hop takes the shallowest
    candidate, lowest id first.
    """
    path = [v]
    nbrs = _neighbors(g, v)
    nbrs = nbrs[layers.flipped[nbrs] & first_hop(nbrs)]
    while nbrs.size:
        w = int(nbrs[np.argmin(layers.depth[nbrs])])
        path.append(w)
        d = layers.depth[w]
        if d == 0:
            return tuple(reversed(path))
        nbrs = _neighbors(g, w)
        nbrs = nbrs[layers.flipped[nbrs] & (layers.depth[nbrs] == d - 1)]
    return None


@dataclass
class ContractionEstimate:
    """Monte Carlo estimate of the expected coupled distance after one round."""

    trials: int
    mean: float
    stderr: float
    max_phi: int
    lemma_failures: int


PAIR_SAMPLERS = ("uniform_random", "proper_random")

# contraction_experiment runs the coupled round on blocks of trials whose
# (trials x directed edges) and (trials x nodes) arrays hold about this many
# entries each: 45 trials on ER(50, 0.08), 512 on C8, one on a 10^5-node
# grid. Larger blocks save little time and raise the peak memory.
_BLOCK_ENTRIES = 1 << 13

# Rounds of the chain from a greedy coloring before each proper_random pair.
_BURN_ROUNDS = 50


def _trials_per_block(g: Graph) -> int:
    return max(1, _BLOCK_ENTRIES // max(g.node_count, len(g.edge_src)))


def contraction_experiment(
    g: Graph,
    cfg: ChainConfig,
    trials: int,
    pair_sampler: str = "uniform_random",
    check_lemmas: bool = False,
) -> ContractionEstimate:
    """Average the coupled one-round distance phi(X', Y') over sampled adjacent pairs.

    X is a uniform coloring ("uniform_random"), or the state after
    _BURN_ROUNDS rounds of the chain from a greedy coloring
    ("proper_random", which needs q > max_degree). Trials use independent
    Philox streams keyed on (cfg.seed, trial), so they are reproducible and
    order independent. One generator is re-keyed per trial; a proper_random
    burn-in draws its seed from the trial's stream and runs its own chain,
    which owns its own generator.

    Each trial draws X, v0, the shift from X's color at v0 to Y's, its marks
    and its proposals into its row of the block's arrays; the coupled round
    then runs once per block (see _BLOCK_ENTRIES). With check_lemmas, only
    the trials whose chains differ away from v0 become an AdjacentPair and
    go to check_flip_path_lemmas.
    """
    if trials < 0:
        raise ParameterError("trials must be >= 0")
    if cfg.q < 2:
        raise ParameterError("coupling needs q >= 2 (two colors must differ at v0)")
    if pair_sampler not in PAIR_SAMPLERS:
        raise ParameterError(f"unknown pair sampler {pair_sampler!r}; expected one of {PAIR_SAMPLERS}")
    start = None
    if pair_sampler == "proper_random":
        if cfg.q <= g.max_degree:
            raise ParameterError("proper_random sampling needs q > max_degree")
        start = greedy_coloring(g, cfg.q)
    if trials == 0:
        return ContractionEstimate(trials=0, mean=float("nan"), stderr=float("nan"), max_phi=0, lemma_failures=0)
    n, q = g.node_count, int(cfg.q)
    block = _trials_per_block(g)
    total = 0
    total_sq = 0
    max_phi = 0
    lemma_failures = 0
    rng = None
    for lo in range(0, trials, block):
        # Row i holds trial lo + i.
        k = min(block, trials - lo)
        x = np.empty((k, n), dtype=np.int64)
        marked = np.empty((k, n), dtype=bool)
        draws = np.empty((k, n), dtype=np.int64)
        v0 = np.empty(k, dtype=np.int64)
        shift = np.empty(k, dtype=np.int64)
        for i in range(k):
            rng = stream(cfg.seed, lo + i, reuse=rng)
            if start is None:
                x[i] = random_coloring(g, q, rng)
            else:
                burn_cfg = ChainConfig(q=q, gamma=cfg.gamma, seed=int(rng.integers(0, 2**63 - 1)))
                x[i] = run_chain(g, burn_cfg, start, _BURN_ROUNDS)
            v0[i] = rng.integers(n)
            shift[i] = 1 + rng.integers(q - 1)
            rr = _marks_then_proposals(rng, cfg, n)
            marked[i], draws[i] = rr.marked, rr.proposal
        at = np.arange(k) * n + v0
        y = x.copy()
        # In Python integers, as x + shift can exceed int64 when q is near 2^63.
        y.flat[at] = (x.flat[at].astype(object) + shift) % q
        step = _couple(_copies(g, k), x.ravel(), y.ravel(), at, marked.ravel(), draws.ravel())
        phi = np.count_nonzero((step.x_next != step.y_next).reshape(k, n), axis=1)
        total += int(phi.sum())
        total_sq += int(phi @ phi)
        max_phi = max(max_phi, int(phi.max()))
        if check_lemmas:
            # A pair whose chains differ only at v0 has nothing to certify.
            for i in np.flatnonzero(phi > (step.x_next[at] != step.y_next[at])):
                rows = slice(i * n, (i + 1) * n)
                report = check_flip_path_lemmas(g, AdjacentPair(x[i], y[i], v0[i]),
                                                _pair_of(step.layers, i, n), _pair_of(step.proposals, i, n),
                                                step.x_next[rows], step.y_next[rows])
                if not report.passed:
                    lemma_failures += 1
    mean = total / trials
    var = max(total_sq / trials - mean * mean, 0.0)
    stderr = (var / trials) ** 0.5
    return ContractionEstimate(trials=trials, mean=mean, stderr=stderr, max_phi=max_phi, lemma_failures=lemma_failures)
