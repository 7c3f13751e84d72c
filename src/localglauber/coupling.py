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

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from ._stream import stream
from .dynamics import (
    ChainConfig, RoundRandomness, _marks_then_proposals, apply_proposals, greedy_coloring, run_chain,
)
from .errors import ParameterError, ValidationError
from .graph import Graph


@dataclass(frozen=True)
class AdjacentPair:
    """Colorings x and y that agree everywhere except node v0.

    r = x[v0] and b = y[v0] are the "red" and "blue" colors of the
    construction; they must differ.
    """

    x: np.ndarray
    y: np.ndarray
    v0: int
    r: int
    b: int

    @classmethod
    def make(cls, x: np.ndarray, y: np.ndarray, v0: int) -> "AdjacentPair":
        pair = cls(
            x=np.asarray(x, dtype=np.int64),
            y=np.asarray(y, dtype=np.int64),
            v0=int(v0),
            r=int(x[v0]),
            b=int(y[v0]),
        )
        pair.validate()
        return pair

    def validate(self) -> None:
        if self.x.shape != self.y.shape:
            raise ValidationError("x and y have different lengths")
        diff = np.flatnonzero(self.x != self.y)
        if len(diff) != 1 or diff[0] != self.v0:
            raise ValidationError(f"pair must differ exactly at v0={self.v0}, differs at {diff.tolist()}")
        if self.r == self.b:
            raise ValidationError("r and b must differ")
        if self.x[self.v0] != self.r or self.y[self.v0] != self.b:
            raise ValidationError("r/b out of sync with the colorings at v0")


class ProposalMode(IntEnum):
    UNMARKED = 0
    CONSISTENT = 1
    MIRRORED = 2


@dataclass(frozen=True)
class ProposalPair:
    """Per-node effective proposals of both chains plus the sampling mode."""

    cx: np.ndarray
    cy: np.ndarray
    mode: np.ndarray

    def flipped_nodes(self) -> np.ndarray:
        return np.flatnonzero(self.cx != self.cy)


@dataclass(frozen=True)
class CouplingLayers:
    """Derived node sets of one coupled round.

    B: nodes other than v0 currently colored r or b.
    K: inclusive neighborhood of B, minus v0 (B is a subset of K).
    S: marked nodes outside K, v0 excluded.
    M[d]/F[d]: breadth-first layers and their flipped subsets; M[0] = F[0] = {v0}
    by definition, whether or not v0 is marked.
    """

    B: frozenset
    K: frozenset
    S: frozenset
    M: tuple
    F: tuple

    def layer_of(self, v: int) -> int | None:
        for d, layer in enumerate(self.M):
            if v in layer:
                return d
        return None


def classify_nodes(g: Graph, pair: AdjacentPair):
    """The sets B (red/blue-colored nodes except v0) and K (their closed neighborhood minus v0)."""
    pair.validate()
    rb = {pair.r, pair.b}
    B = {v for v in range(g.node_count) if v != pair.v0 and int(pair.x[v]) in rb}
    K = set()
    for v in B:
        K.add(v)
        K.update(g.adjacency[v])
    K.discard(pair.v0)
    return B, K


def assign_coupled_proposals(
    g: Graph,
    pair: AdjacentPair,
    marked: np.ndarray,
    draws: np.ndarray,
):
    """Breadth-first assignment of coupled proposals; returns (ProposalPair, CouplingLayers).

    `draws` holds one uniform color per node (used only where marked); the
    mode merely reinterprets the draw, which keeps each chain's marginal
    uniform. Layer d+1 collects the not-yet-layered marked nodes of S that
    neighbor a flipped node of layer d.
    """
    pair.validate()
    n = g.node_count
    v0, r, b = pair.v0, pair.r, pair.b
    marked = np.asarray(marked, dtype=bool)
    draws = np.asarray(draws, dtype=np.int64)

    B, K = classify_nodes(g, pair)
    S = {v for v in range(n) if marked[v] and v != v0 and v not in K}

    # Defaults: unmarked nodes effectively propose their current colors
    # (which differ at v0 when v0 is unmarked); marked nodes sample
    # consistently unless a layer reassigns them to mirrored mode.
    cx = np.where(marked, draws, pair.x)
    cy = np.where(marked, draws, pair.y)
    mode = np.where(marked, ProposalMode.CONSISTENT, ProposalMode.UNMARKED).astype(np.int8)

    M: list[frozenset] = [frozenset({v0})]
    F: list[frozenset] = [frozenset({v0})]
    assigned = {v0}
    while F[-1]:
        frontier = set()
        for w in F[-1]:
            frontier.update(g.adjacency[w])
        nxt = (frontier & S) - assigned
        if not nxt:
            break
        flipped = set()
        for v in nxt:
            mode[v] = ProposalMode.MIRRORED
            c = int(draws[v])
            if c == r:
                cx[v], cy[v] = r, b
                flipped.add(v)
            elif c == b:
                cx[v], cy[v] = b, r
                flipped.add(v)
            # draws outside {r, b} stay consistent: cx = cy = c already
        assigned |= nxt
        M.append(frozenset(nxt))
        F.append(frozenset(flipped))

    layers = CouplingLayers(
        B=frozenset(B), K=frozenset(K), S=frozenset(S), M=tuple(M), F=tuple(F)
    )
    return ProposalPair(cx=cx, cy=cy, mode=mode), layers


@dataclass(frozen=True)
class CoupledStep:
    x_next: np.ndarray
    y_next: np.ndarray
    proposals: ProposalPair
    layers: CouplingLayers
    marked: np.ndarray


def coupled_step(g: Graph, pair: AdjacentPair, cfg: ChainConfig, rr: RoundRandomness) -> CoupledStep:
    """One coupled round: shared marks, coupled proposals, the usual acceptance rule per chain."""
    if cfg.q < 2:
        raise ParameterError("coupling needs q >= 2 (two colors must differ at v0)")
    proposals, layers = assign_coupled_proposals(g, pair, rr.marked, rr.proposal)
    x_next, _ = apply_proposals(g, pair.x, rr.marked, proposals.cx)
    y_next, _ = apply_proposals(g, pair.y, rr.marked, proposals.cy)
    return CoupledStep(x_next=x_next, y_next=y_next, proposals=proposals, layers=layers, marked=rr.marked)


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
    differing = [int(v) for v in np.flatnonzero(x_next != y_next) if v != v0]
    witnesses: dict[int, tuple] = {}
    violations: list[LemmaViolation] = []

    for v in differing:
        if v in layers.S:
            path = _flip_path_witness(g, layers, proposals, pair, v)
            if path is None:
                violations.append(LemmaViolation(v, "differing S-node without a valid flip path"))
            else:
                witnesses[v] = path
        elif v in layers.K:
            cxv, cyv = int(proposals.cx[v]), int(proposals.cy[v])
            if cxv != cyv:
                violations.append(LemmaViolation(v, "differing K-node with flipped proposals"))
                continue
            if cxv not in (pair.r, pair.b):
                violations.append(LemmaViolation(v, f"differing K-node proposed {cxv}, not r/b"))
                continue
            path = _almost_flip_path_witness(g, layers, v)
            if path is None:
                violations.append(LemmaViolation(v, "differing K-node without an almost flip path"))
            else:
                witnesses[v] = path
        else:
            violations.append(LemmaViolation(v, "differing node outside S and K"))

    return LemmaReport(differing_nodes=differing, witnesses=witnesses, violations=violations)


def _flip_path_witness(g, layers, proposals, pair, v):
    """Backward search for (v0, w1 in F[1], ..., v in F[l]) with the flipped last hop."""
    d = layers.layer_of(v)
    if d is None or d < 1 or v not in layers.F[d]:
        return None
    cxv, cyv = int(proposals.cx[v]), int(proposals.cy[v])
    if d == 1:
        # Predecessor is v0 itself; the lemma pins the proposal to the
        # opposite of v0's current color in each chain.
        if pair.v0 in g.adjacency[v] and cxv == pair.b and cyv == pair.r:
            return (pair.v0, v)
        return None
    nbrs = set(g.adjacency[v])
    candidates = {
        w for w in layers.F[d - 1] & nbrs
        if int(proposals.cy[w]) == cxv and int(proposals.cx[w]) == cyv
    }
    # Chain candidates back through F[d-2], ..., F[1]; interior hops only
    # need layer membership and adjacency.
    return _chain_back(g, layers, candidates, d - 1, (v,))


def _almost_flip_path_witness(g, layers, v):
    """Backward search for (v0, w1 in F[1], ..., w_{l-1} in F[l-1], v in K)."""
    nbrs = set(g.adjacency[v])
    for d in range(len(layers.F)):
        candidates = layers.F[d] & nbrs
        if not candidates:
            continue
        if d == 0:
            return (next(iter(layers.M[0])), v)
        path = _chain_back(g, layers, candidates, d, (v,))
        if path is not None:
            return path
    return None


def _chain_back(g, layers, candidates, depth, suffix):
    """Extend a partial path (candidates at F[depth]) back to v0; returns a full path or None."""
    level = {w: (w,) + suffix for w in candidates}
    for d in range(depth, 0, -1):
        if not level:
            return None
        if d == 1:
            v0 = next(iter(layers.M[0]))
            for w, path in level.items():
                if v0 in g.adjacency[w]:
                    return (v0,) + path
            return None
        prev = {}
        for w, path in level.items():
            for u in g.adjacency[w]:
                if u in layers.F[d - 1] and u not in prev:
                    prev[u] = (u,) + path
        level = prev
    return None


@dataclass
class ContractionEstimate:
    """Monte Carlo estimate of the expected coupled distance after one round."""

    trials: int
    mean: float
    stderr: float
    max_phi: int
    lemma_failures: int

    def as_dict(self) -> dict:
        return {
            "trials": self.trials,
            "mean_phi": self.mean,
            "stderr": self.stderr,
            "max_phi": self.max_phi,
            "lemma_failures": self.lemma_failures,
        }


PAIR_SAMPLERS = ("uniform_random", "proper_random")


def sample_adjacent_pair(
    g: Graph,
    q: int,
    rng: np.random.Generator,
    sampler: str = "uniform_random",
    cfg: ChainConfig | None = None,
    burn_rounds: int = 0,
) -> AdjacentPair:
    """Draw an adjacent pair: X arbitrary uniform, or a burned-in chain state."""
    if sampler == "uniform_random":
        x = rng.integers(0, q, size=g.node_count, dtype=np.int64)
    elif sampler == "proper_random":
        if q <= g.max_degree:
            raise ParameterError("proper_random sampling needs q > max_degree")
        if cfg is None:
            raise ParameterError("proper_random sampling needs a chain config")
        burn_cfg = ChainConfig(q=q, gamma=cfg.gamma, seed=int(rng.integers(0, 2**63 - 1)))
        x = run_chain(g, burn_cfg, greedy_coloring(g, q), burn_rounds)
    else:
        raise ParameterError(f"unknown pair sampler {sampler!r}; expected one of {PAIR_SAMPLERS}")
    v0 = int(rng.integers(g.node_count))
    y = np.array(x)
    shift = 1 + int(rng.integers(q - 1))
    y[v0] = (x[v0] + shift) % q
    return AdjacentPair.make(x, y, v0)


def contraction_experiment(
    g: Graph,
    cfg: ChainConfig,
    trials: int,
    pair_sampler: str = "uniform_random",
    burn_rounds: int = 50,
    check_lemmas: bool = False,
) -> ContractionEstimate:
    """Average the coupled one-round distance phi(X', Y') over sampled adjacent pairs.

    Trials use independent Philox streams keyed on (cfg.seed, trial), so
    they are reproducible and order independent.
    """
    if trials < 0:
        raise ParameterError("trials must be >= 0")
    if trials == 0:
        return ContractionEstimate(trials=0, mean=float("nan"), stderr=float("nan"), max_phi=0, lemma_failures=0)
    total = 0.0
    total_sq = 0.0
    max_phi = 0
    lemma_failures = 0
    for trial in range(trials):
        rng = stream(cfg.seed, trial)
        pair = sample_adjacent_pair(g, cfg.q, rng, sampler=pair_sampler, cfg=cfg, burn_rounds=burn_rounds)
        step = coupled_step(g, pair, cfg, _marks_then_proposals(rng, cfg, g.node_count))
        phi = hamming_distance(step.x_next, step.y_next)
        total += phi
        total_sq += phi * phi
        max_phi = max(max_phi, phi)
        if check_lemmas:
            report = check_flip_path_lemmas(g, pair, step.layers, step.proposals, step.x_next, step.y_next)
            if not report.passed:
                lemma_failures += 1
    mean = total / trials
    var = max(total_sq / trials - mean * mean, 0.0)
    stderr = (var / trials) ** 0.5
    return ContractionEstimate(trials=trials, mean=mean, stderr=stderr, max_phi=max_phi, lemma_failures=lemma_failures)
