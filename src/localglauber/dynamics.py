"""The round-synchronous local Glauber dynamics and a sequential baseline.

One round: every node independently marks itself with probability gamma
and, if marked, proposes a uniformly random color. A marked node adopts
its proposal only when (i) the proposal avoids every neighbor's current
color and effective proposal, and (ii) no marked neighbor proposes the
node's own current color; everyone else keeps their color. Unmarked nodes
act as if they proposed their current color, which is what condition (i)
checks against; extending condition (ii) to those implicit proposals
would only add the constraint "no unmarked neighbor shares my color",
which never binds on a proper coloring.

All decisions in a round read the round-start state, so the update is a
pure function of (state, round randomness) and node evaluation order is
irrelevant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._stream import stream
from .errors import ParameterError, ValidationError
from .graph import Graph, _neighbor_lists, _neighbors

# Documented fixed default; never derived from the clock.
DEFAULT_SEED = 12345

# Directed edges that is_proper compares at once.
_PROPER_BLOCK = 1 << 16


@dataclass(frozen=True)
class ChainConfig:
    """Parameters of one dynamics instance: colors q, marking probability gamma, RNG seed."""

    q: int
    gamma: float
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        if not isinstance(self.q, (int, np.integer)):
            raise ParameterError(f"q must be an integer, got {self.q!r}")
        if self.q < 1:
            raise ParameterError(f"q must be >= 1, got {self.q}")
        if self.q > 1 << 63:
            raise ParameterError(f"q must be <= 2^63, so that proposals drawn from [0, q) fit in int64, got {self.q}")
        if not 0.0 < self.gamma < 1.0:
            raise ParameterError(f"gamma must lie in (0,1), got {self.gamma}")


@dataclass(frozen=True)
class RoundRandomness:
    """Per-node randomness of one round.

    marked[v] is True with marginal probability gamma; proposal[v] is
    uniform on [0,q) and only meaningful when marked[v]. All entries are
    mutually independent.
    """

    marked: np.ndarray
    proposal: np.ndarray


def draw_round_randomness(
    cfg: ChainConfig, n: int, round_index: int, rng: np.random.Generator | None = None
) -> RoundRandomness:
    """Counter-based randomness for one round.

    A Philox stream keyed on (seed, round_index) yields the whole round in
    one block, so the result depends only on (seed, node id, round) and is
    identical under any iteration order or thread schedule. `rng`, when
    given, is re-keyed for the round instead of building a new generator
    (see `_stream.stream`).
    """
    if round_index < 0:
        raise ParameterError("round_index must be >= 0")
    return _marks_then_proposals(stream(cfg.seed, round_index, reuse=rng), cfg, n)


def _marks_then_proposals(rng: np.random.Generator, cfg: ChainConfig, n: int) -> RoundRandomness:
    """n marks, then n proposals, from rng: the draw order every seeded stream relies on."""
    marked = rng.random(n) < cfg.gamma
    return RoundRandomness(marked=marked, proposal=rng.integers(0, cfg.q, size=n, dtype=np.int64))


def apply_proposals(g: Graph, x: np.ndarray, marked: np.ndarray, proposal: np.ndarray):
    """Resolve one round of proposals; returns (new_colors, accepted_mask).

    A marked node v with proposal c_v is accepted iff for every neighbor u
    (e_u being u's effective proposal: its own proposal when marked, else
    its current color):
        (i)  c_v != x[u]  and  c_v != e_u
        (ii) if u is marked: c_u != x[v]
    Condition (ii) rejects moves whose reverse move condition (i) would
    block, which is what makes the chain reversible on proper colorings.
    """
    # Only a marked node can accept, so only the edges s -> d with s marked
    # are read.
    sel = np.flatnonzero(marked[g.edge_src])
    src, dst = g.edge_src[sel], g.edge_dst[sel]
    clash = _clashes(proposal[src], proposal[dst], x[src], x[dst], marked[dst])
    accepted = marked.copy()
    accepted[src[clash]] = False
    return np.where(accepted, proposal, x), accepted


def _clashes(ps, pd, xs, xd, marked_d):
    """Conditions (i) and (ii) of `apply_proposals`: True on each directed edge s -> d that blocks s's proposal.

    This is the only place the acceptance rule is written; the exact builder
    calls it too. ps and pd are the proposals of s and d, xs and xd their
    current colors and marked_d whether d is marked, all aligned per edge;
    they broadcast together, so they may carry a trailing batch axis. pd is
    read only where d is marked, and entries where s is unmarked mean nothing.
    """
    clash = ps == pd
    clash |= pd == xs
    clash &= marked_d
    clash |= ps == xd
    return clash


@dataclass(frozen=True)
class RoundStats:
    round_index: int
    marked: int
    accepted: int
    conflicts: int
    proper: bool


def run_chain(g: Graph, cfg: ChainConfig, x0: np.ndarray, rounds: int, observe=None) -> np.ndarray:
    """Iterate the dynamics for `rounds` rounds from x0 (deterministic in cfg.seed).

    `observe(t, rr, accepted, x)`, when given, runs after round t with that
    round's randomness, its accepted mask and the new coloring.
    """
    if rounds < 0:
        raise ParameterError("rounds must be >= 0")
    validate_coloring(g, cfg.q, x0)
    x = np.array(x0, dtype=np.int64)
    rng = stream(cfg.seed, 0)  # this call's own generator, re-keyed every round
    for t in range(rounds):
        rr = draw_round_randomness(cfg, g.node_count, t, rng)
        x, accepted = apply_proposals(g, x, rr.marked, rr.proposal)
        if observe is not None:
            observe(t, rr, accepted, x)
    return x


def run_chain_trace(g: Graph, cfg: ChainConfig, x0: np.ndarray, rounds: int):
    """run_chain that also returns one RoundStats per round."""
    trace: list[RoundStats] = []

    def record(t, rr, accepted, x):
        n_marked = int(np.count_nonzero(rr.marked))
        n_accepted = int(np.count_nonzero(accepted))
        trace.append(RoundStats(t, n_marked, n_accepted, n_marked - n_accepted, is_proper(g, x)))

    return run_chain(g, cfg, x0, rounds, observe=record), trace


def sequential_glauber_step(g: Graph, q: int, x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Classical single-site heat-bath update, for baseline comparisons.

    Picks a uniform node and resamples its color uniformly from the colors
    not currently used by its neighbors. Requires q > max_degree so that
    the available set is never empty.
    """
    v = int(rng.integers(g.node_count))
    taken = set(np.asarray(x)[_neighbors(g, v)].tolist())
    avail = [c for c in range(q) if c not in taken]
    if not avail:
        raise ParameterError(f"node {v} has no available color (need q > max_degree)")
    out = np.array(x, dtype=np.int64)
    out[v] = avail[int(rng.integers(len(avail)))]
    return out


def is_proper(g: Graph, x: np.ndarray) -> bool:
    """True iff no edge is monochromatic.

    The edge arrays are compared a block at a time, so the temporaries stay
    small and an improper coloring is rejected at its first bad block.
    """
    src, dst = g.edge_src, g.edge_dst
    for lo in range(0, src.size, _PROPER_BLOCK):
        if (x[src[lo:lo + _PROPER_BLOCK]] == x[dst[lo:lo + _PROPER_BLOCK]]).any():
            return False
    return True


def validate_coloring(g: Graph, q: int, x: np.ndarray) -> None:
    x = np.asarray(x)
    if x.shape != (g.node_count,):
        raise ValidationError(f"coloring length {x.shape} != node count {g.node_count}")
    if not np.issubdtype(x.dtype, np.integer):
        raise ValidationError(f"colors must be integers, got dtype {x.dtype}")
    if x.size and (x.min() < 0 or x.max() >= q):
        raise ValidationError(f"colors outside [0,{q})")


def zeros_coloring(g: Graph) -> np.ndarray:
    """Default start: every node color 0 (improper on any graph with an edge)."""
    return np.zeros(g.node_count, dtype=np.int64)


def random_coloring(g: Graph, q: int, rng: np.random.Generator) -> np.ndarray:
    return rng.integers(0, q, size=g.node_count, dtype=np.int64)


def greedy_coloring(g: Graph, q: int) -> np.ndarray:
    """First-fit proper coloring; needs q >= max_degree + 1 in the worst case."""
    x = [-1] * g.node_count
    for v, nbrs in enumerate(_neighbor_lists(g)):
        taken = {x[u] for u in nbrs}
        for c in range(q):
            if c not in taken:
                x[v] = c
                break
        else:
            raise ParameterError(f"greedy coloring failed at node {v} with q={q}")
    return np.array(x, dtype=np.int64)
