"""Simple undirected graphs: representation, generators, and edge-list I/O.

Nodes are dense integers ``0..n-1`` so that colorings can live in flat
numpy arrays. Graphs are immutable after construction and safe to share.
Construction and the generators work on numpy edge arrays, and the sorted
directed edge arrays are the only representation a graph keeps.
"""

from __future__ import annotations

import operator

import numpy as np

from ._stream import stream
from .errors import ParameterError, ParseError, ResourceLimitError, ValidationError

# The parameters each generator family takes.
_FAMILY_PARAMETERS = {
    "cycle": {"n"}, "path": {"n"}, "complete": {"n"}, "star": {"n"},
    "grid2d": {"rows", "cols"}, "erdos_renyi": {"n", "p"},
}
GENERATOR_FAMILIES = tuple(_FAMILY_PARAMETERS)

# Largest node count of any graph, and largest number of node pairs that
# `complete` and `erdos_renyi` enumerate. Checked before anything of that
# size is allocated; it also keeps the u*n+v edge keys inside int64.
SIZE_CAP = 1 << 24

# Uniforms drawn at once by erdos_renyi (whole rows, at least one row).
_ER_CHUNK = 1 << 20


class Graph:
    """Undirected simple graph over nodes ``0..n-1``.

    `edges` is an (m, 2) integer array or any iterable of (u, v) pairs;
    duplicates in either orientation collapse.

    Attributes:
        node_count: number of nodes n.
        edge_src, edge_dst: aligned int64 arrays listing every directed
            orientation of every edge, sorted by source, then destination
            (so `edge_dst` is the CSR column array, and the neighbors of v
            are the slice of `edge_dst` where `edge_src` equals v).
        max_degree: largest degree (0 for edgeless graphs).
    """

    __slots__ = ("node_count", "max_degree", "edge_src", "edge_dst")

    def __init__(self, node_count: int, edges) -> None:
        if node_count < 1:
            raise ParameterError(f"node_count must be >= 1, got {node_count}")
        _check_cap(node_count, "nodes")
        n = operator.index(node_count)
        if not isinstance(edges, np.ndarray):
            edges = list(edges)
        try:
            uv = np.asarray(edges, dtype=np.int64)
        except OverflowError:  # ids beyond int64 are out of range; find them as Python ints
            uv = np.asarray(edges, dtype=object)
        if uv.size == 0:
            uv = uv.reshape(0, 2)
        elif uv.shape[1:] != (2,):
            raise ValueError(f"edges must be (u, v) pairs, got an array of shape {uv.shape}")
        u, v = uv[:, 0], uv[:, 1]
        bad = (u == v) | (u < 0) | (u >= n) | (v < 0) | (v >= n)
        if bad.any():
            bu, bv = uv[np.argmax(bad)].tolist()
            if bu == bv:
                raise ValidationError(f"self-loop at node {bu}")
            raise ValidationError(f"edge ({bu},{bv}) outside [0,{n})")
        # One key per directed orientation; sorting orders them by (source,
        # destination) and puts duplicates next to each other.
        keys = np.sort(np.concatenate((u * n + v, v * n + u)))
        if keys.size:
            keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
        self.node_count = node_count
        self.edge_src, self.edge_dst = np.divmod(keys, n)
        self.max_degree = int(np.bincount(self.edge_src).max()) if keys.size else 0

    @property
    def edge_count(self) -> int:
        return len(self.edge_src) // 2

    def edges(self) -> list[tuple[int, int]]:
        """Undirected edge list with u < v, sorted."""
        up = self.edge_src < self.edge_dst
        return list(zip(self.edge_src[up].tolist(), self.edge_dst[up].tolist()))

    def __repr__(self) -> str:
        return f"Graph(n={self.node_count}, m={self.edge_count}, max_degree={self.max_degree})"


def _neighbors(g: Graph, v: int) -> np.ndarray:
    """The neighbors of v, as a slice of `g.edge_dst`."""
    lo, hi = np.searchsorted(g.edge_src, (v, v + 1))
    return g.edge_dst[lo:hi]


def _copies(g: Graph, k: int) -> Graph:
    """k disjoint copies of g, copy i on nodes i*n .. i*n + n - 1; g itself when k is 1.

    The copies' edge arrays are g's, shifted per copy, so they are already
    in the order `Graph` keeps them, and no edge needs checking again.
    """
    if k == 1:
        return g
    h = Graph.__new__(Graph)
    shift = np.arange(k, dtype=np.int64)[:, None] * g.node_count
    h.node_count = k * g.node_count
    h.max_degree = g.max_degree
    h.edge_src = (shift + g.edge_src).ravel()
    h.edge_dst = (shift + g.edge_dst).ravel()
    return h


def _neighbor_lists(g: Graph) -> list[list[int]]:
    """Every node's neighbors as Python ints, for loops that visit them all."""
    starts = np.searchsorted(g.edge_src, np.arange(g.node_count + 1)).tolist()
    dst = g.edge_dst.tolist()
    return [dst[a:b] for a, b in zip(starts[:-1], starts[1:])]


def _check_cap(count: int, what: str) -> None:
    if count > SIZE_CAP:
        raise ResourceLimitError(f"{count:,} {what} exceed the graph size cap of {SIZE_CAP:,}")


def generate(family: str, seed: int = 0, **params) -> Graph:
    """Deterministically build a test-family graph.

    Supported families and their parameters:
        cycle(n>=3), path(n>=1), complete(n>=1), star(n>=1, center 0),
        grid2d(rows>=1, cols>=1), erdos_renyi(n>=1, p in [0,1]).

    A size is an int or a string of one, and p a number or a string of
    one; a parameter the family does not take is a ParameterError.

    The result is a pure function of (family, params, seed); only
    erdos_renyi consumes the seed. Sizes above SIZE_CAP nodes (or node
    pairs, for complete and erdos_renyi) raise ResourceLimitError.
    """
    if family not in _FAMILY_PARAMETERS:
        raise ParameterError(f"unknown family {family!r}; expected one of {GENERATOR_FAMILIES}")
    allowed = _FAMILY_PARAMETERS[family]
    if not params.keys() <= allowed:
        extra = sorted(params.keys() - allowed)
        raise ParameterError(f"{family} takes no parameter {extra[0]!r}; it takes {sorted(allowed)}")
    if family == "grid2d":
        rows = _size(params, "rows")
        cols = _size(params, "cols")
        n = rows * cols
        _check_cap(n, "nodes")
        idx = np.arange(n, dtype=np.int64).reshape(rows, cols)
        u = np.concatenate((idx[:, :-1].ravel(), idx[:-1, :].ravel()))
        v = np.concatenate((idx[:, 1:].ravel(), idx[1:, :].ravel()))
        return Graph(n, np.array((u, v)).T)
    n = _size(params, "n")
    _check_cap(n, "nodes")
    nodes = np.arange(n, dtype=np.int64)
    if family == "cycle":
        if n < 3:
            raise ParameterError("cycle needs n >= 3")
        u, v = nodes, (nodes + 1) % n
    elif family == "path":
        u, v = nodes[:-1], nodes[1:]
    elif family == "star":
        u, v = np.zeros(n - 1, dtype=np.int64), nodes[1:]
    elif family == "complete":
        _check_cap(n * (n - 1) // 2, "node pairs")
        u, v = np.triu_indices(n, 1)
    else:
        if "p" not in params:
            raise ParameterError("missing parameter 'p'")
        try:
            p = float(params["p"])
        except (TypeError, ValueError):
            raise ParameterError(f"erdos_renyi needs a number p, got {params['p']!r}") from None
        if not 0.0 <= p <= 1.0:
            raise ParameterError(f"erdos_renyi needs p in [0,1], got {p}")
        _check_cap(n * (n - 1) // 2, "node pairs")
        u, v = _erdos_renyi_edges(n, p, seed)
    return Graph(n, np.array((u, v)).T)


def _erdos_renyi_edges(n: int, p: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Pairs i < j kept when their uniform is below p, as (i, j) arrays.

    The uniforms come from one Philox stream in row-major order of the upper
    triangle (row i holds j = i+1..n-1); they are drawn a block of whole
    rows at a time, which yields the same numbers as one draw per row.
    """
    rng = stream(seed, 0)
    row_len = np.arange(n - 1, -1, -1, dtype=np.int64)
    row_end = np.cumsum(row_len)
    row_start = row_end - row_len
    rows, cols = [], []
    lo = 0
    while lo < n:
        start = int(row_start[lo])
        hi = max(lo + 1, int(np.searchsorted(row_end, start + _ER_CHUNK, side="right")))
        flat = np.flatnonzero(rng.random(int(row_end[hi - 1]) - start) < p) + start
        i = np.searchsorted(row_end, flat, side="right")
        rows.append(i)
        cols.append(flat - row_start[i] + i + 1)
        lo = hi
    return np.concatenate(rows), np.concatenate(cols)


def _size(params, key) -> int:
    """params[key] as a size >= 1: an int, or a string that spells one (5.5 and "5.5" are refused)."""
    if key not in params:
        raise ParameterError(f"missing parameter {key!r}")
    raw = params[key]
    try:
        value = int(raw) if isinstance(raw, str) else operator.index(raw)
    except (TypeError, ValueError):
        raise ParameterError(f"parameter {key!r} must be an integer, got {raw!r}") from None
    if value < 1:
        raise ParameterError(f"parameter {key!r} must be >= 1, got {value}")
    return value


def parse_edge_list(text):
    """Parse whitespace-separated "u v" lines into a Graph.

    Blank lines and lines starting with '#' are ignored; duplicate edges
    collapse; self-loops are rejected. Node count is 1 + max id seen, so
    ids absent from the file become isolated nodes; a node count above
    SIZE_CAP raises ResourceLimitError.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8-sig")
        except UnicodeDecodeError as e:
            raise ParseError("not UTF-8 text", line=text.count(b"\n", 0, e.start) + 1) from None
    edges: list[tuple[int, int]] = []
    max_id = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"expected two tokens, got {len(parts)}", line=lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"non-integer token in {line!r}", line=lineno) from None
        if u < 0 or v < 0:
            raise ParseError("negative node id", line=lineno)
        if u == v:
            raise ValidationError(f"self-loop at node {u} (line {lineno})")
        edges.append((u, v))
        max_id = max(max_id, u, v)
    return Graph(max_id + 1 if max_id >= 0 else 1, edges)


def cycle_automorphisms(n: int) -> list[np.ndarray]:
    """All 2n dihedral node permutations of the n-cycle (as index arrays)."""
    base = np.arange(n)
    perms = []
    for shift in range(n):
        rot = (base + shift) % n
        perms.append(rot)
        perms.append(rot[::-1].copy())
    return perms
