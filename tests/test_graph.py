import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localglauber import (
    Graph,
    ParameterError,
    ParseError,
    ResourceLimitError,
    ValidationError,
    generate,
    parse_edge_list,
)
from localglauber import graph as graph_module
from localglauber.graph import SIZE_CAP

from helpers import ReferenceGraph, address_space_limit, reference_erdos_renyi_edges


def test_cycle_structure():
    g = generate("cycle", n=4)
    assert g.node_count == 4
    assert g.edge_count == 4
    assert g.max_degree == 2


def test_complete_structure():
    g = generate("complete", n=5)
    assert g.edge_count == 10
    assert g.max_degree == 4


def test_path_star_grid():
    assert generate("path", n=3).edges() == [(0, 1), (1, 2)]
    star = generate("star", n=5)
    assert np.count_nonzero(star.edge_src == 0) == 4 and star.max_degree == 4
    grid = generate("grid2d", rows=3, cols=4)
    assert grid.node_count == 12
    assert grid.edge_count == 3 * 3 + 2 * 4  # rows*(cols-1) + (rows-1)*cols


def test_erdos_renyi_deterministic():
    a = generate("erdos_renyi", n=20, p=0.1, seed=7)
    b = generate("erdos_renyi", n=20, p=0.1, seed=7)
    assert a.edges() == b.edges()
    c = generate("erdos_renyi", n=20, p=0.1, seed=8)
    assert a.edges() != c.edges()  # overwhelmingly likely for a new seed


def test_generator_invariants_hold():
    cases = [
        generate("cycle", n=7),
        generate("path", n=1),
        generate("complete", n=6),
        generate("star", n=1),
        generate("grid2d", rows=2, cols=5),
        generate("erdos_renyi", n=30, p=0.2, seed=3),
        generate("erdos_renyi", n=10, p=0.0, seed=0),
        generate("erdos_renyi", n=10, p=1.0, seed=0),
    ]
    for g in cases:
        assert_same_graph(g, ReferenceGraph(g.node_count, g.edges()))


def test_generator_parameter_errors():
    with pytest.raises(ParameterError):
        generate("cycle", n=2)
    with pytest.raises(ParameterError):
        generate("erdos_renyi", n=5, p=1.5)
    with pytest.raises(ParameterError):
        generate("path")
    with pytest.raises(ParameterError):
        generate("moebius", n=5)
    with pytest.raises(ParameterError):
        generate("grid2d", rows=0, cols=3)
    with pytest.raises(ParameterError):
        generate("erdos_renyi", n=5, p="x")
    # Sizes are integers, never truncated; a key the family does not take is named.
    for params in ({"n": 5.5}, {"n": "5.5"}, {"n": 5.0}, {"n": None}):
        with pytest.raises(ParameterError, match="parameter 'n' must be an integer"):
            generate("cycle", **params)
    with pytest.raises(ParameterError, match="parameter 'rows' must be an integer"):
        generate("grid2d", rows=2.9, cols=3)
    with pytest.raises(ParameterError, match="cycle takes no parameter 'p'"):
        generate("cycle", n=5, p=0.3)
    with pytest.raises(ParameterError, match="erdos_renyi takes no parameter 'P'"):
        generate("erdos_renyi", n=5, P=0.1)
    with pytest.raises(ParameterError, match="missing parameter 'p'"):
        generate("erdos_renyi", n=5)
    # Strings that spell a size or a probability are what the CLI passes.
    assert generate("cycle", n="5").edges() == generate("cycle", n=5).edges()
    spelled = generate("erdos_renyi", n="20", p="0.3", seed=2)
    assert spelled.edges() == generate("erdos_renyi", n=20, p=0.3, seed=2).edges()


def test_parse_basic_path():
    g = parse_edge_list("0 1\n1 2")
    assert g.node_count == 3
    assert g.max_degree == 2
    assert g.edges() == [(0, 1), (1, 2)]


def test_parse_duplicate_edges_collapse():
    g = parse_edge_list("0 1\n0 1")
    assert g.edge_count == 1


def test_parse_rejects_self_loop():
    with pytest.raises(ValidationError):
        parse_edge_list("3 3")


def test_parse_error_carries_line_number():
    with pytest.raises(ParseError) as err:
        parse_edge_list("0 1\nfoo 2\n")
    assert err.value.line == 2
    with pytest.raises(ParseError):
        parse_edge_list("0 1 2")


def test_parse_skips_comments_and_blanks():
    g = parse_edge_list(b"# header\n\n0 1\n  \n# trailing\n1 2\n")
    assert g.edges() == [(0, 1), (1, 2)]


def test_parse_gap_ids_become_isolated_nodes():
    g = parse_edge_list("0 5")
    assert g.node_count == 6
    assert 3 not in g.edge_src.tolist()


def test_graph_rejects_bad_edges():
    with pytest.raises(ValidationError):
        Graph(3, [(0, 0)])
    with pytest.raises(ValidationError):
        Graph(3, [(0, 5)])
    with pytest.raises(ParameterError):
        Graph(0, [])


def test_edge_arrays_consistent():
    g = generate("cycle", n=5)
    assert len(g.edge_src) == 2 * g.edge_count
    back = set(zip(g.edge_src.tolist(), g.edge_dst.tolist()))
    assert all((v, u) in back for u, v in back)


# --- the array-based constructor against the set-based one it replaced -----


def assert_same_graph(g, ref):
    assert g.node_count == ref.node_count
    for got, want in ((g.edge_src, ref.edge_src), (g.edge_dst, ref.edge_dst)):
        assert got.dtype == np.int64
        assert np.array_equal(got, want)
    assert g.max_degree == ref.max_degree
    assert g.edges() == ref.edges()
    assert g.edge_count == ref.edge_count


@st.composite
def edge_lists(draw, max_nodes=12):
    """(n, edges): simple edges given as pairs with duplicates in both orientations."""
    n = draw(st.integers(1, max_nodes))
    edges = []
    if n > 1:
        ends = st.tuples(st.integers(0, n - 1), st.integers(1, n - 1))
        edges = [(u, (u + d) % n) for u, d in draw(st.lists(ends, max_size=3 * n))]
    if edges:
        again = draw(st.lists(st.sampled_from(edges), max_size=len(edges)))
        edges += [(v, u) if draw(st.booleans()) else (u, v) for u, v in again]
        edges = draw(st.permutations(edges))
    return n, edges


@settings(max_examples=300, deadline=None)
@given(edge_lists())
def test_matches_set_based_constructor(case):
    n, edges = case
    ref = ReferenceGraph(n, edges)
    assert_same_graph(Graph(n, edges), ref)
    assert_same_graph(Graph(n, iter(edges)), ref)
    assert_same_graph(Graph(n, np.array(edges, dtype=np.int64).reshape(-1, 2)), ref)


@settings(max_examples=300, deadline=None)
@given(edge_lists(), st.data())
def test_bad_edges_raise_like_set_based_constructor(case, data):
    n, edges = case
    u = data.draw(st.integers(-3, n + 3) | st.integers(-(2**70), 2**70), label="u")
    v = data.draw(st.just(u) | st.integers(-3, n + 3) | st.integers(-(2**70), 2**70), label="v")
    if u != v and 0 <= u < n and 0 <= v < n:
        v = u  # make it a self-loop
    edges = list(edges)
    edges.insert(data.draw(st.integers(0, len(edges)), label="at"), (u, v))
    with pytest.raises(ValidationError) as want:
        ReferenceGraph(n, edges)
    with pytest.raises(ValidationError) as got:
        Graph(n, edges)
    assert str(got.value) == str(want.value)
    if max(abs(u), abs(v)) < 2**63:
        with pytest.raises(ValidationError) as got:
            Graph(n, np.array(edges, dtype=np.int64))
        assert str(got.value) == str(want.value)


@pytest.mark.parametrize("node_count,edges,error", [
    (0, [], ParameterError),
    (-1, [], ParameterError),
    (5, [(0, 1, 2), (2, 3, 4)], ValueError),
    (3.0, [(0, 1)], TypeError),
])
def test_malformed_input_raises_like_set_based_constructor(node_count, edges, error):
    with pytest.raises(error):
        ReferenceGraph(node_count, edges)
    with pytest.raises(error):
        Graph(node_count, edges)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 40), p=st.floats(0.0, 1.0), seed=st.integers(0, 2**64 - 1),
       chunk=st.integers(1, 60))
def test_erdos_renyi_block_draws_match_per_row_draws(n, p, seed, chunk):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph_module, "_ER_CHUNK", chunk)
        g = generate("erdos_renyi", n=n, p=p, seed=seed)
    assert_same_graph(g, ReferenceGraph(n, reference_erdos_renyi_edges(n, p, seed)))


# sha256 of edge_src then edge_dst (little-endian int64), recorded from the
# set-based constructor and the per-pair erdos_renyi loop.
GOLDEN_GRAPHS = [
    (("grid2d", 0, {"rows": 316, "cols": 316}), "f42f249690922fbafa2b45c7c0b0ef976f90f07eb923c4af026cae8da23f4b05"),
    (("erdos_renyi", 202, {"n": 200, "p": 0.03}), "8aa64a1cf19c611169a887fd9ca8c04860cb56966236efbd9c627b35ae357ed4"),
    (("erdos_renyi", 4, {"n": 50, "p": 0.08}), "c865bf0d8cf9c97dcf3a78174db6661b655f84ccee34c45175bececb9d24c374"),
    (("erdos_renyi", 9, {"n": 2000, "p": 0.01}), "7bb50e6794987fd01a40a4bc7cfccd406a460112d93016810a038fee8570a45d"),
]


@pytest.mark.parametrize("spec,digest", GOLDEN_GRAPHS, ids=["grid316", "er200", "er50", "er2000"])
def test_generated_graphs_match_golden_digests(spec, digest):
    family, seed, params = spec
    g = generate(family, seed=seed, **params)
    h = hashlib.sha256()
    for arr in (g.edge_src, g.edge_dst):
        h.update(np.ascontiguousarray(arr, dtype="<i8").tobytes())
    assert h.hexdigest() == digest


# --- the size cap: refused before anything of the hostile size is allocated --


@pytest.mark.parametrize("build", [
    lambda: parse_edge_list("0 1000000000"),
    lambda: parse_edge_list(f"0 {SIZE_CAP}"),
    lambda: parse_edge_list("0 100000000000000000000000"),
    lambda: generate("grid2d", rows=100_000, cols=100_000),
    lambda: generate("grid2d", rows=SIZE_CAP + 1, cols=1),
    lambda: generate("cycle", n=10**12),
    lambda: generate("complete", n=10**5),
    lambda: generate("erdos_renyi", n=10**5, p=0.001),
    lambda: Graph(SIZE_CAP + 1, []),
], ids=["parse-1e9", "parse-cap", "parse-1e23", "grid-1e10", "grid-cap", "cycle-1e12",
        "complete-5e9-pairs", "er-5e9-pairs", "graph-cap"])
def test_size_cap_raises_resource_limit(build):
    with address_space_limit(), pytest.raises(ResourceLimitError):
        build()


def test_size_cap_boundary_is_allowed():
    assert Graph(SIZE_CAP, []).node_count == SIZE_CAP
