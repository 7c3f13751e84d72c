import contextlib
import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from localglauber import (
    ChainConfig,
    Graph,
    ParameterError,
    ValidationError,
    apply_proposals,
    enumerate_proper_colorings,
    generate,
    greedy_coloring,
    is_proper,
    optimize_gamma,
    run_chain,
    run_chain_trace,
    sequential_glauber_step,
    zeros_coloring,
)

from localglauber._stream import stream
from localglauber.dynamics import _PROPER_BLOCK, draw_round_randomness

from helpers import random_graph_and_coloring, reference_round, without_condition_ii


class TestRoundRandomness:
    def test_deterministic_per_round(self):
        cfg = ChainConfig(q=5, gamma=0.3, seed=99)
        a = draw_round_randomness(cfg, 50, 7)
        b = draw_round_randomness(cfg, 50, 7)
        assert np.array_equal(a.marked, b.marked)
        assert np.array_equal(a.proposal, b.proposal)

    def test_rounds_and_seeds_decorrelate(self):
        cfg = ChainConfig(q=5, gamma=0.5, seed=99)
        a = draw_round_randomness(cfg, 1000, 0)
        b = draw_round_randomness(cfg, 1000, 1)
        c = draw_round_randomness(ChainConfig(q=5, gamma=0.5, seed=100), 1000, 0)
        assert not np.array_equal(a.marked, b.marked)
        assert not np.array_equal(a.marked, c.marked)

    def test_marked_fraction_concentrates(self):
        cfg = ChainConfig(q=5, gamma=0.5, seed=1)
        out = draw_round_randomness(cfg, 100_000, 0)
        assert abs(out.marked.mean() - 0.5) < 0.01

    def test_proposals_uniform_chi_square(self):
        q = 7
        cfg = ChainConfig(q=q, gamma=0.5, seed=2)
        out = draw_round_randomness(cfg, 100_000, 3)
        props = out.proposal[out.marked]
        counts = np.bincount(props, minlength=q)
        assert stats.chisquare(counts).pvalue > 0.001

    def test_negative_round_rejected(self):
        with pytest.raises(ParameterError):
            draw_round_randomness(ChainConfig(q=3, gamma=0.2), 5, -1)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(-(2**70), 2**70), st.integers(-(2**70), 2**70))
    def test_stream_matches_inline_philox_key(self, seed, counter):
        # The key every stream in the package was built from by hand before
        # they shared one helper.
        mask = (1 << 64) - 1
        key = np.array([seed & mask, counter & mask], dtype=np.uint64)
        old = np.random.Generator(np.random.Philox(key=key))
        new = stream(seed, counter)
        assert np.array_equal(new.bit_generator.state["state"]["key"], key)
        assert np.array_equal(new.random(5), old.random(5))
        assert np.array_equal(new.integers(0, 7, size=5), old.integers(0, 7, size=5))

    @settings(max_examples=300, deadline=None)
    @given(st.integers(-(2**70), 2**70), st.integers(-(2**70), 2**70), st.sampled_from([1, 3, 5]))
    @example(0, 0, 1)
    @example(7, 2**32, 3)
    @example(-1, 2**64 - 1, 5)
    def test_rekeyed_stream_draws_like_a_new_one(self, seed, counter, odd_draws):
        # Re-key after each step of partial use: a random() block, an odd
        # number of uint32 draws (which caches the unused 32-bit half), and
        # a few bytes (which take one more 32-bit half).
        steps = [
            lambda g: g.random(7),
            lambda g: g.integers(0, 2**32 - 1, size=odd_draws, dtype=np.uint32),
            lambda g: g.bytes(3),
        ]
        for used in range(1, len(steps) + 1):
            g = stream(seed + 1, counter ^ 1)
            for step in steps[:used]:
                step(g)
            assert g.bit_generator.state["has_uint32"] == (used == 2)
            reused = stream(seed, counter, reuse=g)
            fresh = stream(seed, counter)
            assert reused is g
            assert reused.bit_generator.state["state"]["key"].tolist() == \
                fresh.bit_generator.state["state"]["key"].tolist()
            # Raw bytes first: a bounded integer draw rejects a stale zero
            # word and would hide a reset that was missed.
            assert reused.bytes(5) == fresh.bytes(5)
            assert reused.random(5).tolist() == fresh.random(5).tolist()
            assert reused.integers(0, 2**32 - 1, size=3, dtype=np.uint32).tolist() == \
                fresh.integers(0, 2**32 - 1, size=3, dtype=np.uint32).tolist()
            assert reused.integers(0, 7, size=9).tolist() == fresh.integers(0, 7, size=9).tolist()

    def test_round_draw_with_reused_generator(self):
        cfg = ChainConfig(q=5, gamma=0.4, seed=3)
        g = stream(0, 0)
        for t in (4, 0, 2**40):
            a = draw_round_randomness(cfg, 64, t, g)
            b = draw_round_randomness(cfg, 64, t)
            assert np.array_equal(a.marked, b.marked) and np.array_equal(a.proposal, b.proposal)


class TestChainConfig:
    @pytest.mark.parametrize("q", [2.5, 3.0, "3", None])
    def test_non_integer_q_rejected(self, q):
        with pytest.raises(ParameterError):
            ChainConfig(q=q, gamma=0.3)

    def test_numpy_integer_q_accepted(self):
        assert ChainConfig(q=np.int64(4), gamma=0.3).q == 4

    def test_q_cap_is_the_int64_draw_range(self):
        # Proposals are drawn from [0, q) as int64: 2^63 is the largest q that draws.
        rr = draw_round_randomness(ChainConfig(q=2**63, gamma=0.5), 8, 0)
        assert rr.proposal.dtype == np.int64 and rr.proposal.min() >= 0
        with pytest.raises(ParameterError, match="q must be <= 2\\^63"):
            ChainConfig(q=2**63 + 1, gamma=0.5)


class TestLocalGlauberStep:
    def test_no_marks_is_identity(self):
        g = generate("cycle", n=6)
        x = np.arange(6) % 3
        out = apply_proposals(g, x, np.array([False] * 6), np.array([0] * 6))[0]
        assert np.array_equal(out, x)

    def test_proposal_equal_to_neighbor_color_rejected(self):
        g = Graph(2, [(0, 1)])
        x = np.array([0, 1])
        out = apply_proposals(g, x, np.array([False, True]), np.array([0, 0]))[0]  # v=1 proposes X_0
        assert np.array_equal(out, x)

    def test_both_marked_same_fresh_proposal_both_reject(self):
        g = Graph(2, [(0, 1)])
        x = np.array([0, 1])
        out = apply_proposals(g, x, np.array([True, True]), np.array([3, 3]))[0]
        assert np.array_equal(out, x)

    def test_marked_node_proposing_neighbors_color_rejected(self):
        # u marked proposing X_v conflicts with v's current color via (i);
        # unmarked v keeps its color.
        g = Graph(2, [(0, 1)])
        x = np.array([2, 5])
        out = apply_proposals(g, x, np.array([True, False]), np.array([5, 0]))[0]
        assert np.array_equal(out, x)

    def test_reversibility_condition_blocks_update(self):
        # v=0 proposes a fresh color but its marked neighbor proposes X_0.
        g = Graph(2, [(0, 1)])
        x = np.array([2, 5])
        marked, proposal = np.array([True, True]), np.array([7, 2])
        out = apply_proposals(g, x, marked, proposal)[0]
        assert np.array_equal(out, x)  # both rejected: 1 by (i), 0 by (ii)
        with without_condition_ii():
            relaxed = apply_proposals(g, x, marked, proposal)[0]
        assert relaxed[0] == 7  # without (ii): v=0 accepts

    def test_clean_simultaneous_updates_accepted(self):
        g = Graph(2, [(0, 1)])
        x = np.array([0, 0])
        out = apply_proposals(g, x, np.array([True, True]), np.array([3, 4]))[0]
        assert out.tolist() == [3, 4]

    def test_isolated_node_always_accepts(self):
        g = Graph(2, [])
        x = np.array([0, 0])
        out = apply_proposals(g, x, np.array([True, False]), np.array([4, 2]))[0]
        assert out.tolist() == [4, 0]

    def test_matches_reference_round_any_order(self):
        rng = np.random.default_rng(11)
        for _ in range(400):
            g, q, x = random_graph_and_coloring(rng)
            marked = rng.random(g.node_count) < rng.uniform(0.1, 0.9)
            proposal = rng.integers(0, q, g.node_count)
            got_x, got_accepted = apply_proposals(g, x, marked, proposal)
            order = rng.permutation(g.node_count)
            want_x, want_accepted = reference_round(g, x, marked, proposal, order=order)
            assert np.array_equal(got_x, want_x)
            assert np.array_equal(got_accepted, want_accepted)

    def test_unmarked_node_stability(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            g, q, x = random_graph_and_coloring(rng)
            marked = rng.random(g.node_count) < 0.5
            proposal = rng.integers(0, q, g.node_count)
            out, _ = apply_proposals(g, x, marked, proposal)
            assert np.array_equal(out[~marked], x[~marked])

    def test_absorption_randomized_sweep(self):
        rng = np.random.default_rng(13)
        for _ in range(2000):
            g, q, x = random_graph_and_coloring(rng, proper=True)
            assert is_proper(g, x)
            marked = rng.random(g.node_count) < rng.uniform(0.1, 0.9)
            proposal = rng.integers(0, q, g.node_count)
            out, _ = apply_proposals(g, x, marked, proposal)
            assert is_proper(g, out)


def _case(n, edges, x, marked, proposal):
    return (Graph(n, edges), np.array(x, dtype=np.int64), np.array(marked, dtype=bool),
            np.array(proposal, dtype=np.int64))


@st.composite
def round_cases(draw):
    """A small graph, a coloring, and one round's marks and proposals."""
    n = draw(st.integers(1, 9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    q = draw(st.integers(1, 5))
    colors = st.lists(st.integers(0, q - 1), min_size=n, max_size=n)
    marks = draw(st.sampled_from(["none", "all", "some"]))
    if marks == "some":
        marked = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    else:
        marked = [marks == "all"] * n
    return _case(n, edges, draw(colors), marked, draw(colors))


def _reference_is_proper(g, x):
    return all(x[u] != x[v] for u, v in g.edges())


class TestKernelsAgainstReferences:
    @settings(max_examples=400, deadline=None)
    @given(case=round_cases(), enforce=st.booleans(), seed=st.integers(0, 2**32 - 1))
    @example(case=_case(1, [], [0], [True], [1]), enforce=True, seed=0)
    @example(case=_case(4, [], [0, 0, 1, 1], [True, False, True, True], [1, 1, 0, 2]), enforce=True, seed=0)
    @example(case=_case(3, [(0, 1), (1, 2)], [0, 1, 0], [False] * 3, [1, 0, 1]), enforce=True, seed=0)
    @example(case=_case(4, [(0, 1), (1, 2), (2, 3), (3, 0)], [0, 1, 0, 1], [True] * 4, [2, 2, 0, 1]),
             enforce=True, seed=0)
    @example(case=_case(4, [(0, 1), (1, 2), (2, 3), (3, 0)], [0, 1, 0, 1], [True] * 4, [2, 2, 0, 1]),
             enforce=False, seed=0)
    def test_apply_proposals_matches_reference_round(self, case, enforce, seed):
        g, x, marked, proposal = case
        order = np.random.default_rng(seed).permutation(g.node_count)
        with contextlib.nullcontext() if enforce else without_condition_ii():
            got_x, got_accepted = apply_proposals(g, x, marked, proposal)
        want_x, want_accepted = reference_round(g, x, marked, proposal, order=order, enforce=enforce)
        assert np.array_equal(got_x, want_x)
        assert np.array_equal(got_accepted, want_accepted)

    @settings(max_examples=300, deadline=None)
    @given(case=round_cases())
    def test_is_proper_matches_edge_loop(self, case):
        g, x, _, _ = case
        assert is_proper(g, x) is _reference_is_proper(g, x)

    @pytest.mark.parametrize("edge", [None, 0, _PROPER_BLOCK - 1, _PROPER_BLOCK, -1],
                             ids=["none", "first", "block_end", "block_start", "last"])
    def test_is_proper_single_conflict_across_blocks(self, edge):
        # A path with more than two blocks of directed edges, alternating
        # colors, with the parity flipped after the chosen edge's lower end
        # so that this one edge (in both orientations) is monochromatic.
        g = generate("path", n=_PROPER_BLOCK + 10)
        assert g.edge_src.size > 2 * _PROPER_BLOCK
        x = np.arange(g.node_count, dtype=np.int64) % 2
        if edge is not None:
            u, v = sorted((int(g.edge_src[edge]), int(g.edge_dst[edge])))
            x[v:] ^= 1
            assert x[u] == x[v]
        assert is_proper(g, x) is (edge is None)
        assert _reference_is_proper(g, x) is (edge is None)


class TestRunChain:
    def test_zero_rounds_returns_start(self):
        g = generate("cycle", n=5)
        cfg = ChainConfig(q=4, gamma=0.4, seed=0)
        x0 = zeros_coloring(g)
        assert np.array_equal(run_chain(g, cfg, x0, 0), x0)

    def test_same_seed_same_trajectory(self):
        g = generate("erdos_renyi", n=30, p=0.15, seed=5)
        cfg = ChainConfig(q=8, gamma=0.3, seed=77)
        a = run_chain(g, cfg, zeros_coloring(g), 40)
        b = run_chain(g, cfg, zeros_coloring(g), 40)
        assert np.array_equal(a, b)

    def test_proper_start_stays_proper(self):
        g = generate("erdos_renyi", n=40, p=0.1, seed=9)
        q = g.max_degree + 2
        cfg = ChainConfig(q=q, gamma=0.6, seed=3)
        x = greedy_coloring(g, q)
        final, trace = run_chain_trace(g, cfg, x, 50)
        assert is_proper(g, final)
        assert all(s.proper for s in trace)
        assert all(s.conflicts == s.marked - s.accepted for s in trace)

    def test_invalid_coloring_rejected(self):
        g = generate("cycle", n=4)
        cfg = ChainConfig(q=3, gamma=0.2)
        with pytest.raises(ValidationError):
            run_chain(g, cfg, np.array([0, 1, 2]), 1)
        with pytest.raises(ValidationError):
            run_chain(g, cfg, np.array([0, 1, 2, 3]), 1)

    @pytest.mark.parametrize("x0", [np.array([0.5, 1.7, 2.9, 0.2]), np.array([0.0, 1.0, 2.0, 0.0]),
                                    np.array([True, False, True, False]), np.array(["0", "1", "2", "0"])])
    def test_non_integer_coloring_rejected(self, x0):
        # Float colorings used to be truncated silently ([0.5, 1.7, 2.9, 0.2] ran as [0, 1, 2, 0]).
        g = generate("cycle", n=4)
        with pytest.raises(ValidationError):
            run_chain(g, ChainConfig(q=3, gamma=0.2), x0, 2)

    def test_observer_sees_every_round_of_the_trajectory(self):
        g = generate("erdos_renyi", n=40, p=0.1, seed=9)
        cfg = ChainConfig(q=g.max_degree + 2, gamma=0.5, seed=3)
        x0 = greedy_coloring(g, cfg.q)
        seen = []

        def observe(t, rr, accepted, x):
            expected = draw_round_randomness(cfg, g.node_count, t)
            assert np.array_equal(rr.marked, expected.marked)
            assert np.array_equal(rr.proposal, expected.proposal)
            x_next, acc = apply_proposals(g, prev[-1], rr.marked, rr.proposal)
            assert np.array_equal(accepted, acc) and np.array_equal(x, x_next)
            prev.append(x)
            seen.append(t)

        prev = [x0]
        final = run_chain(g, cfg, x0, 25, observe)
        assert seen == list(range(25))
        assert np.array_equal(final, prev[-1])
        assert np.array_equal(final, run_chain(g, cfg, x0, 25))

    def test_golden_digests(self):
        # Recorded before the two round loops were merged into one driver:
        # ER(200, 0.03, seed 202), q = D+2, gamma 0.5, seed 11, 300 rounds.
        g = generate("erdos_renyi", n=200, p=0.03, seed=202)
        cfg = ChainConfig(q=g.max_degree + 2, gamma=0.5, seed=11)
        x = run_chain(g, cfg, greedy_coloring(g, cfg.q), 300)
        assert hashlib.sha256(x.astype("<i8").tobytes()).hexdigest() == (
            "17f18735d3c07d533d06f2b331aa38a146eb12a99f00a47e51123860dfb4d6d4")
        # From all zeros the first 26 rounds end improper, so the proper flags vary too.
        for x0, digest in (
            (greedy_coloring(g, cfg.q), "431f8f92c96d0196687e1390b99efb85b240e62249965832624924c238a141f4"),
            (zeros_coloring(g), "eed90bcccb7e8b48d3706ea2ed4f6c76b61a5c052b73b1724dbe8a7d94b70e52"),
        ):
            assert _trace_digest(*run_chain_trace(g, cfg, x0, 300)) == digest

    def test_golden_digest_sparse_marking(self):
        # Recorded before apply_proposals resolved only the marked nodes' edges:
        # a 20x20 grid at gamma*(3) (about 12% of nodes marked per round), q 12,
        # seed 1, 200 rounds from all zeros; rounds 0-29 end improper.
        g = generate("grid2d", rows=20, cols=20)
        cfg = ChainConfig(q=12, gamma=optimize_gamma(3.0).gamma, seed=1)
        assert _trace_digest(*run_chain_trace(g, cfg, zeros_coloring(g), 200)) == (
            "90677d06c64eb31042fa4417dcd9dbbcacbd7dbac8cc6413e4a4a93893327d92")


def _trace_digest(x, trace):
    rows = np.array([(s.round_index, s.marked, s.accepted, s.conflicts, s.proper) for s in trace], dtype="<i8")
    return hashlib.sha256(x.astype("<i8").tobytes() + rows.tobytes()).hexdigest()


class TestSequentialGlauber:
    def test_isolated_node_uniform(self):
        g = Graph(1, [])
        rng = np.random.default_rng(0)
        seen = {int(sequential_glauber_step(g, 3, np.array([0]), rng)[0]) for _ in range(200)}
        assert seen == {0, 1, 2}

    def test_forced_color(self):
        # Middle node of a 3-path with neighbor colors {0, 1} and q=3 can
        # only be resampled to color 2.
        g = generate("path", n=3)
        rng = np.random.default_rng(1)
        x = np.array([0, 0, 1])
        updates = []
        for _ in range(200):
            out = sequential_glauber_step(g, 3, x, rng)
            if out[1] != x[1]:
                updates.append(int(out[1]))
        assert updates and set(updates) == {2}

    def test_blocked_node_raises(self):
        g = generate("path", n=3)
        x = np.array([0, 2, 1])
        rng = np.random.default_rng(2)
        with pytest.raises(ParameterError):
            for _ in range(100):
                sequential_glauber_step(g, 2, x, rng)  # node 1 sees colors {0,1}, q=2

    def test_triangle_q5_uniform_over_proper_colorings(self):
        # Long run must visit the 60 proper colorings of K3 with q=5
        # uniformly (chi-square against the enumeration oracle). The chain
        # is thinned so the samples are effectively independent.
        g = generate("complete", n=3)
        q = 5
        proper, count = enumerate_proper_colorings(g, q)
        assert count == 60
        index = {tuple(c): i for i, c in enumerate(proper.tolist())}
        rng = np.random.default_rng(3)
        x = np.array([0, 1, 2])
        counts = np.zeros(count)
        burn, stride, samples = 200, 25, 12_000
        for _ in range(burn):
            x = sequential_glauber_step(g, q, x, rng)
        for _ in range(samples):
            for _ in range(stride):
                x = sequential_glauber_step(g, q, x, rng)
            counts[index[tuple(int(c) for c in x)]] += 1
        assert stats.chisquare(counts).pvalue > 0.001
