import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from localglauber import (
    ChainConfig,
    Graph,
    ParameterError,
    RoundRandomness,
    ValidationError,
    apply_proposals,
    draw_round_randomness,
    enumerate_proper_colorings,
    generate,
    greedy_coloring,
    is_proper,
    local_glauber_step,
    run_chain,
    run_chain_trace,
    sequential_glauber_step,
    zeros_coloring,
)

from localglauber._stream import stream

from helpers import random_graph_and_coloring, reference_round


def rr(marked, proposal):
    return RoundRandomness(
        marked=np.asarray(marked, dtype=bool),
        proposal=np.asarray(proposal, dtype=np.int64),
    )


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


class TestChainConfig:
    @pytest.mark.parametrize("q", [2.5, 3.0, "3", None])
    def test_non_integer_q_rejected(self, q):
        with pytest.raises(ParameterError):
            ChainConfig(q=q, gamma=0.3)

    def test_numpy_integer_q_accepted(self):
        assert ChainConfig(q=np.int64(4), gamma=0.3).q == 4


class TestLocalGlauberStep:
    def test_no_marks_is_identity(self):
        g = generate("cycle", n=6)
        x = np.arange(6) % 3
        out = local_glauber_step(g, x, rr([False] * 6, [0] * 6))
        assert np.array_equal(out, x)

    def test_proposal_equal_to_neighbor_color_rejected(self):
        g = Graph(2, [(0, 1)])
        x = np.array([0, 1])
        out = local_glauber_step(g, x, rr([False, True], [0, 0]))  # v=1 proposes X_0
        assert np.array_equal(out, x)

    def test_both_marked_same_fresh_proposal_both_reject(self):
        g = Graph(2, [(0, 1)])
        x = np.array([0, 1])
        out = local_glauber_step(g, x, rr([True, True], [3, 3]))
        assert np.array_equal(out, x)

    def test_marked_node_proposing_neighbors_color_rejected(self):
        # u marked proposing X_v conflicts with v's current color via (i);
        # unmarked v keeps its color.
        g = Graph(2, [(0, 1)])
        x = np.array([2, 5])
        out = local_glauber_step(g, x, rr([True, False], [5, 0]))
        assert np.array_equal(out, x)

    def test_reversibility_condition_blocks_update(self):
        # v=0 proposes a fresh color but its marked neighbor proposes X_0.
        g = Graph(2, [(0, 1)])
        x = np.array([2, 5])
        randomness = rr([True, True], [7, 2])
        out = local_glauber_step(g, x, randomness)
        assert np.array_equal(out, x)  # both rejected: 1 by (i), 0 by (ii)
        relaxed = local_glauber_step(g, x, randomness, enforce_reversibility_condition=False)
        assert relaxed[0] == 7  # switch off: v=0 accepts

    def test_clean_simultaneous_updates_accepted(self):
        g = Graph(2, [(0, 1)])
        x = np.array([0, 0])
        out = local_glauber_step(g, x, rr([True, True], [3, 4]))
        assert out.tolist() == [3, 4]

    def test_isolated_node_always_accepts(self):
        g = Graph(2, [])
        x = np.array([0, 0])
        out = local_glauber_step(g, x, rr([True, False], [4, 2]))
        assert out.tolist() == [4, 0]

    def test_matches_reference_round_any_order(self):
        rng = np.random.default_rng(11)
        for _ in range(400):
            g, q, x = random_graph_and_coloring(rng)
            marked = rng.random(g.node_count) < rng.uniform(0.1, 0.9)
            proposal = rng.integers(0, q, g.node_count)
            got, _ = apply_proposals(g, x, marked, proposal)
            order = rng.permutation(g.node_count)
            want = reference_round(g, x, marked, proposal, order=order)
            assert np.array_equal(got, want)

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
            x, trace = run_chain_trace(g, cfg, x0, 300)
            rows = np.array([(s.round_index, s.marked, s.accepted, s.conflicts, s.proper) for s in trace],
                            dtype="<i8")
            assert hashlib.sha256(x.astype("<i8").tobytes() + rows.tobytes()).hexdigest() == digest


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
