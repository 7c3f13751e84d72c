import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from localglauber import (
    AdjacentPair,
    ChainConfig,
    Graph,
    ParameterError,
    RoundRandomness,
    ValidationError,
    apply_proposals,
    check_flip_path_lemmas,
    contraction_experiment,
    coupled_step,
    generate,
    hamming_distance,
    optimize_gamma,
)
from localglauber import coupling
from localglauber.coupling import LemmaReport, LemmaViolation

from helpers import (
    CONSISTENT, MIRRORED, UNMARKED, couple_rows, reference_assign_coupled_proposals, reference_contraction_experiment,
    reference_round, sample_adjacent_pair,
)


def make_pair(x, v0, new_color):
    x = np.asarray(x, dtype=np.int64)
    y = x.copy()
    y[v0] = new_color
    return AdjacentPair(x, y, v0)


def mode_of(marked, layers):
    """Each node's sampling mode, derived from its mark and its layer depth."""
    return np.where(layers.depth >= 1, MIRRORED, np.where(marked, CONSISTENT, UNMARKED))


def rr(marked, proposal):
    return RoundRandomness(
        marked=np.asarray(marked, dtype=bool),
        proposal=np.asarray(proposal, dtype=np.int64),
    )


def assign(g, pair, marked, draws):
    """The coupled proposals and the layers of the coupled round on these marks and draws."""
    step = coupled_step(g, pair, rr(marked, draws))
    return step.proposals, step.layers


def k_of(g, pair):
    """K of the pair, read from a coupled round without marks."""
    return coupled_step(g, pair, rr([False] * g.node_count, [0] * g.node_count)).layers.K


class TestAdjacentPair:
    def test_validation(self):
        with pytest.raises(ValidationError):
            AdjacentPair([0, 1], [0, 1], 0)  # no difference
        with pytest.raises(ValidationError):
            AdjacentPair([0, 1], [1, 0], 0)  # differs at two nodes
        pair = make_pair([0, 2, 2], 0, 1)
        assert pair.r == 0 and pair.b == 1


class TestClassifyNodes:
    def test_empty_when_no_red_blue_elsewhere(self):
        g = generate("cycle", n=5)
        pair = make_pair([0, 2, 3, 4, 2], 0, 1)
        assert not k_of(g, pair).any()

    def test_single_neighbor_with_red(self):
        g = generate("path", n=4)  # 0-1-2-3
        pair = make_pair([0, 2, 0, 3], 0, 1)  # node 2 has color r=0
        assert np.flatnonzero(k_of(g, pair)).tolist() == [1, 2, 3]  # N+(2) minus v0

    def test_star_all_leaves_blue(self):
        g = generate("star", n=6)  # center 0
        pair = make_pair([0, 1, 1, 1, 1, 1], 0, 1)  # leaves all colored b=1
        assert np.flatnonzero(k_of(g, pair)).tolist() == [1, 2, 3, 4, 5]  # everything except v0 = center


class TestAssignCoupledProposals:
    def test_no_marks_layers_stop_at_m0(self):
        g = generate("cycle", n=5)
        pair = make_pair([0, 2, 3, 4, 2], 0, 1)
        marked = [False] * 5
        prop, layers = assign(g, pair, marked, [0] * 5)
        assert [set(m) for m in layers.M] == [{0}]
        assert [set(f) for f in layers.F] == [{0}]
        assert np.all(mode_of(marked, layers) == UNMARKED)
        # effective proposals: current colors, which differ at v0 only
        assert prop.cx[0] == 0 and prop.cy[0] == 1
        assert np.array_equal(prop.cx[1:], prop.cy[1:])

    def test_marked_v0_samples_consistently(self):
        g = generate("cycle", n=5)
        pair = make_pair([0, 2, 3, 4, 2], 0, 1)
        marked = [True] + [False] * 4
        prop, layers = assign(g, pair, marked, [4] * 5)
        assert mode_of(marked, layers)[0] == CONSISTENT
        assert prop.cx[0] == prop.cy[0] == 4

    def test_neighbor_drawing_red_flips(self):
        g = generate("cycle", n=5)
        pair = make_pair([0, 2, 3, 4, 2], 0, 1)
        marked = [False, True, False, False, False]
        prop, layers = assign(g, pair, marked, [0, 0, 0, 0, 0])
        assert set(layers.M[1]) == {1} and set(layers.F[1]) == {1}
        assert mode_of(marked, layers)[1] == MIRRORED
        assert prop.cx[1] == 0 and prop.cy[1] == 1  # draw r -> (r, b)

    def test_neighbor_drawing_other_color_stays_consistent_and_stops(self):
        g = generate("cycle", n=5)
        pair = make_pair([0, 2, 3, 4, 2], 0, 1)
        marked = [False, True, True, False, False]
        prop, layers = assign(g, pair, marked, [0, 3, 0, 0, 0])
        assert set(layers.M[1]) == {1}
        assert set(layers.F[1]) == set()
        assert len(layers.M) == 2  # no layer beyond M^1
        assert mode_of(marked, layers)[1] == MIRRORED
        assert prop.cx[1] == prop.cy[1] == 3
        assert mode_of(marked, layers)[2] == CONSISTENT  # marked node 2 never layered

    def test_breadth_first_skips_unflipped_branches(self):
        # Two routes from v0=0: a direct 3-hop path (via 1, 2) and a 4-hop
        # path (via 4, 5, 6). Node 1 draws a non-red/blue color, so the
        # direct branch stops; node 3 joins layer 4 through the long branch
        # even though its graph distance to v0 is 3.
        g = Graph(7, [(0, 1), (1, 2), (2, 3), (0, 4), (4, 5), (5, 6), (6, 3)])
        x = [0, 2, 3, 4, 2, 3, 4]
        pair = make_pair(x, 0, 1)
        marked = [False, True, True, True, True, True, True]
        draws = [0, 2, 0, 2, 0, 1, 0]  # node1 draws 2; nodes 4,5,6 draw r/b; node3 draws 2
        prop, layers = assign(g, pair, marked, draws)
        assert set(layers.M[1]) == {1, 4}
        assert set(layers.F[1]) == {4}
        assert set(layers.M[2]) == {5} and set(layers.F[2]) == {5}
        assert set(layers.M[3]) == {6} and set(layers.F[3]) == {6}
        assert set(layers.M[4]) == {3}
        assert layers.depth[2] == -1  # blocked behind the unflipped node 1

    def test_layer_soundness_random_sweep(self):
        rng = np.random.default_rng(21)
        for _ in range(300):
            g = generate("erdos_renyi", n=12, p=0.3, seed=int(rng.integers(2**31)))
            q = 5
            pair = sample_adjacent_pair(g, q, rng)
            marked = rng.random(12) < 0.5
            draws = rng.integers(0, q, 12)
            prop, layers = assign(g, pair, marked, draws)
            flipped = prop.cx != prop.cy
            flipped[pair.v0] = False
            # flipped only from mirrored sampling, always an r/b pair
            assert np.all(mode_of(marked, layers)[flipped] == MIRRORED)
            assert np.all(np.minimum(prop.cx, prop.cy)[flipped] == min(pair.r, pair.b))
            assert np.all(np.maximum(prop.cx, prop.cy)[flipped] == max(pair.r, pair.b))
            # F[d] within M[d]; M[d] within S and next to F[d-1], for d >= 1
            layered = layers.depth >= 1
            assert np.array_equal(layers.flipped & layered, flipped)
            assert np.all(layers.S[layered])
            src, dst = g.edge_src, g.edge_dst
            hop = layers.flipped[src] & (layers.depth[src] == layers.depth[dst] - 1)
            assert np.all(np.isin(np.flatnonzero(layered), dst[hop]))
            # consistently sampled S-nodes never neighbor a flipped node
            consistent = layers.S & (mode_of(marked, layers) == CONSISTENT)
            assert not consistent[dst[layers.flipped[src]]].any()


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 12), p=st.floats(0.0, 1.0), graph_seed=st.integers(0, 2**31 - 1),
       seed=st.integers(0, 2**31 - 1), q=st.integers(2, 6),
       marks=st.sampled_from(["random", "v0_unmarked", "all"]))
@example(n=9, p=0.0, graph_seed=0, seed=0, q=3, marks="all")            # edgeless
@example(n=2, p=1.0, graph_seed=0, seed=1, q=2, marks="all")            # n = 2
@example(n=10, p=0.4, graph_seed=5, seed=2, q=3, marks="v0_unmarked")
@example(n=12, p=0.3, graph_seed=7, seed=3, q=4, marks="all")
@example(n=3, p=1.0, graph_seed=0, seed=1, q=6, marks="all")            # both flip in layer 1
def test_layers_match_set_based_reference(n, p, graph_seed, seed, q, marks):
    g = generate("erdos_renyi", n=n, p=p, seed=graph_seed)
    rng = np.random.default_rng(seed)
    pair = sample_adjacent_pair(g, q, rng)
    marked = rng.random(n) < 0.5 if marks == "random" else np.ones(n, dtype=bool)
    if marks == "v0_unmarked":
        marked[pair.v0] = False
    draws = rng.integers(0, q, n)

    prop, layers = assign(g, pair, marked, draws)
    (cx, cy, mode), (ref_K, ref_S, ref_M, ref_F) = reference_assign_coupled_proposals(g, pair, marked, draws)
    assert set(np.flatnonzero(layers.K).tolist()) == ref_K
    assert set(np.flatnonzero(layers.S).tolist()) == ref_S
    assert [set(m.tolist()) for m in layers.M] == [set(m) for m in ref_M]
    assert [set(f.tolist()) for f in layers.F] == [set(f) for f in ref_F]
    assert np.array_equal(prop.cx, cx) and np.array_equal(prop.cy, cy)
    assert np.array_equal(mode_of(marked, layers), mode)


@settings(max_examples=200, deadline=None)
@given(rows=st.sampled_from([1, 2, 7]), n=st.integers(1, 12), p=st.floats(0.0, 1.0),
       graph_seed=st.integers(0, 2**31 - 1), seed=st.integers(0, 2**31 - 1), q=st.integers(2, 6),
       marks=st.sampled_from(["random", "v0_unmarked", "all"]))
@example(rows=7, n=9, p=0.0, graph_seed=0, seed=0, q=3, marks="all")     # edgeless
@example(rows=2, n=2, p=1.0, graph_seed=0, seed=1, q=2, marks="all")
@example(rows=7, n=12, p=0.3, graph_seed=7, seed=3, q=4, marks="all")
def test_block_rows_match_references(rows, n, p, graph_seed, seed, q, marks):
    # Each pair of a block is one coupled round of its own.
    g = generate("erdos_renyi", n=n, p=p, seed=graph_seed)
    rng = np.random.default_rng(seed)
    pairs = [sample_adjacent_pair(g, q, rng) for _ in range(rows)]
    marked = rng.random((rows, n)) < 0.5 if marks == "random" else np.ones((rows, n), dtype=bool)
    if marks == "v0_unmarked":
        marked[np.arange(rows), [pr.v0 for pr in pairs]] = False
    draws = rng.integers(0, q, (rows, n))
    x, y, v0 = np.stack([pr.x for pr in pairs]), np.stack([pr.y for pr in pairs]), np.array([pr.v0 for pr in pairs])

    step = couple_rows(g, x, y, v0, marked, draws)
    for i, pair in enumerate(pairs):
        (cx, cy, mode), (ref_K, ref_S, ref_M, ref_F) = reference_assign_coupled_proposals(
            g, pair, marked[i], draws[i])
        one = slice(i * n, (i + 1) * n)
        layers = coupling._pair_of(step.layers, i, n)
        assert set(np.flatnonzero(layers.K).tolist()) == ref_K
        assert set(np.flatnonzero(layers.S).tolist()) == ref_S
        assert [set(m.tolist()) for m in layers.M] == [set(m) for m in ref_M]
        assert [set(f.tolist()) for f in layers.F] == [set(f) for f in ref_F]
        assert np.array_equal(step.proposals.cx[one], cx) and np.array_equal(step.proposals.cy[one], cy)
        assert np.array_equal(mode_of(marked[i], layers), mode)
        assert np.array_equal(step.x_next[one], reference_round(g, pair.x, marked[i], cx)[0])
        assert np.array_equal(step.y_next[one], reference_round(g, pair.y, marked[i], cy)[0])


class TestCoupledStep:
    def test_no_marks_still_differ_at_v0_only(self):
        g = generate("cycle", n=6)
        pair = make_pair([0, 2, 3, 4, 3, 2], 0, 1)
        step = coupled_step(g, pair, rr([False] * 6, [0] * 6))
        assert hamming_distance(step.x_next, step.y_next) == 1
        assert step.x_next[0] != step.y_next[0]

    def test_v0_accepting_fresh_color_coalesces(self):
        g = generate("cycle", n=4)
        pair = make_pair([0, 2, 3, 2], 0, 1)
        step = coupled_step(g, pair, rr([True, False, False, False], [4, 0, 0, 0]))
        assert step.x_next[0] == step.y_next[0] == 4
        assert hamming_distance(step.x_next, step.y_next) == 0

    def test_list_valued_randomness_equals_arrays(self):
        # Lists ended in numpy's "only integer scalar arrays" TypeError,
        # raised in apply_proposals.
        g = generate("cycle", n=5)
        pair = make_pair([0, 1, 2, 3, 1], 0, 4)
        marked, proposal = [True, True, False, True, False], [4, 4, 3, 0, 1]

        def arrays(step):
            return [step.x_next, step.y_next, step.proposals.cx, step.proposals.cy,
                    step.layers.K, step.layers.S, step.layers.depth, step.layers.flipped]

        from_lists = coupled_step(g, pair, RoundRandomness(marked, proposal))
        from_arrays = coupled_step(g, pair, rr(marked, proposal))
        assert from_arrays.layers.depth.max() == 1
        assert all(a.dtype == b.dtype and np.array_equal(a, b) for a, b in zip(arrays(from_lists), arrays(from_arrays)))

    def test_x_side_equals_plain_dynamics(self):
        rng = np.random.default_rng(31)
        for _ in range(500):
            g = generate("erdos_renyi", n=10, p=0.35, seed=int(rng.integers(2**31)))
            q = 5
            pair = sample_adjacent_pair(g, q, rng)
            randomness = rr(rng.random(10) < 0.4, rng.integers(0, q, 10))
            step = coupled_step(g, pair, randomness)
            x_next = apply_proposals(g, pair.x, randomness.marked, randomness.proposal)[0]
            assert np.array_equal(step.x_next, x_next)

    def test_y_side_equals_dynamics_on_mirrored_draws(self):
        rng = np.random.default_rng(32)
        for _ in range(200):
            g = generate("erdos_renyi", n=10, p=0.35, seed=int(rng.integers(2**31)))
            q = 5
            pair = sample_adjacent_pair(g, q, rng)
            randomness = rr(rng.random(10) < 0.4, rng.integers(0, q, 10))
            step = coupled_step(g, pair, randomness)
            mirrored = apply_proposals(g, pair.y, randomness.marked, step.proposals.cy)[0]
            assert np.array_equal(step.y_next, mirrored)

    def test_marginal_proposals_uniform_per_chain(self):
        g = generate("cycle", n=8)
        q = 5
        cfg = ChainConfig(q=q, gamma=0.4, seed=5)
        rng = np.random.default_rng(41)
        cx_counts = np.zeros(q)
        cy_counts = np.zeros(q)
        for _ in range(4000):
            pair = sample_adjacent_pair(g, q, rng)
            randomness = rr(rng.random(8) < cfg.gamma, rng.integers(0, q, 8))
            step = coupled_step(g, pair, randomness)
            m = randomness.marked
            cx_counts += np.bincount(step.proposals.cx[m], minlength=q)
            cy_counts += np.bincount(step.proposals.cy[m], minlength=q)
        assert stats.chisquare(cx_counts).pvalue > 0.001
        assert stats.chisquare(cy_counts).pvalue > 0.001


class TestLemmaCheckers:
    def test_vacuous_pass_when_only_v0_differs(self):
        g = generate("cycle", n=6)
        pair = make_pair([0, 2, 3, 4, 3, 2], 0, 1)
        step = coupled_step(g, pair, rr([False] * 6, [0] * 6))
        report = check_flip_path_lemmas(g, pair, step.layers, step.proposals, step.x_next, step.y_next)
        assert report.passed and report.differing_nodes == []

    def test_flip_path_witness_length_two(self):
        # 0-1-2 path: node 1 draws b (flips), node 2 draws r (flips with the
        # opposite orientation) and is accepted in both chains.
        g = generate("path", n=3)
        pair = make_pair([0, 2, 3], 0, 1)
        randomness = rr([False, True, True], [0, 1, 0])
        step = coupled_step(g, pair, randomness)
        assert step.x_next.tolist() == [0, 1, 0]
        assert step.y_next.tolist() == [1, 0, 1]
        report = check_flip_path_lemmas(g, pair, step.layers, step.proposals, step.x_next, step.y_next)
        assert report.passed
        assert report.witnesses[1] == (0, 1)
        assert report.witnesses[2] == (0, 1, 2)

    @pytest.mark.parametrize("draws,x_next,y_next,node", [
        ([0, 0, 0], [0, 0, 3], [1, 1, 3], 1),  # node 1 proposes (r, b), like v0's colors
        ([0, 1, 1], [0, 2, 1], [1, 2, 0], 2),  # nodes 1 and 2 both propose (b, r)
    ])
    def test_flip_path_needs_flipped_last_hop(self, draws, x_next, y_next, node):
        # The flipped node's proposals have the orientation of its
        # predecessor's, so no acceptance makes it differ; next states that
        # claim it does must be reported, not certified.
        g = generate("path", n=3)
        pair = make_pair([0, 2, 3], 0, 1)
        step = coupled_step(g, pair, rr([False, True, True], draws))
        assert step.layers.flipped[node] and step.layers.depth[node] == node
        report = check_flip_path_lemmas(g, pair, step.layers, step.proposals, np.array(x_next), np.array(y_next))
        assert [v.node for v in report.violations] == [node]
        assert report.witnesses == {}

    def test_almost_flip_path_witness(self):
        # Node 2 sits in K (next to the blue node 3), samples red
        # consistently, and is accepted only in the chain where its flipped
        # neighbor does not propose red.
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        pair = make_pair([0, 2, 3, 1], 0, 1)
        randomness = rr([False, True, True, False], [0, 0, 0, 0])
        step = coupled_step(g, pair, randomness)
        report = check_flip_path_lemmas(g, pair, step.layers, step.proposals, step.x_next, step.y_next)
        assert report.passed
        assert report.witnesses[2] == (0, 1, 2)
        assert step.proposals.cx[2] == step.proposals.cy[2] == 0  # consistent r

    def test_zero_violations_random_sweep(self):
        rng = np.random.default_rng(51)
        instances = [
            (generate("erdos_renyi", n=50, p=0.08, seed=4), None),
            (generate("cycle", n=8), 5),
            (generate("complete", n=5), 11),
        ]
        for g, q in instances:
            if q is None:
                q = 2 * g.max_degree + 1
            cfg = ChainConfig(q=q, gamma=0.3, seed=6)
            est = contraction_experiment(g, cfg, trials=1500, check_lemmas=True)
            assert est.lemma_failures == 0


# Instances of the differential tests: q = 2D + 1, so proper_random applies,
# except where DIFFERENTIAL_Q gives q. At q = 2 the shift from X's color at
# v0 to Y's is always 1.
DIFFERENTIAL_GRAPHS = {
    "C8": lambda: generate("cycle", n=8),
    "K5": lambda: generate("complete", n=5),
    "star6": lambda: generate("star", n=6),
    "ER50": lambda: generate("erdos_renyi", n=50, p=0.08, seed=4),
    "isolated": lambda: Graph(40, [(i, i + 1) for i in range(0, 30, 2)] + [(i, i + 3) for i in range(0, 27, 3)]),
    "q2": lambda: Graph(6, [(0, 1), (2, 3), (4, 5)]),
    "one-node": lambda: Graph(1, []),
}
DIFFERENTIAL_Q = {"q2": 2, "one-node": 2}


class TestBlocksAgainstPerTrialLoop:
    @pytest.mark.parametrize("check_lemmas", [False, True])
    @pytest.mark.parametrize("sampler", ["uniform_random", "proper_random"])
    @pytest.mark.parametrize("name", list(DIFFERENTIAL_GRAPHS))
    def test_estimates_equal(self, name, sampler, check_lemmas, monkeypatch):
        g = DIFFERENTIAL_GRAPHS[name]()
        cfg = ChainConfig(q=DIFFERENTIAL_Q.get(name, 2 * g.max_degree + 1), gamma=0.3, seed=7)
        if g.node_count == 1:
            # Blocks of 2^13 one-node trials would make the reference loop
            # run 2^15 trials; blocks of 64 test the same boundaries.
            monkeypatch.setattr(coupling, "_BLOCK_ENTRIES", 64)
        block = coupling._trials_per_block(g)
        monkeypatch.setattr(coupling, "_BURN_ROUNDS", 2)
        for trials in (0, 1, block - 1, block, block + 1):
            ours = contraction_experiment(g, cfg, trials, sampler, check_lemmas=check_lemmas)
            ref = reference_contraction_experiment(g, cfg, trials, sampler, burn_rounds=2, check_lemmas=check_lemmas)
            if trials == 0:
                assert ours.trials == ref.trials == 0 and np.isnan(ours.mean) and np.isnan(ref.mean)
            else:
                assert ours == ref, f"{name} {sampler} check_lemmas={check_lemmas} trials={trials}"

    def test_every_divergent_trial_is_checked(self, monkeypatch):
        # The checker sees exactly the trials whose chains differ away from
        # v0 in the per-trial loop, each with that trial's pair (so with the
        # v0 of its own row of the block), and each of its failures counts.
        g = DIFFERENTIAL_GRAPHS["ER50"]()
        cfg = ChainConfig(q=2 * g.max_degree + 1, gamma=0.3, seed=6)
        trials = 3 * coupling._trials_per_block(g) + 5
        check = coupling.check_flip_path_lemmas
        checked = []

        def counting(g, pair, *rest):
            report = check(g, pair, *rest)
            checked.append((pair, bool(report.differing_nodes)))
            return report

        monkeypatch.setattr(coupling, "check_flip_path_lemmas", counting)
        reference_contraction_experiment(g, cfg, trials, check_lemmas=True)
        assert len(checked) == trials
        expected = [pair for pair, divergent in checked if divergent]
        assert expected
        checked.clear()
        contraction_experiment(g, cfg, trials, check_lemmas=True)
        assert [divergent for _, divergent in checked] == [True] * len(expected)
        for (pair, _), ref in zip(checked, expected):
            assert pair.v0 == ref.v0
            assert np.array_equal(pair.x, ref.x) and np.array_equal(pair.y, ref.y)
        expected = len(expected)

        def failing(*args):
            return LemmaReport(differing_nodes=[-1], witnesses={}, violations=[LemmaViolation(-1, "forced")])

        monkeypatch.setattr(coupling, "check_flip_path_lemmas", failing)
        assert contraction_experiment(g, cfg, trials, check_lemmas=True).lemma_failures == expected

    def test_pairs_are_built_only_for_checked_trials(self, monkeypatch):
        # The block's trials live in its arrays; an AdjacentPair is made
        # only for a trial that goes to the lemma checker.
        g = DIFFERENTIAL_GRAPHS["ER50"]()
        cfg = ChainConfig(q=2 * g.max_degree + 1, gamma=0.3, seed=6)
        trials = 3 * coupling._trials_per_block(g) + 5
        pair_type, check = coupling.AdjacentPair, coupling.check_flip_path_lemmas
        built, checked = [], []

        def building(*args):
            built.append(args)
            return pair_type(*args)

        def checking(*args):
            checked.append(args)
            return check(*args)

        monkeypatch.setattr(coupling, "AdjacentPair", building)
        monkeypatch.setattr(coupling, "check_flip_path_lemmas", checking)
        contraction_experiment(g, cfg, trials, check_lemmas=True)
        assert 0 < len(checked) < trials
        assert len(built) == len(checked)
        contraction_experiment(g, cfg, trials)
        assert len(built) == len(checked)


class TestHamming:
    def test_trivials(self):
        assert hamming_distance([1, 2, 3], [1, 2, 3]) == 0
        assert hamming_distance([0] * 6, [1] * 6) == 6
        assert hamming_distance([0, 1, 2], [0, 2, 2]) == 1

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            hamming_distance([0, 1], [0, 1, 2])


class TestContractionExperiment:
    def test_zero_trials_empty_summary(self):
        g = generate("cycle", n=8)
        est = contraction_experiment(g, ChainConfig(q=5, gamma=0.2), trials=0)
        assert est.trials == 0 and np.isnan(est.mean)

    def test_tiny_gamma_keeps_distance_at_one(self):
        g = generate("cycle", n=8)
        est = contraction_experiment(g, ChainConfig(q=5, gamma=1e-6, seed=1), trials=3000)
        assert est.mean == pytest.approx(1.0, abs=1e-3)

    def test_reproducible(self):
        g = generate("cycle", n=8)
        cfg = ChainConfig(q=5, gamma=0.3, seed=9)
        a = contraction_experiment(g, cfg, trials=500)
        b = contraction_experiment(g, cfg, trials=500)
        assert a == b

    def test_contracts_on_cycle_at_optimal_gamma(self):
        opt = optimize_gamma(2.5)
        g = generate("cycle", n=8)
        cfg = ChainConfig(q=5, gamma=opt.gamma, seed=3)
        est = contraction_experiment(g, cfg, trials=20_000)
        assert est.mean <= 1.0 - opt.delta + 3.0 * est.stderr

    def test_proper_random_sampler(self, monkeypatch):
        g = generate("cycle", n=8)
        cfg = ChainConfig(q=5, gamma=0.3, seed=4)
        monkeypatch.setattr(coupling, "_BURN_ROUNDS", 20)
        est = contraction_experiment(g, cfg, trials=200, pair_sampler="proper_random")
        assert est.trials == 200
        with pytest.raises(ParameterError):
            contraction_experiment(
                generate("complete", n=6), ChainConfig(q=3, gamma=0.3), trials=10,
                pair_sampler="proper_random",
            )

    def test_proper_random_burn_in_keeps_the_trial_stream(self, monkeypatch):
        # The trial's generator is re-keyed per trial while each burn-in chain
        # draws from a generator of its own. Recorded before either reused
        # a generator, with 20 burn-in rounds.
        g = generate("cycle", n=8)
        cfg = ChainConfig(q=5, gamma=0.3, seed=4)
        monkeypatch.setattr(coupling, "_BURN_ROUNDS", 20)
        est = contraction_experiment(g, cfg, 200, pair_sampler="proper_random", check_lemmas=True)
        fields = [est.trials, float(est.mean).hex(), float(est.stderr).hex(), est.max_phi, est.lemma_failures]
        assert fields == [200, "0x1.07ae147ae147bp+0", "0x1.2c7dc0f1cac13p-5", 3, 0]

    @pytest.mark.parametrize("q", [2**63 - 1, 2**63], ids=["2^63-1", "2^63"])
    def test_y_color_exact_at_the_largest_q(self, q):
        # Y's color at v0 once came from int64 arithmetic, which wrapped at
        # q = 2^63 - 1 (sometimes to X's color) and raised at q = 2^63.
        g = generate("cycle", n=3)
        cfg = ChainConfig(q=q, gamma=0.1, seed=2)
        with np.errstate(over="raise"):
            est = contraction_experiment(g, cfg, 200, check_lemmas=True)
            assert est == reference_contraction_experiment(g, cfg, 200, check_lemmas=True)
        assert est.lemma_failures == 0
        rng = np.random.default_rng(0)
        for _ in range(200):
            pair = sample_adjacent_pair(g, q, rng, np.full(3, q - 1))
            assert 0 <= pair.b < q and pair.b != q - 1

    def test_unknown_sampler_rejected(self):
        g = generate("cycle", n=8)
        with pytest.raises(ParameterError):
            contraction_experiment(g, ChainConfig(q=5, gamma=0.3), trials=10, pair_sampler="bogus")

    @pytest.mark.parametrize("trials", [0, 3])
    def test_parameters_checked_before_any_trial(self, trials):
        # The checks run once per experiment, also when there is no trial.
        g = generate("cycle", n=5)
        with pytest.raises(ParameterError, match="q >= 2"):
            contraction_experiment(g, ChainConfig(q=1, gamma=0.3), trials)
        with pytest.raises(ParameterError, match="unknown pair sampler"):
            contraction_experiment(g, ChainConfig(q=5, gamma=0.3), trials, pair_sampler="bogus")
        with pytest.raises(ParameterError, match="q > max_degree"):
            contraction_experiment(g, ChainConfig(q=2, gamma=0.3), trials, pair_sampler="proper_random")

    @pytest.mark.parametrize("sampler,trials,expected", [
        ("uniform_random", 300, [300, "0x1.c28f5c28f5c29p-1", "0x1.ce60e8f1eaea7p-6", 3, 0]),
        ("proper_random", 40, [40, "0x1.999999999999ap-1", "0x1.4a3ae659bd065p-4", 2, 0]),
    ])
    def test_golden_estimates(self, sampler, trials, expected):
        # Recorded before the per-trial streams and the round draw moved into
        # shared helpers: ER(50, 0.08, seed 4), q = 2D+1, gamma 0.3, seed 6.
        g = generate("erdos_renyi", n=50, p=0.08, seed=4)
        cfg = ChainConfig(q=2 * g.max_degree + 1, gamma=0.3, seed=6)
        est = contraction_experiment(g, cfg, trials, pair_sampler=sampler, check_lemmas=True)
        fields = [est.trials, float(est.mean).hex(), float(est.stderr).hex(), est.max_phi, est.lemma_failures]
        assert fields == expected
