import contextlib
import hashlib
import itertools

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components
from hypothesis import example, given, settings
from hypothesis import strategies as st

from localglauber import (
    ChainConfig,
    Graph,
    ParameterError,
    ResourceLimitError,
    StateSpace,
    ValidationError,
    build_transition_matrix,
    check_absorption,
    check_detailed_balance,
    check_irreducibility,
    check_row_stochastic,
    check_uniform_stationary,
    cycle_automorphisms,
    enumerate_proper_colorings,
    exact_mixing_time,
    generate,
    optimize_gamma,
    parse_edge_list,
    symmetry_reduced_starts,
    tv_curve,
)
from localglauber import exact
from localglauber.dynamics import apply_proposals, draw_round_randomness
from localglauber.exact import analyze_chain, stationary_uniform

from helpers import (
    address_space_limit, coloring_of, index_of, reference_build_transition_matrix, reference_symmetry_reduced_starts,
    without_condition_ii,
)


def chromatic_cycle(n, q):
    return (q - 1) ** n + (-1) ** n * (q - 1)


class TestEnumeration:
    def test_triangle_chromatic_polynomial(self):
        _, count = enumerate_proper_colorings(generate("complete", n=3), 5)
        assert count == 5 * 4 * 3  # q(q-1)(q-2) = 60

    def test_cycle_chromatic_polynomial(self):
        _, count = enumerate_proper_colorings(generate("cycle", n=4), 3)
        assert count == chromatic_cycle(4, 3) == 18

    def test_edgeless_graph_all_states_proper(self):
        _, count = enumerate_proper_colorings(Graph(3, []), 2)
        assert count == 8

    def test_enumeration_budget_enforced(self):
        with pytest.raises(ResourceLimitError):
            StateSpace(generate("path", n=13), 5)  # 5^13 states > 2^24

    @pytest.mark.parametrize("q", [2.5, 3.0, "3"])
    def test_non_integer_q_rejected(self, q):
        # 2.5 once ended in numpy's TypeError while building the state table.
        with pytest.raises(ParameterError, match="q must be an integer"):
            StateSpace(generate("cycle", n=3), q)
        with pytest.raises(ParameterError, match="q must be an integer"):
            enumerate_proper_colorings(generate("cycle", n=3), q)

    def test_index_round_trip(self):
        space = StateSpace(generate("cycle", n=4), 3)
        for idx in (0, 17, 80, 42):
            assert space.states[idx].tolist() == coloring_of(space, idx).tolist()
            assert index_of(space, space.states[idx]) == idx
        assert index_of(space, [0, 0, 0, 0]) == 0

    def test_colors_above_int16_survive_the_table(self):
        # The state table once held colors as int16, which wrapped q - 1 = 39999 to -25537.
        q = 40_000
        colorings, count = enumerate_proper_colorings(Graph(1, []), q)
        assert count == q and colorings.min() == 0 and colorings.max() == q - 1
        space = StateSpace(Graph(2, [(0, 1)]), 200)
        assert space.states.min() == 0 and space.states.max() == 199
        for idx in (0, 199, 200 * 199 + 198, space.size - 1):
            assert index_of(space, space.states[idx]) == idx
        space = StateSpace(Graph(1, []), q)
        for idx in (0, 32_767, 32_768, q - 1):
            assert space.states[idx].tolist() == [idx]
            assert index_of(space, space.states[idx]) == idx


class TestTransitionMatrix:
    def test_single_node_by_hand(self):
        # The node flips iff marked (prob 1/2) and proposes the other color
        # (prob 1/2): off-diagonal mass is exactly 1/4.
        P = build_transition_matrix(Graph(1, []), ChainConfig(q=2, gamma=0.5))
        assert np.allclose(P, [[0.75, 0.25], [0.25, 0.75]], atol=1e-15)

    @pytest.mark.parametrize("family,n", [("complete", 3), ("path", 3), ("cycle", 4)])
    def test_rows_sum_to_one(self, family, n):
        g = generate(family, n=n)
        P = build_transition_matrix(g, ChainConfig(q=5, gamma=0.3))
        assert check_row_stochastic(P).passed

    def test_matrix_entry_cap(self):
        with pytest.raises(ResourceLimitError):
            build_transition_matrix(generate("cycle", n=6), ChainConfig(q=5, gamma=0.3))

    def test_matches_apply_proposals_per_combo(self):
        # Both share the acceptance rule (dynamics._clashes); this checks the
        # builder's orbit and target bookkeeping around it against the kernel.
        rng = np.random.default_rng(5)
        g = generate("erdos_renyi", n=5, p=0.5, seed=1)
        space = StateSpace(g, 3)
        for rule in (contextlib.nullcontext(), without_condition_ii()):
            with rule:
                P = build_transition_matrix(g, ChainConfig(q=3, gamma=0.4))
                for _ in range(300):
                    s = int(rng.integers(space.size))
                    marked = rng.random(5) < 0.5
                    proposal = rng.integers(0, 3, 5)
                    out, _ = apply_proposals(g, coloring_of(space, s), marked, proposal)
                    assert P[s, index_of(space, out)] > 0.0


@st.composite
def small_instances(draw):
    """A random graph with n <= 5 and q <= 6 within the default matrix cap, a gamma and whether to keep (ii)."""
    n = draw(st.integers(1, 5))
    q = draw(st.integers(1, max(c for c in range(1, 7) if c ** n <= 4096)))
    pairs = list(itertools.combinations(range(n), 2))
    edges = [e for e, keep in zip(pairs, draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs))))
             if keep]
    gamma = draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    return Graph(n, edges), q, gamma, draw(st.booleans())


def _assert_same_as_reference(g, q, gamma, enforce):
    cfg = ChainConfig(q=q, gamma=gamma)
    with contextlib.nullcontext() if enforce else without_condition_ii():
        P = build_transition_matrix(g, cfg)
    ref = reference_build_transition_matrix(g, cfg, enforce_reversibility_condition=enforce)
    assert P.shape == ref.shape and P.dtype == ref.dtype
    assert P.tobytes() == ref.tobytes()


class TestBuilderAgainstReference:
    """The orbit builder must give the per-combination loop's matrix bit for bit."""

    @settings(max_examples=30, deadline=None)
    @given(small_instances())
    @example((Graph(1, []), 1, 0.5, True))
    @example((Graph(3, []), 3, 0.3, True))
    @example((generate("complete", n=4), 6, 0.4, False))
    @example((generate("cycle", n=4), 7, 0.2, True))
    def test_random_graphs(self, instance):
        _assert_same_as_reference(*instance)

    @pytest.mark.parametrize("family,n,q,enforce", [("star", 6, 4, True), ("cycle", 10, 2, False)])
    def test_many_combinations_per_orbit(self, family, n, q, enforce):
        # star(6) at q=4 reaches the default cap; cycle(10) at q=2 has the
        # most combinations per orbit representative.
        _assert_same_as_reference(generate(family, n=n), q, 0.35, enforce)

    @pytest.mark.parametrize("q,gamma,digest", [
        (5, None, "fd1f5bf308ab751bf60b91dea684a41390f785610d62fb0ab2c4cbbc4f17206c"),
        (4, 0.3, "2e0842fc53d5d548d3234bed944ffa11258c9af55e404d17beee08cdccf97fc8"),
    ], ids=["q5-gamma-star", "q4"])
    def test_c5_digest(self, q, gamma, digest):
        # Recorded from the per-combination builder; q=5 runs at gamma*(2.5).
        gamma = optimize_gamma(2.5).gamma if gamma is None else gamma
        P = build_transition_matrix(generate("cycle", n=5), ChainConfig(q=q, gamma=gamma))
        assert hashlib.sha256(P.tobytes()).hexdigest() == digest

    def test_combination_table_cap(self):
        # With one color the table (n x 2^n) outgrows P (1 x 1): 20 nodes
        # need 20 * 2^20 entries, over the default cap of 2^24.
        with address_space_limit(), pytest.raises(ResourceLimitError):
            build_transition_matrix(Graph(20, []), ChainConfig(q=1, gamma=0.5))


class TestStationarityChecks:
    @pytest.mark.parametrize("gamma", [0.2, 0.5, 0.8])
    def test_triangle_detailed_balance(self, gamma):
        g = generate("complete", n=3)
        P = build_transition_matrix(g, ChainConfig(q=5, gamma=gamma))
        assert check_detailed_balance(P, StateSpace(g, 5)).passed

    @pytest.mark.parametrize("family,n", [("path", 3), ("cycle", 4)])
    def test_uniform_stationary(self, family, n):
        g = generate(family, n=n)
        P = build_transition_matrix(g, ChainConfig(q=5, gamma=0.3))
        assert check_uniform_stationary(P, StateSpace(g, 5)).passed

    @pytest.mark.parametrize("family,n", [("path", 3), ("cycle", 4)])
    def test_corrupted_rule_breaks_detailed_balance(self, family, n):
        # Regression guard: dropping the reversibility condition must be
        # caught by the detailed-balance check on path/cycle instances.
        g = generate(family, n=n)
        with without_condition_ii():
            P = build_transition_matrix(g, ChainConfig(q=5, gamma=0.5))
        report = check_detailed_balance(P, StateSpace(g, 5))
        assert not report.passed
        assert report.max_error > 1e-6

    def test_corrupted_rule_invisible_on_complete_graphs(self):
        # On K_n every accepted simultaneous move uses colors fresh to the
        # whole graph, so swapping old and new colors is an involution that
        # maps the forward transition to its reverse: detailed balance holds
        # even without the reversibility condition. The guard above must
        # therefore use non-complete instances.
        g = generate("complete", n=3)
        with without_condition_ii():
            P = build_transition_matrix(g, ChainConfig(q=5, gamma=0.5))
        assert check_detailed_balance(P, StateSpace(g, 5)).max_error == 0.0

    def test_absorption_exact_zero(self):
        g = generate("cycle", n=4)
        P = build_transition_matrix(g, ChainConfig(q=5, gamma=0.5))
        assert check_absorption(P, StateSpace(g, 5)).passed

    def test_irreducibility_reported(self):
        g = generate("path", n=3)
        P = build_transition_matrix(g, ChainConfig(q=5, gamma=0.3))
        assert check_irreducibility(P, StateSpace(g, 5)).passed

    def test_improper_mass_decays_monotonically(self):
        g = generate("cycle", n=4)
        space = StateSpace(g, 3)
        P = build_transition_matrix(g, ChainConfig(q=3, gamma=0.4))
        masses = tv_curve(P, space, starts=[0], max_rounds=120).improper_mass[0]
        assert len(masses) == 121
        assert masses[0] == 1.0  # all-zeros start is improper
        assert np.all(np.diff(masses) <= 1e-15)
        assert masses[-1] < 1e-3

    def test_improper_mass_matches_one_start_propagation(self):
        # Every start's row is the improper share of its own distribution,
        # proper starts included (they keep none, by absorption).
        g = generate("cycle", n=4)
        space = StateSpace(g, 3)
        P = build_transition_matrix(g, ChainConfig(q=3, gamma=0.4))
        starts = [0, 1, int(space.proper_indices[0])]
        curve = tv_curve(P, space, starts=starts, max_rounds=15)
        assert curve.improper_mass.shape == curve.per_start.shape == (3, 16)
        for row, start in zip(curve.improper_mass, starts):
            nu = np.zeros(space.size)
            nu[start] = 1.0
            expected = []
            for _ in range(16):
                expected.append(nu[~space.proper_mask].sum())
                nu = nu @ P
            assert np.allclose(row, expected, rtol=0.0, atol=1e-15)
        assert np.all(curve.improper_mass[2] == 0.0)


class TestBlockedChecks:
    """The proper-block checks read P in row blocks and must report the whole-block maxima."""

    @pytest.mark.parametrize("row", [0, 1], ids=["last-row-of-block", "first-row-of-next"])
    def test_asymmetry_at_a_block_boundary(self, monkeypatch, row):
        g = generate("cycle", n=4)
        space = StateSpace(g, 3)
        idx = space.proper_indices
        improper = np.flatnonzero(~space.proper_mask)
        monkeypatch.setattr(exact, "_BLOCK", 4 * len(idx))   # blocks of 4 rows, for P and its transpose
        rng = np.random.default_rng(3)
        P = rng.random((space.size, space.size))
        P = P + P.T
        P[np.ix_(idx, improper)] = 0.0
        boundary = 4 + row - 1                               # row 3 ends the first block, row 4 starts the next
        far = idx[-1]
        P[idx[boundary], far] += 2.0 ** -30
        P[idx[boundary], improper[row]] = 2.0 ** -40
        sub = P[np.ix_(idx, idx)]
        whole = float(np.abs(sub - sub.T).max())
        assert whole > 0.0
        assert check_detailed_balance(P, space).max_error == whole
        assert check_absorption(P, space).max_error == float(P[np.ix_(idx, improper)].max()) == 2.0 ** -40
        P[idx[boundary]] = 0.0                               # cut every edge out of one state
        ncomp = connected_components(csr_matrix(P[np.ix_(idx, idx)] > 0.0), directed=True,
                                     connection="strong")[0]
        assert ncomp == 2
        assert check_irreducibility(P, space).max_error == float(ncomp - 1)


class TestMonteCarloAgainstExact:
    def test_one_step_frequencies_within_five_sigma(self):
        g = generate("path", n=3)
        q, gamma = 3, 0.5
        space = StateSpace(g, q)
        P = build_transition_matrix(g, ChainConfig(q=q, gamma=gamma))
        cfg = ChainConfig(q=q, gamma=gamma, seed=2024)
        start = 5
        x0 = coloring_of(space, start)
        trials = 100_000
        counts = np.zeros(space.size)
        for t in range(trials):
            rr = draw_round_randomness(cfg, g.node_count, t)
            counts[index_of(space, apply_proposals(g, x0, rr.marked, rr.proposal)[0])] += 1
        freq = counts / trials
        row = P[start]
        assert np.all(counts[row == 0.0] == 0)
        sigma = np.sqrt(row * (1 - row) / trials)
        mask = row > 0
        assert np.all(np.abs(freq[mask] - row[mask]) <= 5 * sigma[mask])


class TestMixingTime:
    def test_eps_one_is_zero_rounds(self):
        g = Graph(1, [])
        P = build_transition_matrix(g, ChainConfig(q=2, gamma=0.5))
        assert exact_mixing_time(P, StateSpace(g, 2), eps=1.0).rounds == 0

    def test_two_state_closed_form(self):
        # TV from either start halves each round from 1/2:
        # smallest t with 0.5^(t+1) <= 0.01 is 6.
        g = Graph(1, [])
        P = build_transition_matrix(g, ChainConfig(q=2, gamma=0.5))
        assert exact_mixing_time(P, StateSpace(g, 2), eps=0.01).rounds == 6

    def test_max_tv_nonincreasing(self):
        g = generate("cycle", n=4)
        P = build_transition_matrix(g, ChainConfig(q=5, gamma=0.4))
        curve = tv_curve(P, StateSpace(g, 5), max_rounds=60)
        assert np.all(np.diff(curve.max_tv) <= 1e-12)

    def test_negative_round_counts_rejected(self):
        g = Graph(1, [])
        space = StateSpace(g, 2)
        P = build_transition_matrix(g, ChainConfig(q=2, gamma=0.5))
        with pytest.raises(ParameterError, match="max_rounds must be >= 0"):
            tv_curve(P, space, max_rounds=-1)
        assert tv_curve(P, space, max_rounds=0).rounds.tolist() == [0]

    @pytest.mark.parametrize("starts", [[-1], [0.5], [27], [], [[0, 1]], [True]],
                             ids=["negative", "float", "size", "empty", "2-D", "bool"])
    def test_foreign_starts_rejected(self, starts):
        # On C3 at q=3 (27 states), [-1] once ran from state 26 but recorded
        # -1, [0.5] ran from state 0, and [27] and [] ended in numpy errors;
        # the TV curve and the improper mass it records share these starts.
        g = generate("cycle", n=3)
        space = StateSpace(g, 3)
        P = build_transition_matrix(g, ChainConfig(q=3, gamma=0.3))
        with pytest.raises(ParameterError):
            tv_curve(P, space, starts=starts, max_rounds=2)

    def test_starts_of_any_integer_type_accepted(self):
        g = generate("cycle", n=3)
        space = StateSpace(g, 3)
        P = build_transition_matrix(g, ChainConfig(q=3, gamma=0.3))
        curve = tv_curve(P, space, starts=np.array([26, 0], dtype=np.uint8), max_rounds=2)
        assert curve.start_indices.dtype == np.int64
        one = tv_curve(P, space, starts=[26], max_rounds=2)
        assert np.array_equal(curve.per_start[0], one.per_start[0])
        small = tv_curve(P, space, starts=np.array([26], dtype=np.int16), max_rounds=2)
        assert np.array_equal(small.improper_mass, one.improper_mass)

    def test_exceeded_reported_not_raised(self):
        g = generate("cycle", n=4)
        P = build_transition_matrix(g, ChainConfig(q=5, gamma=0.4))
        space = StateSpace(g, 5)
        res = exact_mixing_time(P, space, eps=0.01, curve=tv_curve(P, space, max_rounds=3))
        assert res.rounds is None

    def test_geometric_tail_on_triangle(self):
        # Log-dependence probe: with mu the uniform-proper target, the gap
        # between mixing times at eps and eps/e is constant in eps.
        g = generate("complete", n=3)
        space = StateSpace(g, 5)
        P = build_transition_matrix(g, ChainConfig(q=5, gamma=0.5))
        e = float(np.e)
        taus = [exact_mixing_time(P, space, eps).rounds for eps in (0.25, 0.25 / e, 0.25 / e**2)]
        assert taus[0] <= taus[1] <= taus[2]
        assert abs((taus[2] - taus[1]) - (taus[1] - taus[0])) <= 1


def _path_group(n):
    return [np.arange(n), np.arange(n)[::-1]]


# (graph, q, automorphism group); an empty list means the identity alone.
SYMMETRY_CASES = {
    "C3q5": (generate("cycle", n=3), 5, cycle_automorphisms(3)),
    "C4q4": (generate("cycle", n=4), 4, cycle_automorphisms(4)),
    "C5q2": (generate("cycle", n=5), 2, cycle_automorphisms(5)),
    "C5q5": (generate("cycle", n=5), 5, cycle_automorphisms(5)),
    "C6q3": (generate("cycle", n=6), 3, cycle_automorphisms(6)),
    "C6q4": (generate("cycle", n=6), 4, cycle_automorphisms(6)),
    "P1q3": (generate("path", n=1), 3, _path_group(1)),
    "P4q3": (generate("path", n=4), 3, _path_group(4)),
    "P5q4": (generate("path", n=5), 4, _path_group(5)),
    "P3q1": (generate("path", n=3), 1, _path_group(3)),
    "K3q5": (generate("complete", n=3), 5, [np.array(p) for p in itertools.permutations(range(3))]),
    "C5q3-identity": (generate("cycle", n=5), 3, []),
    "P4q4-identity": (generate("path", n=4), 4, [np.arange(4)]),
}


class TestSymmetryReduction:
    @pytest.mark.parametrize("case", SYMMETRY_CASES.values(), ids=SYMMETRY_CASES.keys())
    def test_matches_per_state_loop(self, case):
        g, q, group = case
        space = StateSpace(g, q)
        reps = symmetry_reduced_starts(space, group)
        assert reps.dtype == np.int64
        assert np.array_equal(reps, reference_symmetry_reduced_starts(space, group))

    @pytest.mark.parametrize("perm", [[0, 1], [0, 1, 2, 3], [0, 0, 2], [0, 1, 3], [0.0, 1.0, 2.0], [1, 0, 2]],
                             ids=["short", "long", "repeat", "outside", "float", "edge-to-non-edge"])
    def test_non_automorphisms_rejected(self, perm):
        # On P3 at q=3, [0, 1] once gave 2 "orbit starts" where colour
        # relabelling alone gives 5, and [1, 0, 2], which maps edge (1, 2)
        # onto the non-edge (0, 2), was accepted.
        space = StateSpace(generate("path", n=3), 3)
        assert len(symmetry_reduced_starts(space, [])) == 5
        with pytest.raises(ValidationError):
            symmetry_reduced_starts(space, [np.arange(3), np.array(perm)])

    def test_orbit_counts_on_five_colored_cycles(self):
        counts = [len(symmetry_reduced_starts(StateSpace(generate("cycle", n=n), 5), cycle_automorphisms(n)))
                  for n in (5, 6)]
        assert counts == [12, 36]

    @pytest.mark.parametrize("n,q", [(4, 3), (5, 3)])
    def test_reduced_starts_reproduce_full_max(self, n, q):
        g = generate("cycle", n=n)
        space = StateSpace(g, q)
        P = build_transition_matrix(g, ChainConfig(q=q, gamma=0.35))
        reps = symmetry_reduced_starts(space, cycle_automorphisms(n))
        assert len(reps) < space.size
        full = tv_curve(P, space, max_rounds=30)
        reduced = tv_curve(P, space, starts=reps, max_rounds=30)
        assert np.allclose(full.max_tv, reduced.max_tv, atol=1e-13)

    def test_uniform_target_requires_proper_states(self):
        g = generate("complete", n=3)
        with pytest.raises(ValidationError):
            stationary_uniform(StateSpace(g, 2))  # K3 has no proper 2-coloring


CRITERION8_EPS = (0.25, 0.25 / np.e, 0.25 / np.e**2)


class TestAnalyzeChain:
    @pytest.fixture(scope="class")
    def cfg(self):
        return ChainConfig(q=5, gamma=optimize_gamma(2.5).gamma)

    @pytest.mark.parametrize("n", [4, 5])
    def test_matches_the_pipeline_step_by_step(self, cfg, n):
        g = generate("cycle", n=n)
        space = StateSpace(g, cfg.q)
        P = build_transition_matrix(g, cfg)
        checks = [check_row_stochastic(P), check_detailed_balance(P, space), check_uniform_stationary(P, space),
                  check_absorption(P, space), check_irreducibility(P, space)]
        starts = symmetry_reduced_starts(space, cycle_automorphisms(n))
        curve = tv_curve(P, space, starts=starts, stop_tv=min(CRITERION8_EPS), max_rounds=800)
        rounds = [exact_mixing_time(P, space, eps, curve=curve).rounds for eps in CRITERION8_EPS]

        result = analyze_chain(g, cfg, CRITERION8_EPS, 800)
        assert result.checks == checks
        assert [c.name for c in result.checks] == [
            "row_stochastic", "detailed_balance", "uniform_stationary", "absorption", "irreducible_on_proper"]
        for field in ("start_indices", "per_start", "max_tv", "improper_mass"):
            assert np.array_equal(getattr(result.curve, field), getattr(curve, field)), field
        assert result.rounds == rounds and None not in rounds
        assert result.curve.start_indices[0] == 0

    def test_starts_follow_the_graph(self, cfg):
        # The dihedral group joins colour relabelling exactly where the edges
        # are those of the cycle 0-1-...-(n-1), however the graph was made.
        labelled = analyze_chain(parse_edge_list(b"0 1\n1 2\n2 3\n3 4\n4 0\n"), cfg, CRITERION8_EPS, 800)
        relabelled = analyze_chain(parse_edge_list(b"0 2\n2 4\n4 1\n1 3\n3 0\n"), cfg, CRITERION8_EPS, 800)
        dihedral = symmetry_reduced_starts(labelled.space, cycle_automorphisms(5))
        assert len(dihedral) == 12
        assert np.array_equal(labelled.curve.start_indices, dihedral)
        assert np.array_equal(relabelled.curve.start_indices, symmetry_reduced_starts(relabelled.space, []))
        assert len(relabelled.curve.start_indices) > 12
        assert labelled.rounds == relabelled.rounds
        triangle = analyze_chain(generate("complete", n=3), cfg, [0.25], 200)
        assert len(triangle.curve.start_indices) == 3  # K3 is the 3-cycle

    @pytest.mark.parametrize("eps_list", [[], [0.1, 0.0], [-0.25]], ids=["empty", "zero", "negative"])
    def test_bad_eps_refused_before_building(self, cfg, monkeypatch, eps_list):
        def refuse(*args):
            raise AssertionError("P built for a bad eps list")

        monkeypatch.setattr(exact, "build_transition_matrix", refuse)
        with pytest.raises(ParameterError, match="eps_list"):
            analyze_chain(generate("cycle", n=4), cfg, eps_list, 10)
