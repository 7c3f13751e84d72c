"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Criterion 8 at n in {7, 8} needs the dense 5^n x 5^n transition
matrix (45.5 GiB and 1,136.9 GiB); it runs wherever physical memory holds
it and is skipped elsewhere, with a SKIP line stating the bytes needed and
the bytes present.
"""

import math
import os

import numpy as np
import pytest
from scipy import stats

import localglauber as lg

from helpers import couple_rows, index_of, sample_adjacent_pair, without_condition_ii

E = math.e


def report(criterion, ok, detail):
    """Print one line per case; ok=None marks a case skipped for lack of resources."""
    status = "SKIP" if ok is None else "PASS" if ok else "FAIL"
    print(f"[criterion {criterion}] {status} - {detail}")
    if ok is None:
        pytest.skip(f"criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def gamma_star_25():
    return lg.optimize_gamma(2.5)


@pytest.fixture(scope="module")
def gamma_star_3():
    return lg.optimize_gamma(3.0)


SMALL_INSTANCES = [
    ("triangle K3", lg.generate("complete", n=3), 5),
    ("path P3", lg.generate("path", n=3), 5),
    ("cycle C4", lg.generate("cycle", n=4), 5),
]
GAMMAS = (0.2, 0.5, 0.8)


@pytest.fixture(scope="module")
def small_matrices():
    out = {}
    for name, g, q in SMALL_INSTANCES:
        space = lg.StateSpace(g, q)
        for gamma in GAMMAS:
            P = lg.build_transition_matrix(g, lg.ChainConfig(q=q, gamma=gamma))
            out[(name, gamma)] = (g, q, space, P)
    return out


def test_criterion_1_detailed_balance_and_stationarity(small_matrices):
    worst_db = worst_st = 0.0
    for (name, gamma), (_, _, space, P) in small_matrices.items():
        db = lg.check_detailed_balance(P, space)
        st = lg.check_uniform_stationary(P, space)
        assert db.passed, f"{name} gamma={gamma}: detailed balance error {db.max_error}"
        assert st.passed, f"{name} gamma={gamma}: stationarity error {st.max_error}"
        worst_db = max(worst_db, db.max_error)
        worst_st = max(worst_st, st.max_error)
    report(
        1, True,
        f"9 instances: max detailed-balance error {worst_db:.2e}, "
        f"max stationarity error {worst_st:.2e} (tol 1e-12)",
    )


def test_criterion_2_absorption(small_matrices):
    for (name, gamma), (_, _, space, P) in small_matrices.items():
        rep = lg.check_absorption(P, space)
        assert rep.passed, f"{name} gamma={gamma}: proper->improper mass {rep.max_error}"

    g = lg.generate("erdos_renyi", n=200, p=0.03, seed=202)
    q = g.max_degree + 2
    cfg = lg.ChainConfig(q=q, gamma=0.5, seed=11)
    x = lg.greedy_coloring(g, q)
    assert lg.is_proper(g, x)
    rounds = 100_000

    def stays_proper(t, rr, accepted, x):
        assert lg.is_proper(g, x), f"improper successor at round {t}"

    lg.run_chain(g, cfg, x, rounds, observe=stays_proper)
    report(
        2, True,
        f"exact proper->improper mass 0 on 9 instances; {rounds} rounds on "
        f"erdos_renyi(200, 0.03) (max_degree {g.max_degree}, q {q}) stayed proper",
    )


def test_criterion_3_reversibility_condition_regression():
    # Disabling acceptance condition (ii) must break detailed balance. It
    # does on every non-complete instance of criterion 1. On a complete
    # graph every accepted simultaneous move uses colors fresh to the whole
    # graph, so swapping old and new colors is an involution mapping each
    # transition to its reverse: detailed balance holds exactly with or
    # without condition (ii), and K3 is checked as that exception.
    broken, exact = [], []
    for name, g, q in SMALL_INSTANCES:
        complete = g.edge_count == g.node_count * (g.node_count - 1) // 2
        space = lg.StateSpace(g, q)
        for gamma in GAMMAS:
            with without_condition_ii():
                P = lg.build_transition_matrix(g, lg.ChainConfig(q=q, gamma=gamma))
            rep = lg.check_detailed_balance(P, space)
            if complete:
                assert rep.max_error <= 1e-12, (
                    f"{name} gamma={gamma}: corrupted-rule asymmetry {rep.max_error} on a complete graph"
                )
                exact.append(f"{name} gamma={gamma}: {rep.max_error:.1e}")
            else:
                assert not rep.passed and rep.max_error > 1e-6, (
                    f"{name} gamma={gamma}: corrupted-rule asymmetry {rep.max_error} <= 1e-6"
                )
                broken.append(f"{name} gamma={gamma}: {rep.max_error:.2e}")
    report(
        3, True,
        "corrupted-rule (no condition (ii)) detailed-balance asymmetry at q=5: "
        + ", ".join(broken) + " (all > 1e-6); complete-graph exception "
        + ", ".join(exact) + " (all <= 1e-12). Pinned by test_exact.py::TestStationarityChecks::"
        "test_corrupted_rule_breaks_detailed_balance and ::test_corrupted_rule_invisible_on_complete_graphs",
    )


def _coupled_blocks(g, x, y, v0, marked, proposal, block=4096):
    """The coupled steps of trials given one per row, run a block of trials at a time.

    Each step's arrays hold its trials' rows end to end.
    """
    for lo in range(0, len(v0), block):
        rows = slice(lo, lo + block)
        yield rows, couple_rows(g, x[rows], y[rows], v0[rows], marked[rows], proposal[rows])


def test_criterion_4_coupling_marginal_validity(gamma_star_25):
    # Part 1: each chain's marked-node proposals uniform on [q] over 1e5
    # coupled steps on C8 q=5. Each trial draws its pair and its round from
    # its own Philox key; the coupled steps then run in blocks of trials.
    g = lg.generate("cycle", n=8)
    q = 5
    cfg = lg.ChainConfig(q=q, gamma=gamma_star_25.gamma, seed=4)
    trials = 100_000
    x, y = np.empty((trials, 8), dtype=np.int64), np.empty((trials, 8), dtype=np.int64)
    v0 = np.empty(trials, dtype=np.int64)
    marked, proposal = np.empty((trials, 8), dtype=bool), np.empty((trials, 8), dtype=np.int64)
    mask64 = (1 << 64) - 1
    for trial in range(trials):
        key = np.array([cfg.seed & mask64, trial], dtype=np.uint64)
        rng = np.random.Generator(np.random.Philox(key=key))
        pair = sample_adjacent_pair(g, q, rng)
        x[trial], y[trial], v0[trial] = pair.x, pair.y, pair.v0
        marked[trial] = rng.random(8) < cfg.gamma
        proposal[trial] = rng.integers(0, q, 8)
    cx_counts = np.zeros(q)
    cy_counts = np.zeros(q)
    for rows, step in _coupled_blocks(g, x, y, v0, marked, proposal):
        cx_counts += np.bincount(step.proposals.cx[marked[rows].ravel()], minlength=q)
        cy_counts += np.bincount(step.proposals.cy[marked[rows].ravel()], minlength=q)
    px = stats.chisquare(cx_counts).pvalue
    py = stats.chisquare(cy_counts).pvalue
    assert px > 0.001, f"X-side proposals not uniform: p={px}"
    assert py > 0.001, f"Y-side proposals not uniform: p={py}"

    # Part 2: one-step frequencies of both coupled marginals match the exact
    # transition matrix rows on a tiny instance within 5 standard errors.
    g3 = lg.generate("complete", n=3)
    q3, gamma3 = 5, 0.5
    space = lg.StateSpace(g3, q3)
    P = lg.build_transition_matrix(g3, lg.ChainConfig(q=q3, gamma=gamma3))
    x = np.array([0, 1, 2])
    y = np.array([3, 1, 2])
    pair = lg.AdjacentPair(x, y, 0)
    cfg3 = lg.ChainConfig(q=q3, gamma=gamma3, seed=5)
    marked, proposal = np.empty((trials, 3), dtype=bool), np.empty((trials, 3), dtype=np.int64)
    for trial in range(trials):
        key = np.array([cfg3.seed & mask64, trial], dtype=np.uint64)
        rng = np.random.Generator(np.random.Philox(key=key))
        marked[trial] = rng.random(3) < gamma3
        proposal[trial] = rng.integers(0, q3, 3)
    counts_x = np.zeros(space.size)
    counts_y = np.zeros(space.size)
    pairs = np.tile(pair.x, (trials, 1)), np.tile(pair.y, (trials, 1)), np.full(trials, pair.v0)
    for _, step in _coupled_blocks(g3, *pairs, marked, proposal):
        counts_x += np.bincount(step.x_next.reshape(-1, 3) @ space.q_powers, minlength=space.size)
        counts_y += np.bincount(step.y_next.reshape(-1, 3) @ space.q_powers, minlength=space.size)
    max_sigmas = 0.0
    for counts, start in ((counts_x, index_of(space, x)), (counts_y, index_of(space, y))):
        row = P[start]
        freq = counts / trials
        assert np.all(counts[row == 0.0] == 0), "observed a transition with exact probability 0"
        mask = row > 0
        sigma = np.sqrt(row[mask] * (1 - row[mask]) / trials)
        devs = np.abs(freq[mask] - row[mask]) / sigma
        assert np.all(devs <= 5.0), f"marginal deviates from exact row by {devs.max():.2f} sigma"
        max_sigmas = max(max_sigmas, float(devs.max()))
    report(
        4, True,
        f"proposal uniformity chi-square p=({px:.3f}, {py:.3f}) > 0.001; "
        f"both marginals within {max_sigmas:.2f} sigma (<= 5) of the exact rows over {trials} steps",
    )


def test_criterion_5_lemma_checkers():
    er = lg.generate("erdos_renyi", n=50, p=0.08, seed=4)
    instances = [
        ("C8 q=5", lg.generate("cycle", n=8), 5),
        ("K5 q=11", lg.generate("complete", n=5), 11),
        (f"ER(50,0.08) q=2*{er.max_degree}+1", er, 2 * er.max_degree + 1),
    ]
    trials = 10_000
    details = []
    for name, g, q in instances:
        cfg = lg.ChainConfig(q=q, gamma=0.3, seed=6)
        est = lg.contraction_experiment(g, cfg, trials=trials, check_lemmas=True)
        assert est.lemma_failures == 0, f"{name}: {est.lemma_failures} lemma violations"
        details.append(f"{name}: 0/{trials}")
    report(5, True, "flip-path and almost-flip-path violations " + "; ".join(details))


def test_criterion_6_contraction_vs_theory(gamma_star_3):
    gamma, delta = gamma_star_3.gamma, gamma_star_3.delta
    trials = 100_000
    results = []
    for name, g in (("C8", lg.generate("cycle", n=8)), ("K5", lg.generate("complete", n=5))):
        q = 3 * g.max_degree
        cfg = lg.ChainConfig(q=q, gamma=gamma, seed=13)
        est = lg.contraction_experiment(g, cfg, trials=trials)
        upper = 1.0 - delta + 3.0 * est.stderr
        assert est.mean <= upper, f"{name} q={q}: mean {est.mean} > bound {upper}"
        assert est.mean < 1.0 - 3.0 * est.stderr, f"{name} q={q}: not strictly below 1"
        results.append(f"{name} q={q}: mean {est.mean:.5f} (se {est.stderr:.5f}) <= {upper:.5f}")
    report(6, True, f"gamma*={gamma:.6f}, 1-delta={1 - delta:.5f}; " + "; ".join(results))


def test_criterion_7_bound_arithmetic():
    assert lg.path_bound(2, 5, 0.25) == pytest.approx(0.125, abs=1e-15)
    assert lg.v0_bound(2, 5, 0.5) == pytest.approx(0.853, abs=1e-12)
    # Independent 50-digit evaluation of delta(3, 0.1), frozen:
    assert lg.delta_wrapup(3.0, 0.1) == pytest.approx(0.018867764490913076, abs=1e-10)
    grid = np.arange(1e-4, 1.0, 1e-4)
    values = np.array([lg.delta_wrapup(2.0, float(g)) for g in grid])
    assert np.all(values <= 0.0), "found positive margin at alpha=2"
    report(
        7, True,
        "path_bound(2,5,0.25)=0.125, v0_bound(2,5,0.5)=0.853, "
        "delta(3,0.1)=0.0188677644909131 (1e-10), alpha=2 grid scan (step 1e-4) all <= 0",
    )


# --- criterion 8: exact log-mixing probe on cycles ------------------------

EPS_LIST = (0.25, 0.25 / E, 0.25 / E**2)
# Matrix entries for q=5: 5^(2n). Up to this cap (n <= 6: 2.44e8 entries,
# 1.8 GiB) the exact run goes ahead directly. Above it (n=7: 45.5 GiB, n=8:
# 1,136.9 GiB as float64) the module's own MATRIX_ENTRY_CAP must refuse, and
# the same exact run goes ahead only where physical memory holds what it
# needs. Either way the test then patches exact.MATRIX_ENTRY_CAP to Q^2 for
# its one build, since every n here is above the module's cap of 2^24.
CRITERION8_ENTRY_CAP = 2**28
# tv_curve holds two starts x Q float64 blocks at once: the distributions,
# and their product with P, which doubles as the TV scratch (tracemalloc
# peak on C6 with 36 starts: 2.03 blocks, the rest being the Q-vector mu).
TV_BLOCKS = 2


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_criterion_8_log_mixing_probe(n, gamma_star_25, monkeypatch):
    q = 5
    g = lg.generate("cycle", n=n)
    cfg = lg.ChainConfig(q=q, gamma=gamma_star_25.gamma)
    states = q**n
    space = lg.StateSpace(g, q)
    reps = None
    if states * states > CRITERION8_ENTRY_CAP:
        with pytest.raises(lg.ResourceLimitError):
            lg.build_transition_matrix(g, cfg)  # the module's own cap refuses
        phys = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
        need, parts = 8 * states * states, "the dense P alone"
        if need <= phys:  # the starts matter only when P fits (counting them takes ~2 s at n=8)
            reps = lg.symmetry_reduced_starts(space, lg.cycle_automorphisms(n))
            need += TV_BLOCKS * 8 * len(reps) * states
            parts = f"the dense P plus {TV_BLOCKS} TV blocks of {len(reps)} starts"
        if need > phys:
            report(
                f"8 (n={n})", None,
                f"n={n}, Q={states}: the exact run needs {need:,} B ({need / 2**30:,.1f} GiB) "
                f"for {parts}; physical memory is {phys:,} B ({phys / 2**30:,.1f} GiB)",
            )

    monkeypatch.setattr(lg.exact, "MATRIX_ENTRY_CAP", states * states)
    P = lg.build_transition_matrix(g, cfg)
    if reps is None:
        reps = lg.symmetry_reduced_starts(space, lg.cycle_automorphisms(n))
    curve = lg.tv_curve(P, space, starts=reps, stop_tv=min(EPS_LIST), max_rounds=800)
    taus = [lg.exact_mixing_time(P, space, eps, curve=curve).rounds for eps in EPS_LIST]
    assert all(t is not None for t in taus), "TV did not reach the smallest eps within 800 rounds"

    # Geometric decay after burn-in: the last 20 successive max-TV ratios
    # stay below 1 and within a 10% band.
    ratios = curve.max_tv[1:] / curve.max_tv[:-1]
    tail = ratios[-20:]
    spread = float(tail.max() - tail.min()) / float(tail.min())
    assert np.all(tail < 1.0), "max-TV not strictly decaying in the tail"
    assert spread <= 0.10, f"tail decay ratio varies by {spread:.1%} > 10%"

    # tau(eps/e) - tau(eps) constant in eps within +-1 round: every
    # increment must sit within one round of a common constant.
    diffs = [taus[i + 1] - taus[i] for i in range(len(taus) - 1)]
    center = round(sum(diffs) / len(diffs))
    assert all(abs(d - center) <= 1 for d in diffs), (
        f"mixing-time increments {diffs} not constant within +-1 round"
    )
    report(
        f"8 (n={n})", True,
        f"{len(reps)} orbit starts over {states} states; taus={taus}, "
        f"increments {diffs} (constant {center} +-1), tail ratio {tail.mean():.4f} "
        f"(spread {spread:.2%})",
    )


def test_criterion_9_cli_determinism(tmp_path):
    from localglauber.cli import main

    runs = [
        (
            "sample", "--gen", "cycle", "--gen-args", "n=100", "--alpha", "3",
            "--gamma", "auto", "--seed", "1",
        ),
        (
            "sample", "--gen", "erdos_renyi", "--gen-args", "n=40,p=0.1",
            "--q", "9", "--gamma", "0.4", "--rounds", "50", "--seed", "7",
        ),
        ("exact", "--gen", "complete", "--gen-args", "n=3", "--q", "5", "--gamma", "0.5"),
        (
            "couple", "--gen", "cycle", "--gen-args", "n=8", "--q", "5",
            "--gamma", "auto", "--trials", "2000", "--seed", "3",
        ),
        ("analyze", "--alphas", "2,2.5,3,4"),
    ]
    for i, argv in enumerate(runs):
        a = tmp_path / f"run{i}_a.out"
        b = tmp_path / f"run{i}_b.out"
        ta = tmp_path / f"run{i}_a.trace"
        tb = tmp_path / f"run{i}_b.trace"
        extra_a, extra_b = [], []
        if argv[0] == "sample":
            extra_a, extra_b = ["--trace", str(ta)], ["--trace", str(tb)]
        code_a = main(list(argv) + ["--out", str(a)] + extra_a)
        code_b = main(list(argv) + ["--out", str(b)] + extra_b)
        assert code_a == code_b == 0
        assert a.read_bytes() == b.read_bytes(), f"run {argv} not byte-identical"
        if extra_a:
            assert ta.read_bytes() == tb.read_bytes()
    report(9, True, f"{len(runs)} CLI configurations re-run byte-identically (incl. trace CSVs)")
