"""The four benchmark workloads, each driving the public API of localglauber.

Every workload has a `setup(seed)` that builds the instance (timed as
setup_s) and a `run(instance)` that does one repetition of the work and
returns an `Outcome`: the work done, the checks it made, and a digest of
its output. `--seed` is an offset added to the workload's base chain seed,
so seed 0 reproduces the instances the acceptance suite uses. Why each
workload exists is recorded in README.md next to this file.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, replace

import numpy as np

import localglauber as lg

EPS_LIST = (0.25, 0.25 / math.e, 0.25 / math.e**2)
GOLDEN_TV_TOL = 1e-12


@dataclass
class Outcome:
    work: float               # units of work in this repetition
    attempted: int            # checks made
    failed: int               # checks that failed
    digest: str               # sha256 of the repetition's output
    output: object = None     # the final coloring, where the CLI cross-checks it


@dataclass
class Instance:
    g: object
    cfg: object
    x0: np.ndarray | None = None
    rounds: int = 0           # rounds in one repetition
    full_rounds: int = 0      # rounds of the whole chain, where it differs
    space: object = None


def _sha256(*parts: bytes) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p)
    return h.hexdigest()


def _chain_digest(x: np.ndarray, trace) -> str:
    rows = np.array([(s.round_index, s.marked, s.accepted, s.conflicts, s.proper) for s in trace],
                    dtype="<i8").reshape(-1, 5)
    return _sha256(np.asarray(x, dtype="<i8").tobytes(), rows.tobytes())


def no_conflict_created(g, x0: np.ndarray, x: np.ndarray) -> bool:
    """True if every monochromatic edge of x joins two nodes still at their x0 color.

    An accepted move takes a color no neighbor holds or proposes, so a node
    that has moved once is never in conflict again: conflicts only survive
    between nodes that never moved. From a proper x0 this is properness.
    """
    src, dst = g.edge_src, g.edge_dst
    clash = x[src] == x[dst]
    return bool(np.all(~clash | ((x[src] == x0[src]) & (x[dst] == x0[dst]))))


class GridSample:
    """run_chain_trace on a 316x316 grid at alpha=3, gamma*, from all zeros.

    The whole chain is mixing_bound(delta*, n, 0.25) = 663 rounds, 7-12 s on
    a 2-core machine, so a run would hold only two or three of them and their
    median would swing with the host. One repetition is the chain's first
    1/13 (51 rounds), which fills a run with dozens of repetitions; the whole
    chain runs once in the traced pass, where `localglauber sample` is checked
    against it.
    """

    name = "grid-sample"
    work_unit = "node-updates"
    base_seed = 1
    alpha = 3.0
    eps = 0.25
    rep_share = 13

    def __init__(self, size: str):
        self.side = 316 if size == "full" else 20

    def setup(self, seed: int) -> Instance:
        g = lg.generate("grid2d", rows=self.side, cols=self.side)
        opt = lg.optimize_gamma(self.alpha)
        full_rounds = lg.mixing_bound(opt.delta, g.node_count, self.eps)
        cfg = lg.ChainConfig(q=round(self.alpha * g.max_degree), gamma=opt.gamma, seed=self.base_seed + seed)
        return Instance(g=g, cfg=cfg, x0=lg.zeros_coloring(g), rounds=full_rounds // self.rep_share,
                        full_rounds=full_rounds)

    def run(self, inst: Instance, rounds: int | None = None) -> Outcome:
        rounds = inst.rounds if rounds is None else rounds
        x, trace = lg.run_chain_trace(inst.g, inst.cfg, inst.x0, rounds)
        return Outcome(work=inst.g.node_count * rounds, attempted=1,
                       failed=int(not no_conflict_created(inst.g, inst.x0, x)),
                       digest=_chain_digest(x, trace), output=x)

    def run_full(self, inst: Instance) -> Outcome:
        """The whole mixing-bound chain, as `localglauber sample` runs it; it ends proper."""
        out = self.run(inst, inst.full_rounds)
        proper = lg.is_proper(inst.g, out.output)
        return replace(out, attempted=out.attempted + 1, failed=out.failed + int(not proper))

    def cli_argv(self, inst: Instance, out_path: str) -> list[str]:
        """The `localglauber sample` command that computes the whole chain."""
        return ["sample", "--gen", "grid2d", "--gen-args", f"rows={self.side},cols={self.side}",
                "--alpha", "3", "--gamma", "auto", "--seed", str(inst.cfg.seed), "--out", out_path]


class SmallChain:
    """run_chain_trace on ER(200, 0.03) with q=D+2, gamma=0.5, from a greedy coloring."""

    name = "small-chain"
    work_unit = "node-updates"
    base_seed = 11

    def __init__(self, size: str):
        self.rounds = 5000 if size == "full" else 200

    def setup(self, seed: int) -> Instance:
        g = lg.generate("erdos_renyi", n=200, p=0.03, seed=202)
        q = g.max_degree + 2
        cfg = lg.ChainConfig(q=q, gamma=0.5, seed=self.base_seed + seed)
        return Instance(g=g, cfg=cfg, x0=lg.greedy_coloring(g, q), rounds=self.rounds)

    def run(self, inst: Instance) -> Outcome:
        x, trace = lg.run_chain_trace(inst.g, inst.cfg, inst.x0, inst.rounds)
        improper_rounds = sum(1 for s in trace if not s.proper)
        return Outcome(work=inst.g.node_count * inst.rounds, attempted=inst.rounds,
                       failed=improper_rounds, digest=_chain_digest(x, trace))


class CoupleLemmas:
    """contraction_experiment with lemma checks on ER(50, 0.08), q=2D+1, gamma=0.3."""

    name = "couple-lemmas"
    work_unit = "coupled-trials"
    base_seed = 6

    def __init__(self, size: str):
        self.trials = 2000 if size == "full" else 50

    def setup(self, seed: int) -> Instance:
        g = lg.generate("erdos_renyi", n=50, p=0.08, seed=4)
        cfg = lg.ChainConfig(q=2 * g.max_degree + 1, gamma=0.3, seed=self.base_seed + seed)
        return Instance(g=g, cfg=cfg)

    def run(self, inst: Instance) -> Outcome:
        est = lg.contraction_experiment(inst.g, inst.cfg, self.trials, check_lemmas=True)
        fields = [est.trials, float(est.mean).hex(), float(est.stderr).hex(), est.max_phi, est.lemma_failures]
        return Outcome(work=self.trials, attempted=self.trials, failed=est.lemma_failures,
                       digest=_sha256(json.dumps(fields).encode()))


class ExactC5:
    """The criterion-8 pipeline on the 5-cycle with q=5 and gamma*(2.5); ignores the seed."""

    name = "exact-c5"
    work_unit = "orbit-start TV rounds"
    q = 5
    alpha = 2.5

    def __init__(self, size: str, golden: dict | None = None):
        self.n = 5 if size == "full" else 4
        # Golden values exist only for the full-size instance.
        self.golden = golden if size == "full" else None

    def setup(self, seed: int) -> Instance:
        g = lg.generate("cycle", n=self.n)
        opt = lg.optimize_gamma(self.alpha)
        cfg = lg.ChainConfig(q=self.q, gamma=opt.gamma)
        return Instance(g=g, cfg=cfg, space=lg.StateSpace(g, self.q))

    def run(self, inst: Instance) -> Outcome:
        g, cfg, space = inst.g, inst.cfg, inst.space
        P = lg.build_transition_matrix(g, cfg)
        checks = [
            lg.check_row_stochastic(P),
            lg.check_detailed_balance(P, space),
            lg.check_uniform_stationary(P, space),
            lg.check_absorption(P, space),
            lg.check_irreducibility(P, space),
        ]
        starts = lg.symmetry_reduced_starts(space, lg.cycle_automorphisms(self.n))
        curve = lg.tv_curve(P, space, starts=starts, stop_tv=min(EPS_LIST), max_rounds=800)
        taus = [lg.exact_mixing_time(P, space, eps, curve=curve).rounds for eps in EPS_LIST]
        passed = [c.passed for c in checks] + [all(t is not None for t in taus)]
        if self.golden is not None:
            ref = np.asarray(self.golden["max_tv"])
            passed += [
                taus == self.golden["mixing_times"],
                len(starts) == self.golden["orbit_starts"],
                curve.max_tv.shape == ref.shape and bool(np.all(np.abs(curve.max_tv - ref) <= GOLDEN_TV_TOL)),
            ]
        tv_rounds = len(curve.max_tv) - 1
        digest = _sha256(json.dumps({
            "starts": starts.tolist(),
            "taus": taus,
            "max_tv": np.round(curve.max_tv, 9).tolist(),
        }).encode())
        return Outcome(work=len(starts) * tv_rounds, attempted=len(passed), failed=passed.count(False),
                       digest=digest)


WORKLOADS = {w.name: w for w in (GridSample, SmallChain, CoupleLemmas, ExactC5)}


def make(name: str, size: str, golden: dict | None):
    cls = WORKLOADS[name]
    if cls is ExactC5:
        return cls(size, golden.get("exact-c5") if golden else None)
    return cls(size)
