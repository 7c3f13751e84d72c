"""Command-line harness: reproducible experiment runs with CSV/JSON output.

Subcommands:
    sample    run the chain and write the final coloring (JSON) plus an
              optional per-round trace (CSV)
    exact     build the exact transition matrix of a tiny instance and run
              detailed-balance / stationarity / absorption / irreducibility
              checks, TV curves, and exact mixing times
    couple    run the coupled-step contraction experiment with lemma checks
    analyze   sweep the closed-form bounds over alpha and emit CSV tables

Exit codes: 0 success / all checks pass, 1 usage error, 2 infeasible
parameters, 3 resource cap exceeded, 4 a mandatory exact check failed.
`sample` refuses more than 2^32 node-rounds (nodes x rounds) and `couple`
more than 2^27 node-trials (nodes x trials), with exit 3, before any work.

Each flag has one default, declared with it in the parser (see --help).
A config file (--config, "key = value" lines, each key a long flag of the
subcommand) replaces those defaults, and explicit flags override it; every
file value is checked as its flag's would be, even one a flag overrides.
Every run is a pure function of (config, seed): reruns produce
byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import analysis, coupling, dynamics, exact
from ._stream import stream
from .errors import (
    InfeasibleError,
    ParameterError,
    ParseError,
    ResourceLimitError,
    ValidationError,
)
from .graph import GENERATOR_FAMILIES, Graph, generate, parse_edge_list

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_RESOURCE = 3
EXIT_CHECK_FAILED = 4

# Work budgets, checked before a run starts. On a 2-core machine a round
# updates ~4-9 million nodes/s, so 2^32 node-rounds take 8-16 minutes; a
# coupled trial costs 0.1-3.3 us per node (a 10^5-node grid to C8), so 2^27
# node-trials take 0.2-8 minutes.
_NODE_ROUND_BUDGET = 2 ** 32
_NODE_TRIAL_BUDGET = 2 ** 27


def main(argv=None) -> int:
    parser, commands = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse uses 2 for usage errors; remap to the documented code.
        return EXIT_OK if e.code in (0, None) else EXIT_USAGE
    if args.command is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        if args.config:
            # Config values become the defaults, so flags still override them.
            commands[args.command].set_defaults(**_read_config(args.config, commands[args.command]))
            args = parser.parse_args(argv)
        return args.func(args)
    except (ParameterError, ParseError, ValidationError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as e:  # a --config, --graph or output path that cannot be opened
        print(f"error: {e.filename}: {e.strerror}" if e.filename else f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except InfeasibleError as e:
        print(f"infeasible: {e}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except ResourceLimitError as e:
        print(f"resource cap: {e}", file=sys.stderr)
        return EXIT_RESOURCE


def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The top-level parser and the subcommand parsers by name."""
    parser = argparse.ArgumentParser(prog="localglauber", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command")

    def add_common(p, instance=True, fmt="json"):
        p.add_argument("--config", help="config file with 'key = value' lines; flags override")
        if instance:
            src = p.add_argument_group("instance")
            src.add_argument("--graph", help="edge-list file ('u v' per line)")
            src.add_argument("--gen", choices=GENERATOR_FAMILIES, help="generator family")
            src.add_argument("--gen-args", help="generator parameters, e.g. n=8 or n=50,p=0.08")
            src.add_argument("--q", type=int, help="number of colors")
            src.add_argument("--alpha", type=float, help="colors as alpha * max_degree (exclusive with --q)")
            src.add_argument("--seed", type=int, default=dynamics.DEFAULT_SEED, help="RNG seed (default %(default)s)")
        p.add_argument("--gamma", default="auto",
                       help="marking probability in (0,1), or 'auto' for the optimizer (default %(default)s)")
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"), default=fmt,
                       help="format of the primary output (default %(default)s)")

    p = sub.add_parser("sample", help="run the chain and emit the final coloring")
    add_common(p)
    p.add_argument("--rounds", type=int, help="rounds to run (default: mixing bound when delta > 0)")
    p.add_argument("--eps", default="0.25", help="accuracy target for the default round count (default %(default)s)")
    p.add_argument("--init", choices=("zeros", "random", "greedy"), default="zeros",
                   help="initial coloring (default %(default)s)")
    p.add_argument("--trace", help="optional per-round summary CSV path")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("exact", help="exact checks, TV curve, and mixing times on a tiny instance")
    add_common(p)
    p.add_argument("--eps", default="0.25", help="mixing-time eps, comma separated for a sweep (default %(default)s)")
    p.add_argument("--max-rounds", type=int, default=2000, help="cap on TV-curve length (default %(default)s)")
    p.add_argument("--tv-out", help="optional TV curve CSV path")
    p.set_defaults(func=cmd_exact)

    p = sub.add_parser("couple", help="contraction experiment over coupled steps")
    add_common(p)
    p.add_argument("--trials", type=int, default=10_000, help="number of coupled trials (default %(default)s)")
    p.add_argument("--pair-sampler", choices=coupling.PAIR_SAMPLERS, default="uniform_random",
                   help="adjacent-pair sampler (default %(default)s)")
    p.set_defaults(func=cmd_couple)

    p = sub.add_parser("analyze", help="bound sweep and gamma* table")
    add_common(p, instance=False, fmt="csv")
    p.add_argument("--alphas", default="2,2.1,2.5,3,4", help="comma-separated alpha grid (default %(default)s)")
    p.add_argument("--delta-max", type=int, default=2,
                   help="reference max degree for the bounds (default %(default)s)")
    p.add_argument("--mix-n", type=int, default=100,
                   help="node count for the mixing-bound column (default %(default)s)")
    p.add_argument("--eps", default="0.01", help="eps for the mixing-bound column (default %(default)s)")
    p.add_argument("--table-out", help="optional gamma* table CSV path")
    p.set_defaults(func=cmd_analyze)

    return parser, sub.choices


def _read_config(path: str, parser: argparse.ArgumentParser) -> dict:
    """The values of a config file's 'key = value' lines, by the dest of their flag.

    A key names a flag of `parser` other than --help and --config, and each
    value is converted and checked as that flag's would be, so a value the
    flag would refuse is a usage error here too.
    """
    actions = {action.dest: action for action in parser._actions
               if action.option_strings and action.dest not in ("help", "config")}
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError:
        raise ParameterError(f"{path}: not UTF-8 text") from None
    values = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParameterError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        action = actions.get(key.replace("-", "_"))
        if action is None:
            raise ParameterError(f"{path}:{lineno}: unknown key {key!r}")
        if action.dest in values:
            raise ParameterError(f"{path}:{lineno}: key {key!r} set twice")
        values[action.dest] = _convert(action, key, value)
    return values


def _convert(action: argparse.Action, key: str, value: str):
    if action.type is not None:
        try:
            value = action.type(value)
        except ValueError:
            kind = "an integer" if action.type is int else "a number"
            raise ParameterError(f"{key} must be {kind}, got {value}") from None
    if action.choices is not None and value not in action.choices:
        raise ParameterError(f"{key} must be one of {', '.join(action.choices)}, got {value}")
    return value


def _number(raw, what: str) -> float:
    """float(raw) for a numeric option; anything else is a usage error."""
    try:
        value = float(raw)
    except (TypeError, ValueError):
        raise ParameterError(f"{what} must be a number, got {raw!r}") from None
    if not math.isfinite(value):
        raise ParameterError(f"{what} must be finite, got {raw!r}")
    return value


def _build_graph(args) -> Graph:
    if args.graph and args.gen:
        raise ParameterError("--graph and --gen are mutually exclusive")
    if args.graph:
        with open(args.graph, "rb") as fh:
            return parse_edge_list(fh.read())
    if args.gen:
        params = {}
        if args.gen_args:
            for item in str(args.gen_args).split(","):
                if "=" not in item:
                    raise ParameterError(f"bad --gen-args item {item!r}, expected K=V")
                k, v = (part.strip() for part in item.split("=", 1))
                if k in ("family", "seed"):
                    raise ParameterError(f"--gen-args cannot set {k!r}; use --gen and --seed")
                if k in params:
                    raise ParameterError(f"--gen-args sets {k!r} twice")
                params[k] = v
        return generate(args.gen, seed=args.seed, **params)
    raise ParameterError("an instance is required: pass --graph FILE or --gen FAMILY")


def _resolve_q(args, g: Graph) -> int:
    if args.q is not None and args.alpha is not None:
        raise ParameterError("--q and --alpha are mutually exclusive")
    if args.q is not None:
        return args.q
    if args.alpha is not None:
        if g.max_degree == 0:
            raise ParameterError("--alpha needs a graph with at least one edge")
        q = _number(args.alpha, "alpha") * g.max_degree
        if abs(q - round(q)) > 1e-6:
            raise ParameterError(f"alpha * max_degree = {q} is not an integer")
        return int(round(q))
    raise ParameterError("pass --q INT or --alpha FLOAT")


def _instance(args) -> tuple[Graph, dynamics.ChainConfig]:
    """The graph and chain config of a run; gamma 'auto' is the optimizer's, which must contract."""
    g = _build_graph(args)
    q = _resolve_q(args, g)
    if args.gamma == "auto":
        if g.max_degree == 0:
            raise ParameterError("gamma=auto needs a graph with at least one edge")
        alpha = q / g.max_degree
        opt = analysis.optimize_gamma(alpha)
        if not opt.feasible:
            raise InfeasibleError(f"no contractive gamma for alpha={alpha} (best delta={opt.delta:.3e})")
        gamma = opt.gamma
    else:
        gamma = _number(args.gamma, "gamma")
    return g, dynamics.ChainConfig(q=q, gamma=gamma, seed=args.seed)


def _contraction_margin(g: Graph, q: int, gamma: float):
    """delta_wrapup(q/D, gamma), or None where the graph has no edge or (q/D, gamma) is outside its domain."""
    if g.max_degree == 0:
        return None
    try:
        return analysis.delta_wrapup(q / g.max_degree, gamma)
    except ParameterError:
        return None


def _check_budget(g: Graph, count: int, what: str, budget: int) -> None:
    work = g.node_count * count
    if work > budget:
        raise ResourceLimitError(
            f"{g.node_count:,} nodes x {count:,} {what} = {work:,} node-{what}, "
            f"over the budget of {budget:,}"
        )


def _fmt(x) -> str:
    """Floats at 12 significant digits; everything else via str."""
    if isinstance(x, (bool, np.bool_)):
        return str(bool(x)).lower()
    if isinstance(x, (float, np.floating)):
        return f"{x:.12g}"
    return str(x)


def _round12(obj):
    """Recursively round floats to 12 significant digits for JSON output."""
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (float, np.floating)):
        return float(f"{obj:.12g}")
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    return obj


def _write(*outputs) -> None:
    """Write each (text, path) output of a run, to stdout where the path is None.

    Every path is opened before any is written: when one cannot be opened,
    the files this call created are removed and the others left untouched.
    """
    files = []  # (file, its path where this call created it)
    try:
        try:
            for _, path in outputs:
                if path:
                    new = not os.path.exists(path)
                    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)  # not O_TRUNC, see below
                    files.append((open(fd, "w", encoding="utf-8", newline="\n"), path if new else None))
        except OSError:
            for fh, created in files:
                fh.close()
                if created:
                    os.remove(created)
            raise
        handles = iter(files)
        for text, path in outputs:
            fh = next(handles)[0] if path else sys.stdout
            if path and os.path.isfile(path):  # emptied only now that every path is open
                fh.truncate()
            fh.write(text)
    finally:
        for fh, _ in files:
            fh.close()


def _json(obj) -> str:
    return json.dumps(_round12(obj), indent=2) + "\n"


def _csv(header, rows) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(cell) for cell in row) for row in rows)
    return "\n".join(lines) + "\n"


def _parse_eps_list(raw):
    values = [_number(tok, "eps") for tok in raw.split(",") if tok.strip()]
    if not values or any(not 0.0 < e for e in values):
        raise ParameterError(f"bad eps list {raw!r}")
    return values


# ----------------------------------------------------------------- sample

def cmd_sample(args) -> int:
    g, cfg = _instance(args)
    eps = _number(args.eps, "eps")

    if args.rounds is not None:
        rounds = args.rounds
    else:
        delta = _contraction_margin(g, cfg.q, cfg.gamma)
        if delta is None or delta <= 0.0:
            raise ParameterError("no positive contraction margin at this gamma; pass --rounds explicitly")
        rounds = analysis.mixing_bound(delta, g.node_count, eps)
    _check_budget(g, rounds, "rounds", _NODE_ROUND_BUDGET)

    if args.init == "zeros":
        x0 = dynamics.zeros_coloring(g)
    elif args.init == "random":
        x0 = dynamics.random_coloring(g, cfg.q, stream(cfg.seed, 2**32))
    else:
        x0 = dynamics.greedy_coloring(g, cfg.q)

    if args.trace:
        final, trace = dynamics.run_chain_trace(g, cfg, x0, rounds)
        outputs = [(_csv(
            ("round", "marked", "accepted", "conflicts", "proper"),
            [(s.round_index, s.marked, s.accepted, s.conflicts, s.proper) for s in trace],
        ), args.trace)]
    else:
        final, outputs = dynamics.run_chain(g, cfg, x0, rounds), []
    if args.format == "csv":
        text = _csv(("node", "color"), list(enumerate(final.tolist())))
    else:
        text = _json(
            {
                "nodes": g.node_count,
                "edges": g.edge_count,
                "max_degree": g.max_degree,
                "q": cfg.q,
                "gamma": cfg.gamma,
                "seed": cfg.seed,
                "rounds": rounds,
                "init": args.init,
                "proper": dynamics.is_proper(g, final),
                "colors": final.tolist(),
            }
        )
    _write(*outputs, (text, args.out))
    return EXIT_OK


# ------------------------------------------------------------------ exact

def cmd_exact(args) -> int:
    g, cfg = _instance(args)
    eps_list = _parse_eps_list(args.eps)

    result = exact.analyze_chain(g, cfg, eps_list, args.max_rounds)
    space, curve = result.space, result.curve
    *checks, irreducible = result.checks
    mixing = {_fmt(eps): rounds if rounds is not None else f"exceeded max_rounds={args.max_rounds}"
              for eps, rounds in zip(eps_list, result.rounds)}

    outputs = []
    if args.tv_out:  # the default start 0 is always the first orbit start
        rows = zip(curve.rounds.tolist(), curve.max_tv.tolist(), curve.per_start[0].tolist())
        outputs.append((_csv(("t", "max_tv", "tv_from_default_start"), rows), args.tv_out))

    if args.format == "csv":
        rows = [(c.name, c.passed, c.max_error) for c in result.checks]
        rows.extend((f"mixing_rounds[eps={k}]", "", v) for k, v in mixing.items())
        text = _csv(("check", "passed", "value"), rows)
    else:
        report = {
            "nodes": g.node_count,
            "q": cfg.q,
            "gamma": cfg.gamma,
            "states": space.size,
            "proper_colorings": space.proper_count,
            "checks": {c.name: {"passed": c.passed, "max_error": c.max_error} for c in checks},
            "irreducible_on_proper": {"passed": irreducible.passed, "detail": irreducible.detail},
            "mixing_rounds": mixing,
        }
        text = _json(report)
    _write(*outputs, (text, args.out))
    return EXIT_OK if all(c.passed for c in checks) else EXIT_CHECK_FAILED


# ----------------------------------------------------------------- couple

def cmd_couple(args) -> int:
    g, cfg = _instance(args)
    _check_budget(g, args.trials, "trials", _NODE_TRIAL_BUDGET)

    est = coupling.contraction_experiment(g, cfg, args.trials, pair_sampler=args.pair_sampler, check_lemmas=True)
    report = {
        "nodes": g.node_count,
        "q": cfg.q,
        "gamma": cfg.gamma,
        "seed": cfg.seed,
        "pair_sampler": args.pair_sampler,
        "trials": est.trials,
        "lemma_violations": est.lemma_failures,
    }
    if args.trials > 0:
        report.update(
            {
                "mean_phi": est.mean,
                "stderr": est.stderr,
                "max_phi": est.max_phi,
            }
        )
        delta = _contraction_margin(g, cfg.q, cfg.gamma)
        if delta is not None:
            report["delta_theory"] = delta
            report["bound_mean_phi"] = 1.0 - delta
            report["within_bound"] = bool(est.mean <= 1.0 - delta + 3.0 * est.stderr)
    if args.format == "csv":
        text = _csv(tuple(report.keys()), [tuple(report.values())])
    else:
        text = _json(report)
    _write((text, args.out))
    return EXIT_OK


# ---------------------------------------------------------------- analyze

def cmd_analyze(args) -> int:
    alphas = [_number(tok, "alpha") for tok in args.alphas.split(",") if tok.strip()]
    eps = _number(args.eps, "eps")

    rows = []
    table = []
    for alpha in alphas:
        if args.gamma != "auto":
            gamma = _number(args.gamma, "gamma")
            delta = analysis.delta_wrapup(alpha, gamma)
            feasible = delta > 0.0
        else:
            opt = analysis.optimize_gamma(alpha)
            gamma, delta, feasible = opt.gamma, opt.delta, opt.feasible
        # The closed forms are continuous in q, so the sweep may use the
        # real-valued q = alpha * degree even when it is not a color count.
        q = alpha * args.delta_max
        pb = analysis.path_bound(args.delta_max, q, gamma)
        vb = analysis.v0_bound(args.delta_max, q, gamma)
        mix = analysis.mixing_bound(delta, args.mix_n, eps) if feasible else "infeasible"
        rows.append((alpha, gamma, pb, vb, vb + pb, delta, mix))
        table.append((alpha, gamma, delta, feasible))

    header = ("alpha", "gamma", "path_bound", "v0_bound", "combined", "delta", "mixing_bound_rounds")
    if args.format == "json":
        outputs = [(_json([dict(zip(header, row)) for row in rows]), args.out)]
    else:
        outputs = [(_csv(header, rows), args.out)]
    if args.table_out:
        outputs.append((_csv(("alpha", "gamma_star", "delta_star", "feasible"), table), args.table_out))
    _write(*outputs)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
