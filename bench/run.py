#!/usr/bin/env python3
"""localglauber benchmark: one workload per process, checked outputs, JSON result.

Usage, from the root of a checkout:

    python3 bench/run.py --workload grid-sample --seed 0 --seconds 20 --trace 0

With --trace 0 it reports the end-to-end metrics BENCHMARK.json declares
(setup_s, wall_s, work_per_s, peak_rss_mib); with --trace 1 it wraps the
library's layers with the span tracer and reports the per-layer metrics.
The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}; the lines before it are for
people (environment, code size, checks, output digest). The program is
imported from the checkout's own src/ directory; without it the benchmark
exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
PACKAGE = "localglauber"
# BLAS threads are pinned so that exact-c5 measures the code, not the
# scheduler: tv_curve on C5 takes 1.0 s with two threads and 1.4-1.9 s
# with one on a 2-core machine.
BLAS_THREADS = 2
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# setup_s is the median of at least this many set-ups, and of as many more
# as keep set-up at this share of the run: a millisecond set-up then precedes
# every repetition, the 0.4 s grid build every few.
SETUP_MIN_REPS = 5
SETUP_SHARE = 0.15


class MissingProgram(Exception):
    pass


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0,
                   help="offset added to the workload's base chain seed; 0 is the golden instance")
    p.add_argument("--seconds", type=float, default=20.0, help="length of the measured loop")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny shrinks every instance for the self-test; golden checks need full")
    p.add_argument("--out-dir", default=str(ROOT / ".bench_out"), help="where span files are written")
    return p.parse_args(argv)


def pin_blas_threads() -> None:
    """Pin BLAS threads; has an effect only before numpy is first imported."""
    threads = min(BLAS_THREADS, len(os.sched_getaffinity(0)))
    for var in BLAS_ENV:
        os.environ[var] = str(threads)


def load_program():
    """Import localglauber from this checkout's src/, never from elsewhere."""
    init = SRC / PACKAGE / "__init__.py"
    if not init.is_file():
        raise MissingProgram(f"{init} not found: run from the root of a localglauber checkout")
    for path in (str(BENCH_DIR), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import localglauber

    if Path(localglauber.__file__).resolve() != init.resolve():
        raise MissingProgram(f"imported {localglauber.__file__}, expected {init}")
    return localglauber


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "blas_threads": os.environ.get(BLAS_ENV[0], "unpinned"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
    }


def package_size(lg) -> dict:
    lines = sum(len(f.read_text(encoding="utf-8").splitlines()) for f in (SRC / PACKAGE).glob("*.py"))
    return {"package.src_lines": lines, "package.exported_names": len(lg.__all__)}


class Checks:
    """Tally of correctness checks, and the digest every repetition must reproduce."""

    def __init__(self, expected_digest: str | None):
        self.expected = expected_digest
        self.first = None
        self.attempted = 0
        self.failed = 0

    def add(self, outcome) -> None:
        self.attempted += outcome.attempted + 1
        self.failed += outcome.failed
        if self.first is None:
            self.first = outcome.digest
        reference = self.expected if self.expected is not None else self.first
        self.failed += int(outcome.digest != reference)

    def expect(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += int(not ok)


def timed_run(wl, inst):
    gc.collect()
    start = time.perf_counter()
    outcome = wl.run(inst)
    return time.perf_counter() - start, outcome


def end_to_end(wl, args, checks: Checks) -> dict:
    # Set-up and repetitions share the --seconds budget. Set-ups are spread
    # over the run as repetitions are, so that both see the same machine: a
    # repetition runs on a freshly built instance whenever set-ups have so
    # far taken less than SETUP_SHARE of the run, and otherwise on the last
    # one. The first repetition is an untimed (but checked) warm-up.
    start = time.perf_counter()
    deadline = start + args.seconds
    gc.collect()
    setups, walls, work = [], [], 0.0
    inst = None
    while not walls or time.perf_counter() + statistics.median(walls) <= deadline:
        now = time.perf_counter()
        if len(setups) < SETUP_MIN_REPS or sum(setups) < SETUP_SHARE * (now - start):
            inst = None  # free the previous instance, so peak memory holds one
            inst = wl.setup(args.seed)
            setups.append(time.perf_counter() - now)
            if len(setups) == 1:
                checks.add(timed_run(wl, inst)[1])
        wall, outcome = timed_run(wl, inst)
        walls.append(wall)
        work = outcome.work
        checks.add(outcome)
        outcome = None
    wall_s = statistics.median(walls)
    print(f"# {len(setups)} set-ups, {len(walls)} repetitions of {work:g} {wl.work_unit}; "
          f"repetition seconds {' '.join(f'{w:.4g}' for w in walls)}")
    return {
        "setup_s": statistics.median(setups),
        "wall_s": wall_s,
        "work_per_s": work / wall_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def cli_pass(wl, inst, modules, checks: Checks, out_dir: Path, expected_digest: str | None) -> float:
    """Run `localglauber sample` once on the instance; return the CLI's own seconds.

    The whole chain is first run through the library, untraced, and the
    CLI's coloring must equal it. The CLI's own time is its spans' self
    time, i.e. its run minus the wrapped library calls.
    """
    from tracing import Tracer

    full = wl.run_full(inst)
    checks.expect(full.failed == 0)
    if expected_digest is not None:
        checks.expect(full.digest == expected_digest)
    print(f"# whole chain of {inst.full_rounds} rounds: output_sha256 {full.digest}")
    out_path = out_dir / f"{wl.name}.cli.json"
    tracer = Tracer(PACKAGE, modules, {})
    with tracer, tracer.span("bench.cli"):
        status = modules["cli"].main(wl.cli_argv(inst, str(out_path)))
    checks.expect(status == 0)
    with open(out_path, encoding="utf-8") as fh:
        checks.expect(json.load(fh)["colors"] == full.output.tolist())
    tracer.write(out_dir / f"{wl.name}.cli.spans.csv")
    summary = tracer.summary({"bench.cli": 1})
    return sum(e["self_s"] for name, e in summary.items() if name.startswith("cli."))


def per_layer(wl, args, checks: Checks, cli_digest: str | None) -> dict:
    import importlib

    import layers
    from tracing import Tracer, tail_percentile

    deadline = time.perf_counter() + args.seconds
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    modules = {name: importlib.import_module(f"{PACKAGE}.{name}") for name in layers.LAYER_MODULES}
    tracer = Tracer(PACKAGE, modules, layers.HOOKS)
    with tracer, tracer.span("bench.setup"):
        inst = wl.setup(args.seed)
    cli_self_s = cli_pass(wl, inst, modules, checks, out_dir, cli_digest) if hasattr(wl, "cli_argv") else 0.0

    # Untraced and traced repetitions alternate, so both see the same machine.
    plain, traced = [], []
    while not traced or time.perf_counter() + statistics.median(plain) + statistics.median(traced) <= deadline:
        wall, outcome = timed_run(wl, inst)
        plain.append(wall)
        checks.add(outcome)
        with tracer, tracer.span("bench.rep"):
            wall, outcome = timed_run(wl, inst)
        traced.append(wall)
        checks.add(outcome)

    summary = tracer.summary({"bench.setup": 1, "bench.rep": len(traced)})
    metrics = layers.layer_metrics(tracer, summary, len(traced), inst)
    for name in layers.PER_CALL:
        durations = summary.get(name, {}).get("durations_ns", [])
        print(f"# {name}: us.ptail is p{tail_percentile(durations)[0]:.4g} of {len(durations)} calls")
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain) - 1.0
    metrics["cli.self_s"] = cli_self_s
    tracer.write(out_dir / f"{wl.name}.spans.csv")
    print(f"# {len(plain)} untraced and {len(traced)} traced repetitions; spans in {out_dir}")
    return metrics


def declared_metrics(trace: int) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        lg = load_program()
    except MissingProgram as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 1
    golden = json.loads((BENCH_DIR / "golden.json").read_text(encoding="utf-8"))
    wl = workloads.make(args.workload, args.size, golden)
    full_golden = args.size == "full" and (args.seed == 0 or args.workload == "exact-c5")
    checks = Checks(golden["output_sha256"][args.workload] if full_golden else None)
    cli_digest = golden["whole_chain_sha256"].get(args.workload) if full_golden else None

    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} size={args.size}")
    print("env " + json.dumps(environment()))
    size = package_size(lg)
    print("package " + json.dumps(size))
    if args.trace:
        values = per_layer(wl, args, checks, cli_digest)
        values.update(size)
    else:
        values = end_to_end(wl, args, checks)

    units = declared_metrics(args.trace)
    if set(values) != set(units):
        raise RuntimeError(f"computed metrics differ from BENCHMARK.json: "
                           f"missing {sorted(set(units) - set(values))}, extra {sorted(set(values) - set(units))}")
    metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()}
    for name, m in metrics.items():
        print(f"{args.workload:14s} {name:48s} {m['value']:.6g} {m['unit']}")
    if checks.expected is None:
        verdict = "not compared with golden"
    else:
        verdict = "matches golden" if checks.first == checks.expected else "DIFFERS from golden"
    print(f"output_sha256 {checks.first} ({verdict})")
    print(f"{args.workload:14s} {'fail_ratio':48s} {checks.failed / checks.attempted:.6g} 1 "
          f"({checks.failed} of {checks.attempted} checks failed)")
    print(json.dumps({"correct": checks.failed == 0, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    pin_blas_threads()
    sys.exit(main())
