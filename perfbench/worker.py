"""One benchmark process: a pass of an in-process workload, a set-up probe,
one traced CLI command, or the tracer's coverage self-check.

``run.py`` starts it with ``PYTHONPATH`` pointing at the checkout's ``src``,
as it starts ``python -m liemod``; it writes what it measured as JSON to
``--out``.  Usage:

    worker.py pass      --workload tables|gradings --seed N --out F [--trace]
    worker.py probe     --workload tables|gradings|cli --out F
    worker.py cli       --out F --item ID -- <liemod arguments>
    worker.py selfcheck --seed N --out F
"""

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import workloads
from tracer import Tracer, coverage_check
from workloads import Item

ROOT = Path(__file__).resolve().parent.parent


class SetupError(RuntimeError):
    """The environment would make the measurement meaningless."""


def _load_liemod():
    """Import what the workload's first item needs and check where it came
    from; returns the facts the run records."""
    import numpy
    import liemod
    import liemod.cli  # noqa: F401  (every command imports the whole package)
    where = Path(liemod.__file__).resolve()
    if ROOT not in where.parents:
        raise SetupError(f"liemod imported from {where}, not from {ROOT}")
    return {"liemod_file": str(where), "numpy": numpy.__version__,
            "python": sys.version.split()[0]}


def _assert_cold():
    """The lru caches must start empty, or the pass measures warm work."""
    from liemod import graded, rootsys
    for fn in (rootsys.build_root_system, graded.structure_constants):
        info = getattr(fn, "cache_info", None)
        if info is not None and info().currsize != 0:
            raise SetupError(f"{fn.__name__} cache is not empty at the "
                             f"first item: {info()}")


def _prepare(workload):
    """Set-up of an in-process pass: imports and inputs, caches still cold."""
    info = _load_liemod()
    inputs = (workloads.tables_inputs() if workload == "tables"
              else workloads.gradings_inputs())
    _assert_cold()
    return info, inputs


def run_pass(args):
    info, inputs = _prepare(args.workload)
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
        tracer.recording = True
    ready = time.monotonic()

    def timed(item_id, fn):
        item = Item(item_id)
        if tracer:
            tracer.run_id = item_id
        t0 = time.perf_counter()
        try:
            item.output = fn()
        except Exception:  # an item that raises is a failed verdict
            item.failures.append(traceback.format_exc(limit=3))
        item.ms = (time.perf_counter() - t0) * 1000
        return item

    t0 = time.perf_counter()
    if args.workload == "tables":
        items = workloads.tables_run(inputs, args.seed, timed)
    else:
        items, cases = workloads.gradings_run(inputs, args.seed, timed)
    verdict_s = time.perf_counter() - t0
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer:
        tracer.recording = False
    if args.workload == "tables":
        workloads.tables_check(inputs, items)
    else:
        workloads.gradings_check(cases)
    return dict(info, ready=ready, verdict_s=verdict_s, rss_kb=rss_kb,
                items=[[it.id, it.ms, it.failures] for it in items],
                spans=tracer.spans if tracer else None)


def run_probe(args):
    if args.workload == "cli":
        info = _load_liemod()
    else:
        info, _ = _prepare(args.workload)
    return dict(info, ready=time.monotonic())


def run_cli(args):
    """One CLI command with every liemod layer traced; the report goes to
    stdout exactly as ``python -m liemod`` would write it."""
    _load_liemod()
    from liemod import cli
    tracer = Tracer()
    tracer.install()
    tracer.run_id = args.item
    tracer.recording = True
    code = cli.main(args.argv)
    tracer.recording = False
    return {"returncode": code, "spans": tracer.spans}


def _short_case(seed):
    """A few seconds of work that reaches every traced function."""
    from fractions import Fraction
    from liemod import cli, graded, modality
    from liemod.rootsys import RootSystemType
    entry = modality.table_entries("m3")[0]
    modality.verify_table_entry(entry, seed=seed)
    ga = graded.build_grading(
        graded.GradingSpec(RootSystemType("A", 2), 1, (1, 1)))
    graded.rank_of_grading(ga, seed=seed)
    graded.cartan_subspace(ga, seed=seed)
    nilpotent = [Fraction(0)] * ga.dim
    nilpotent[2] = Fraction(1)   # a raising vector: needs Newton steps
    graded.decompose_graded_element(ga, nilpotent)
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in (["cells", "count", "--type", "A2"],
                     ["packets", "check", "--sln", "2", "--samples", "10"]):
            if cli.run_command(argv) != 0:
                raise SetupError(f"self-check command {argv} failed")


def run_selfcheck(args):
    info = _load_liemod()
    tracer = Tracer()
    tracer.install()
    mismatches = coverage_check(tracer, lambda: _short_case(args.seed))
    reached = sorted({rec[1] for rec in tracer.spans})
    return dict(info, mismatches=mismatches, reached=reached)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=["pass", "probe", "cli", "selfcheck"])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--item", default="")
    own = sys.argv[1:]
    cut = own.index("--") if "--" in own else len(own)
    args = parser.parse_args(own[:cut])
    args.argv = own[cut + 1:]
    run = {"pass": run_pass, "probe": run_probe, "cli": run_cli,
           "selfcheck": run_selfcheck}[args.mode]
    try:
        result = run(args)
    except SetupError as exc:
        print(f"benchmark set-up error: {exc}", file=sys.stderr)
        return 3
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return result.get("returncode", 0)


if __name__ == "__main__":
    sys.exit(main())
