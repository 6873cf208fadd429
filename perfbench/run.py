"""liemod's benchmark: time to verdict on the table, grading and CLI workloads.

    python3 perfbench/run.py [--workload tables|gradings|cli|all]
                             [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere; it measures the liemod under ``src/`` of the checkout
that holds this file.  A run repeats its workload's fixed pass
``round(S / nominal pass length)`` times (at least once), each pass in
fresh interpreters, and prints every metric by name with its unit.  A
traced run ignores S: it makes one untraced and one traced pass.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the ``GATED`` end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The exit code is
0 when every verdict was right, 1 when one was wrong, and 2 or 3 when the
benchmark could not measure (no sources, a worker that crashed).

A record of each run, with its provenance, items and spans summary, is
written to ``perfbench/out/``.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from oracles import cli_failures
from tracer import layer_metrics
from workloads import CLI_COMMANDS, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_SAMPLES = 5       # set-up times per run, median reported
CHILD_TIMEOUT_S = 170   # no single process of a run may take longer
HASH_SEED = "0"

END_TO_END = [("setup_s", "s"), ("verdict_s", "s"), ("item_ms_p50", "ms"),
              ("item_ms_tail", "ms"), ("peak_rss_mb", "MB")]
# All of END_TO_END is printed and recorded; the JSON result carries the
# metrics steady enough to gate a change on.  On the shared 2-core machine
# the benchmark was built on, single item times moved 15-40% between runs
# (the median falls on a few short items, the tail on one item's time),
# beyond the largest bound a gate may use.
GATED = ("setup_s", "verdict_s", "peak_rss_mb")


class BenchError(RuntimeError):
    """The benchmark could not measure; no result is printed."""


# ---------------------------------------------------------------------------
# processes

def _env(seed):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = HASH_SEED
    env["MODALITY_SEED"] = str(seed)
    return env


def _spawn(argv, seed, stdout_path):
    """Run one child to its end; returns (start, wall_s, exit code, peak
    RSS in KiB).  ``start`` is on the system-wide monotonic clock, which the
    child reads too."""
    with open(stdout_path, "wb") as out:
        start = time.monotonic()
        proc = subprocess.Popen(argv, stdout=out, env=_env(seed), cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return start, wall, proc.returncode, usage.ru_maxrss


def _worker(mode, seed, *extra, workload=None):
    """Run worker.py in ``mode``; returns (its JSON, start, peak RSS)."""
    out = OUT / f"worker-{mode}-{os.getpid()}.json"
    argv = [sys.executable, str(BENCH / "worker.py"), mode,
            "--seed", str(seed), "--out", str(out)]
    if workload:
        argv += ["--workload", workload]
    argv += list(extra)
    out.unlink(missing_ok=True)
    start, _, code, rss = _spawn(argv, seed, OUT / "worker-stdout.txt")
    if code != 0 or not out.exists():
        raise BenchError(f"worker {mode} {workload or ''} exited {code}")
    with open(out, encoding="utf-8") as fh:
        data = json.load(fh)
    out.unlink()
    if ROOT not in Path(data["liemod_file"]).parents:
        raise BenchError(f"measured {data['liemod_file']}, not {ROOT}")
    return data, start, rss


class Pass:
    """One repetition of a workload's fixed list of items."""

    def __init__(self, verdict_s, items, rss_kb, setup_s=None, spans=None):
        self.verdict_s = verdict_s
        self.items = items          # [item id, ms, [failures]]
        self.rss_kb = rss_kb
        self.setup_s = setup_s
        self.spans = spans or []    # one span list per process


def inproc_pass(workload, seed, trace):
    extra = ["--trace"] if trace else []
    data, start, rss = _worker("pass", seed, *extra, workload=workload)
    return Pass(data["verdict_s"], data["items"], rss,
                setup_s=data["ready"] - start,
                spans=[data["spans"]] if trace else None)


def cli_pass(seed, trace):
    """The commands one after another, each in its own process; reports
    are checked once the last one is in."""
    runs = []
    t0 = time.monotonic()
    for k, (command, _) in enumerate(CLI_COMMANDS):
        report = OUT / f"cli-{k}.json"
        spans = OUT / f"cli-{k}-spans.json"
        if trace:
            spans.unlink(missing_ok=True)
            argv = [sys.executable, str(BENCH / "worker.py"), "cli",
                    "--out", str(spans), "--item", command, "--",
                    *command.split()]
        else:
            argv = [sys.executable, "-m", "liemod", *command.split()]
        _, wall, code, rss = _spawn(argv, seed, report)
        runs.append((wall, code, rss))
    verdict_s = time.monotonic() - t0

    items, span_lists = [], []
    for k, ((command, expect), (wall, code, _)) in enumerate(
            zip(CLI_COMMANDS, runs)):
        try:
            with open(OUT / f"cli-{k}.json", encoding="utf-8") as fh:
                report = json.load(fh)
        except ValueError:
            report = None
        items.append([command, wall * 1000,
                      cli_failures(report, code, expect)])
        if trace:
            try:
                with open(OUT / f"cli-{k}-spans.json", encoding="utf-8") as fh:
                    span_lists.append(json.load(fh)["spans"])
            except OSError as exc:
                raise BenchError(f"traced command {command!r} left no "
                                 f"spans") from exc
    return Pass(verdict_s, items, max(rss for _, _, rss in runs),
                spans=span_lists)


def run_pass(workload, seed, trace=False):
    if workload == "cli":
        return cli_pass(seed, trace)
    return inproc_pass(workload, seed, trace)


def setup_probe(workload, seed):
    data, start, _ = _worker("probe", seed, workload=workload)
    return data["ready"] - start, data


# ---------------------------------------------------------------------------
# metrics

def tail(values):
    """The highest percentile of ``values`` that still has at least ten
    values above it (the maximum, below eleven values): (value, number of
    values at or below it)."""
    ordered = sorted(values)
    k = max(len(ordered) - 11, 0) if len(ordered) > 10 else len(ordered) - 1
    return ordered[k], k + 1


def end_to_end(passes, setups):
    ms = [item[1] for p in passes for item in p.items]
    value, below = tail(ms)
    n = len(ms)
    metrics = {
        "setup_s": statistics.median(setups),
        "verdict_s": statistics.median(p.verdict_s for p in passes),
        "item_ms_p50": statistics.median(ms),
        "item_ms_tail": value,
        "peak_rss_mb": max(p.rss_kb for p in passes) / 1024,
    }
    notes = {"item_ms_tail": f"p{100 * below / n:.1f} of {n} items, "
                             f"{n - below} beyond"}
    return metrics, notes


def _unit(name):
    stat = name.rsplit(".", 1)[1]
    if stat.endswith("_s"):
        return "s"
    if stat in ("hit_ratio", "evals_per_call", "useful_ratio"):
        return "ratio"
    return "count"


# ---------------------------------------------------------------------------
# provenance

def _loadavg():
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            return fh.read().split()[:3]
    except OSError:
        return [f"{x:.2f}" for x in os.getloadavg()]


def _commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10,
                              check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def _source_digest():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "liemod").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def provenance(seed, workload, trace, info):
    return {"workload": workload, "seed": seed, "trace": trace,
            "commit": _commit(), "source_sha256": _source_digest(),
            "python": info["python"], "numpy": info["numpy"],
            "liemod_file": info["liemod_file"],
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(), "platform": platform.platform(),
            "hash_seed": HASH_SEED}


# ---------------------------------------------------------------------------
# one workload

def _summary(passes):
    attempted = sum(len(p.items) for p in passes)
    failed = sum(1 for p in passes for item in p.items if item[2])
    return attempted, failed


def _print_failures(passes):
    for p in passes:
        for item_id, _, failures in p.items:
            for failure in failures:
                print(f"  WRONG {item_id}: {failure.strip()}")


def run_workload(name, seed, seconds, trace):
    """Measure one workload; returns (metrics {name: (value, unit)},
    attempted, failed).  A traced run is one untraced pass, one traced pass
    and the coverage self-check, which counts as one more item."""
    load_before = _loadavg()
    probe, info = setup_probe(name, seed)
    passes = []
    if trace:
        passes.append(run_pass(name, seed))
        passes.append(run_pass(name, seed, trace=True))
        check, _, _ = _worker("selfcheck", seed)
    else:
        n = max(1, round(seconds / WORKLOADS[name].pass_s))
        passes = [run_pass(name, seed) for _ in range(n)]
    setups = [probe] + [p.setup_s for p in passes if p.setup_s is not None]
    while len(setups) < SETUP_SAMPLES and not trace:
        setups.append(setup_probe(name, seed)[0])
    attempted, failed = _summary(passes)

    print(f"{name}: {WORKLOADS[name].why}")
    print(f"  seed {seed}, {len(passes)} passes, {attempted} items, "
          f"{failed} wrong")
    _print_failures(passes)
    record = {"provenance": provenance(seed, name, trace, info),
              "loadavg_before": load_before,
              "passes": [{"verdict_s": p.verdict_s, "setup_s": p.setup_s,
                          "rss_kb": p.rss_kb, "items": p.items}
                         for p in passes],
              "setup_samples": setups}
    if trace:
        base, traced = passes
        layers = layer_metrics(traced.spans)
        self_sum = sum(v for k, v in layers.items() if k.endswith(".self_s"))
        layers["trace.overhead_s"] = traced.verdict_s - base.verdict_s
        layers["trace.unaccounted_s"] = traced.verdict_s - self_sum
        metrics = {k: (v, _unit(k)) for k, v in layers.items()}
        ok_cover = not check["mismatches"]
        print(f"  untraced verdict_s {base.verdict_s:.4f} s, traced "
              f"{traced.verdict_s:.4f} s, self times sum to "
              f"{self_sum:.4f} s")
        print(f"  coverage self-check: {'PASS' if ok_cover else 'FAIL'} "
              f"({len(check['reached'])} functions reached)"
              + "".join(f"\n  MISSED {k}: wrapper {w}, profiler {p}"
                        for k, (w, p) in check["mismatches"].items()))
        attempted += 1
        failed += not ok_cover
        record["coverage"] = check
        record["metrics"] = layers
    else:
        values, notes = end_to_end(passes, setups)
        for k, unit in END_TO_END:
            note = f"  ({notes[k]})" if k in notes else ""
            print(f"  {k:<13} {values[k]:12.4f} {unit}{note}")
        print(f"  {'failed_frac':<13} {failed / attempted:12.4f} "
              f"({failed}/{attempted})")
        metrics = {k: (values[k], unit) for k, unit in END_TO_END
                   if k in GATED}
        record["notes"] = notes
        record["metrics"] = values
    record["loadavg_after"] = _loadavg()
    with open(OUT / f"{name}-seed{seed}-trace{int(trace)}.json", "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(f"  provenance {json.dumps(record['provenance'])}")
    print(f"  loadavg {' '.join(load_before)} -> "
          f"{' '.join(record['loadavg_after'])}")
    return metrics, attempted, failed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--seconds", type=int, default=24)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "liemod" / "__init__.py").is_file():
        print(f"no liemod sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    metrics, attempted, failed = {}, 0, 0
    try:
        for name in names:
            m, a, f = run_workload(name, args.seed, args.seconds,
                                   bool(args.trace))
            prefix = f"{name}." if args.workload == "all" else ""
            metrics.update({prefix + k: v for k, v in m.items()})
            attempted += a
            failed += f
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 3
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
