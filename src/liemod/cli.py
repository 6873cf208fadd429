"""Command-line front end emitting machine-readable verification reports.

Every subcommand assembles the same report shape: a command echo, the
effective configuration, a list of per-item results sorted by id, and an
aggregate pass flag.  An item with an expected value either matches or
fails; items without an expected value (pure computations) never fail the
run; items skipped for exceeding the build ceiling are marked but do not
fail the run either.  Exit code 0 means every verification passed, 1
that one failed, and 2 that the input was bad or the report could not be
written.  An item whose value rests on sampled genericity says how sure
it is in a ``sampling`` object: the field, the points drawn, the bound on
the chance of a miss and the quantity sampled; other items have
``"sampling": null``.

Reports are deterministic for a fixed seed apart from the timestamp and
the per-item timings.  The environment variable MODALITY_SEED, when set,
overrides --seed.
"""

import argparse
import csv
import datetime
import errno
import io
import json
import os
import sys
import time

from . import modality
from .hwmod import BuildCeilingExceeded, IrrepSpec
from .modality import (DEFAULT_BUILD_CEILING, DEFAULT_RANK_CUTOFF,
                       DEFAULT_SEED, DEFAULT_TRIALS)
from .rootsys import RootSystemType, build_root_system

__all__ = ["main", "run_command"]

_CSV_COLUMNS = ["id", "computed", "expected", "match", "orbit_dim", "dims",
                "seed", "time_ms", "note"]


_CODIMENSION = ("generic-orbit codimension, which equals the modality for "
                "visible actions")


def _item(item_id, computed=None, expected=None, match=None, orbit_dim=None,
          dims=None, time_ms=None, note="", sampling=None):
    # run_command fills in the seed
    return {"id": item_id, "computed": computed, "expected": expected,
            "match": match, "orbit_dim": orbit_dim, "dims": dims,
            "seed": None, "time_ms": time_ms, "note": note,
            "sampling": sampling}


def _sampling(reports, quantity=_CODIMENSION):
    """How sure an item is: the field its points came from, how many were
    drawn, and the chance that any of the ``OrbitDimReport``s it rests on
    fell short (their union bound)."""
    return {"field": reports[0].field,
            "trials": sum(r.trials_used for r in reports),
            "miss_bound": sum(r.miss_bound for r in reports),
            "quantity": quantity}


def _bell(n):
    # cell counts of the rank n-1 arrangement of type A are set-partition
    # counts; Bell triangle recurrence, answer at the end of row n
    row = [1]
    for _ in range(n - 1):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[-1]


def _parse_ints(text):
    text = text.strip()
    if not text:
        raise ValueError("expected comma-separated integers")
    return tuple(int(t) for t in text.split(","))


def _now_ms(t0):
    return int((time.monotonic() - t0) * 1000)


# ---------------------------------------------------------------------------
# subcommand bodies; each returns (extra_config, items)

def _cmd_tables_verify(args):
    entries = modality.table_entries(args.list, rank_cutoff=args.rank_cutoff)
    items = []
    for entry in entries:
        t0 = time.monotonic()
        res = modality.verify_table_entry(
            entry, trials=args.trials, seed=args.seed,
            ceiling=args.build_ceiling)
        if res.skipped:
            items.append(_item(
                entry.entry_id, expected=entry.expected_modality,
                time_ms=_now_ms(t0), note=f"skipped: {res.reason}"))
        else:
            items.append(_item(
                entry.entry_id, computed=res.computed,
                expected=entry.expected_modality, match=res.matches,
                orbit_dim=res.orbit_dim, dims={"module": res.dim_v},
                time_ms=_now_ms(t0), sampling=_sampling([res.sampling])))
    note = (f"classical families expanded up to rank {args.rank_cutoff}; "
            f"higher ranks not checked")
    return {"list": args.list, "note": note}, items


def _cmd_rep_modality(args):
    rstype = RootSystemType.parse(args.type)
    spec = IrrepSpec(rstype, _parse_ints(args.weight))
    t0 = time.monotonic()
    entry = modality.lookup_expected_modality(rstype, spec.highest_weight)
    expected = None if entry is None else entry.expected_modality
    try:
        action = modality.action_from_module(spec, ceiling=args.build_ceiling)
    except BuildCeilingExceeded as exc:
        return {"type": args.type, "weight": args.weight}, [_item(
            f"rep:{spec.name}", expected=expected, time_ms=_now_ms(t0),
            note=f"skipped: {exc}")]
    report = modality.generic_orbit_dim(
        action, trials=args.trials, seed=args.seed)
    return {"type": args.type, "weight": args.weight}, [_item(
        f"rep:{spec.name}", computed=report.codimension, expected=expected,
        match=None if expected is None else report.codimension == expected,
        orbit_dim=report.generic_orbit_dim,
        dims={"module": action.space_dim, "algebra": action.algebra_dim},
        time_ms=_now_ms(t0), note="" if expected is not None else
        "weight not in the shipped tables; computed value only",
        sampling=_sampling([report]))]


def _cmd_sl2_modality(args):
    summands = _parse_ints(args.summands)
    t0 = time.monotonic()
    closed = modality.sl2_modality(summands)
    action = modality.sl2_action(summands, ceiling=args.build_ceiling)
    report = modality.generic_orbit_dim(
        action, trials=args.trials, seed=args.seed)
    return {"summands": args.summands}, [_item(
        f"sl2:{args.summands}", computed=closed, expected=report.codimension,
        match=closed == report.codimension,
        orbit_dim=report.generic_orbit_dim,
        dims={"module": action.space_dim}, time_ms=_now_ms(t0),
        note="closed form checked against explicit matrices",
        sampling=_sampling([report]))]


def _cmd_cells_count(args):
    from . import cells
    rstype = RootSystemType.parse(args.type)
    t0 = time.monotonic()
    rs = build_root_system(rstype)
    fset = cells.root_functionals(rs)
    count = len(cells.enumerate_cells(fset))
    expected = _bell(rstype.rank + 1) if rstype.family == "A" else None
    return {"type": args.type}, [_item(
        f"cells:{rstype.name}", computed=count, expected=expected,
        match=None if expected is None else count == expected,
        dims={"ambient": rstype.rank,
              "functionals": len(fset.functionals)},
        time_ms=_now_ms(t0), note="" if expected is not None else
        "no closed-form count outside type A; computed value only")]


def _cmd_grading_rank(args):
    from . import graded
    rstype = RootSystemType.parse(args.type)
    m = None if args.m == "inf" else int(args.m)
    spec = graded.GradingSpec(rstype, m, _parse_ints(args.labels))
    t0 = time.monotonic()
    ga = graded.build_grading(spec)
    report = modality.generic_orbit_dim(
        ga.g0_on_g1, trials=args.trials, seed=args.seed)
    rank = report.codimension
    cartan_dim = len(graded.cartan_subspace(ga, seed=args.seed))
    return {"type": args.type, "m": args.m, "labels": args.labels}, [_item(
        f"grading:{spec.name}",
        computed={"rank": rank, "cartan_subspace_dim": cartan_dim},
        expected={"rank": rank, "cartan_subspace_dim": rank},
        match=cartan_dim == rank,
        dims={"algebra": ga.dim,
              "degree_one": len(ga.g1_indices)},
        time_ms=_now_ms(t0),
        note="rank from generic orbits; dimension from an explicit "
             "commuting semisimple family",
        sampling=_sampling([report]))]


def _cmd_packets_enum(args):
    from . import packets
    n = args.sln
    t0 = time.monotonic()
    descriptors = packets.enumerate_packets_adjoint_typeA(n)
    items = [_item(
        f"packet-count:{n}", computed=len(descriptors),
        expected=packets.count_packets(n),
        match=len(descriptors) == packets.count_packets(n),
        time_ms=_now_ms(t0))]
    for p in descriptors:
        t1 = time.monotonic()
        closure, mod = packets.packet_dims(p)
        items.append(_item(
            f"packet:{n}:{p.jordan_type.name}",
            computed={"closure_dim": closure, "modality": mod},
            expected={"closure_dim": p.closure_dim, "modality": p.modality},
            match=(closure, mod) == (p.closure_dim, p.modality),
            orbit_dim=p.orbit_dim, dims={"eigenvalue_groups":
                                         p.jordan_type.num_blocks},
            time_ms=_now_ms(t1)))
    return {"sln": n}, items


def _cmd_packets_check(args):
    from . import packets
    n = args.sln
    t0 = time.monotonic()
    rep = packets.packet_sanity_suite(n, samples=args.samples, seed=args.seed)
    elapsed = _now_ms(t0)
    items = [
        _item(f"packets-check:{n}:coverage", computed=rep.coverage_ok,
              expected=True, match=rep.coverage_ok, time_ms=elapsed,
              note=f"{rep.samples} random traceless samples classified"),
        _item(f"packets-check:{n}:max-modality", computed=rep.max_modality,
              expected=n - 1, match=rep.aggregator_ok, time_ms=elapsed,
              note="aggregated over the packet cover of the algebra"),
        _item(f"packets-check:{n}:identity", computed=rep.identity_ok,
              expected=True, match=rep.identity_ok, time_ms=elapsed,
              note="same packet iff same centralizer dim and same "
                   "eigenvalue-coincidence pattern"),
        _item(f"packets-check:{n}:regular-center", computed=rep.regular_center_ok,
              expected=True, match=rep.regular_center_ok, time_ms=elapsed,
              note="center of a nilpotent centralizer stays in the orbit "
                   "closure dimension bound, with equality attained"),
    ]
    for check in rep.sheet_checks:
        items.append(_item(
            f"packets-check:{n}:sheet:{check.sheet[0]}-{check.sheet[1]}",
            computed=check.matched_packet,
            expected="unique packet with these dimensions",
            match=check.point_orbit_dims_constant
            and check.matched_packet != "<unmatched>", time_ms=elapsed))
    return {"sln": n, "samples": args.samples}, items


_FAMILY = "generic orbit dimension on the family (v, c_1 v, ...)"


def _cmd_exmo(args):
    t0 = time.monotonic()
    rep = modality.sum_of_copies_check(
        args.n, args.d, trials=args.trials, seed=args.seed,
        ceiling=args.build_ceiling)
    elapsed = _now_ms(t0)
    items = [
        _item("exmo:regular-sheet", computed=rep.regular_sheet_modality,
              expected=0, match=rep.regular_sheet_modality == 0,
              orbit_dim=rep.sampling.generic_orbit_dim,
              dims={"module": rep.space_dim}, time_ms=elapsed,
              note=f"open orbit found: {rep.open_orbit_found}",
              sampling=_sampling([rep.sampling])),
        _item("exmo:family-bound", computed=rep.family_lower_bound,
              expected=args.d - 1, match=rep.family_lower_bound == args.d - 1,
              orbit_dim=rep.family_orbit_dim,
              dims={"family": rep.family_dim}, time_ms=elapsed,
              note="proportional tuples form a positive-dimensional "
                   "family of equal-dimension orbits",
              sampling=_sampling([rep.family_sampling], _FAMILY)),
        _item("exmo:modality-regular", computed=rep.modality_regular,
              time_ms=elapsed,
              note="false means the family bound exceeds the regular-sheet "
                   "modality",
              sampling=_sampling([rep.sampling, rep.family_sampling],
                                 f"{_CODIMENSION}; {_FAMILY}")),
    ]
    return {"n": args.n, "d": args.d}, items


_REQUIRED = {"required": True}
_REQUIRED_INT = {"type": int, "required": True}

# command, help of its group, options
_COMMANDS = [
    ("tables verify", _cmd_tables_verify, "classification table checks",
     {"--list": {"choices": ["m1", "m2", "m3", "all"], "default": "all"}}),
    ("rep modality", _cmd_rep_modality, "single module computations",
     {"--type": _REQUIRED, "--weight": _REQUIRED}),
    ("sl2 modality", _cmd_sl2_modality, "rank-one module checks",
     {"--summands": _REQUIRED}),
    ("cells count", _cmd_cells_count, "hyperplane arrangement cells",
     {"--type": _REQUIRED}),
    ("grading rank", _cmd_grading_rank, "graded algebra rank",
     {"--type": _REQUIRED,
      "--m": {"required": True,
              "help": "modulus, or 'inf' for an integer grading"},
      "--labels": _REQUIRED}),
    ("packets enum", _cmd_packets_enum,
     "adjoint packets of traceless matrices", {"--sln": _REQUIRED_INT}),
    ("packets check", _cmd_packets_check, None,
     {"--sln": _REQUIRED_INT, "--samples": {"type": int, "default": 200}}),
    ("exmo", _cmd_exmo, "copies-of-the-natural-module modality anatomy",
     {"--n": _REQUIRED_INT, "--d": _REQUIRED_INT}),
]


# ---------------------------------------------------------------------------
# plumbing

def _build_parser():
    parser = argparse.ArgumentParser(
        prog="liemod",
        description="exact-arithmetic modality and grading verification")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=DEFAULT_SEED)
    common.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    common.add_argument("--rank-cutoff", type=int,
                        default=DEFAULT_RANK_CUTOFF, dest="rank_cutoff")
    common.add_argument("--build-ceiling", type=int,
                        default=DEFAULT_BUILD_CEILING, dest="build_ceiling")
    common.add_argument("--format", choices=["json", "csv"], default="json")
    common.add_argument("--output", default=None,
                        help="write the report to this path instead of stdout")

    sub = parser.add_subparsers(dest="group", required=True)
    groups = {}
    for command, func, text, options in _COMMANDS:
        group, _, action = command.partition(" ")
        if not action:
            cmd = sub.add_parser(group, parents=[common], help=text)
        else:
            if group not in groups:
                groups[group] = sub.add_parser(group, help=text) \
                    .add_subparsers(dest="action", required=True)
            cmd = groups[group].add_parser(action, parents=[common])
        for flag, kwargs in options.items():
            cmd.add_argument(flag, **kwargs)
        cmd.set_defaults(func=func, command=command)
    return parser


def _validate_config(args):
    if args.seed < 0:
        raise ValueError("seed must be nonnegative")
    if args.trials < 1:
        raise ValueError("trials must be positive")
    if args.rank_cutoff < 1 or args.build_ceiling < 1:
        raise ValueError("cutoffs must be positive")


def _csv_cell(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (dict, list, tuple)):
        return json.dumps(value, sort_keys=True)
    return value


def _render_csv(report):
    buf = io.StringIO()
    writer = csv.writer(buf, quoting=csv.QUOTE_NONNUMERIC)
    writer.writerow(_CSV_COLUMNS)
    for item in report["items"]:
        writer.writerow([_csv_cell(item[c]) for c in _CSV_COLUMNS])
    return buf.getvalue()


def _check_output_path(path):
    """Raise the OSError that opening ``path`` for writing would raise when
    its directory is missing or unwritable, before any work is done."""
    directory = os.path.dirname(path) or "."
    if not os.path.isdir(directory):
        code = errno.ENOTDIR if os.path.exists(directory) else errno.ENOENT
    elif os.path.isdir(path):
        code = errno.EISDIR
    elif not os.access(path if os.path.exists(path) else directory, os.W_OK):
        code = errno.EACCES
    else:
        return
    raise OSError(code, os.strerror(code), path)


def run_command(argv=None):
    """Parse argv, run the subcommand, emit the report.  Returns exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    env_seed = os.environ.get("MODALITY_SEED")
    if env_seed is not None:
        args.seed = int(env_seed)
    _validate_config(args)
    if args.output:
        _check_output_path(args.output)

    extra, items = args.func(args)
    items.sort(key=lambda it: it["id"])
    for item in items:
        item["seed"] = args.seed
    passed = all(it["match"] is not False for it in items)
    config = {"seed": args.seed, "trials": args.trials,
              "rank_cutoff": args.rank_cutoff,
              "build_ceiling": args.build_ceiling}
    config.update(extra)
    report = {
        "command": args.command,
        "config": config,
        "items": items,
        "passed": passed,
        "timestamp": datetime.datetime.now(
            datetime.timezone.utc).isoformat(),
    }
    if args.format == "json":
        text = json.dumps(report, indent=2, default=str) + "\n"
    else:
        text = _render_csv(report)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.output}; passed={passed}")
    else:
        sys.stdout.write(text)
    return 0 if passed else 1


def main(argv=None):
    try:
        return run_command(argv)
    except (ValueError, BuildCeilingExceeded, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
