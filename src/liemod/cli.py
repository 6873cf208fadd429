"""Command-line front end emitting machine-readable verification reports.

Every subcommand body yields its items, and ``run_command`` assembles the
same report shape from them: a command echo, the effective configuration
(the run settings the command reads, then its options, in declaration
order), a list of per-item results sorted by id, and an aggregate pass
flag.  An item's ``match`` is ``computed == expected`` when both are
given, else null, unless the item states it because its expected value is
a description.  A false match fails the run; a null one, as for pure
computations and items skipped for exceeding the build ceiling, never
does.  An item's ``time_ms`` counts the whole milliseconds since the
previous item, or since the command started, so a report's item times add
up to the command's time.  Exit code 0 means every verification passed, 1
that one failed, and 2 that the input was bad or the report could not be
written.  An item whose value rests on sampled genericity says how sure
it is in a ``sampling`` object: the field, the points drawn, the bound on
the chance of a miss and the quantity sampled; other items have
``"sampling": null``.

Reports are deterministic for a fixed seed apart from the timestamp and
the per-item timings.  An item's seed is null when its command takes no
--seed.  Where a command takes --seed, the environment variable
MODALITY_SEED, when set, overrides it and must be a nonnegative integer.
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
          dims=None, note="", sampling=None):
    # run_command fills in the seed and the time
    if match is None and computed is not None and expected is not None:
        match = computed == expected
    return {"id": item_id, "computed": computed, "expected": expected,
            "match": match, "orbit_dim": orbit_dim, "dims": dims,
            "seed": None, "time_ms": None, "note": note,
            "sampling": sampling}


def _sampling(report):
    """How sure an item is: the field the ``OrbitDimReport``'s points came
    from, how many were drawn, and the chance that it fell short."""
    return {"field": modality.FIELD, "trials": report.trials_used,
            "miss_bound": report.miss_bound, "quantity": _CODIMENSION}


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


def _parse_ints(flag, text):
    """The comma-separated integers given to option ``flag``."""
    try:
        return tuple(int(t) for t in text.split(","))
    except ValueError:
        raise ValueError(f"{flag}: expected comma-separated integers, "
                         f"got {text!r}") from None


# ---------------------------------------------------------------------------
# subcommand bodies; each yields its items

def _cmd_tables_verify(args):
    for entry in modality.table_entries(args.list,
                                        rank_cutoff=args.rank_cutoff):
        res = modality.verify_table_entry(
            entry, trials=args.trials, seed=args.seed,
            ceiling=args.build_ceiling)
        if res.skipped:
            yield _item(entry.entry_id, expected=entry.expected_modality,
                        note=f"skipped: {res.reason}")
        else:
            yield _item(
                entry.entry_id, computed=res.computed,
                expected=entry.expected_modality, orbit_dim=res.orbit_dim,
                dims={"module": res.dim_v},
                sampling=_sampling(res.sampling))


def _cmd_rep_modality(args):
    rstype = RootSystemType.parse(args.type)
    spec = IrrepSpec(rstype, _parse_ints("--weight", args.weight))
    entry = modality.lookup_expected_modality(rstype, spec.highest_weight)
    expected = None if entry is None else entry.expected_modality
    try:
        action = modality.action_from_module(spec, ceiling=args.build_ceiling)
    except BuildCeilingExceeded as exc:
        yield _item(f"rep:{spec.name}", expected=expected,
                    note=f"skipped: {exc}")
        return
    report = modality.generic_orbit_dim(
        action, trials=args.trials, seed=args.seed)
    yield _item(
        f"rep:{spec.name}", computed=report.codimension, expected=expected,
        orbit_dim=report.generic_orbit_dim,
        dims={"module": action.space_dim, "algebra": action.algebra_dim},
        note="" if expected is not None else
        "weight not in the shipped tables; computed value only",
        sampling=_sampling(report))


def _cmd_sl2_modality(args):
    summands = _parse_ints("--summands", args.summands)
    closed = modality.sl2_modality(summands)
    action = modality.sl2_action(summands, ceiling=args.build_ceiling)
    report = modality.generic_orbit_dim(
        action, trials=args.trials, seed=args.seed)
    yield _item(
        f"sl2:{args.summands}", computed=closed, expected=report.codimension,
        orbit_dim=report.generic_orbit_dim,
        dims={"module": action.space_dim},
        note="closed form checked against explicit matrices",
        sampling=_sampling(report))


def _cmd_cells_count(args):
    from . import cells
    rstype = RootSystemType.parse(args.type)
    rs = build_root_system(rstype)
    fset = cells.root_functionals(rs)
    expected = _bell(rstype.rank + 1) if rstype.family == "A" else None
    yield _item(
        f"cells:{rstype.name}", computed=len(cells.enumerate_cells(fset)),
        expected=expected,
        dims={"ambient": rstype.rank,
              "functionals": len(fset.functionals)},
        note="" if expected is not None else
        "no closed-form count outside type A; computed value only")


def _cmd_grading_rank(args):
    from . import graded
    rstype = RootSystemType.parse(args.type)
    try:
        m = None if args.m == "inf" else int(args.m)
    except ValueError:
        raise ValueError("--m: expected an integer or 'inf', "
                         f"got {args.m!r}") from None
    if m is not None and m < 1:
        raise ValueError("--m: expected a positive integer or 'inf', "
                         f"got {args.m!r}")
    spec = graded.GradingSpec(rstype, m, _parse_ints("--labels", args.labels))
    ga = graded.build_grading(spec, ceiling=args.build_ceiling)
    report = modality.generic_orbit_dim(
        ga.g0_on_g1, trials=args.trials, seed=args.seed)
    rank = report.codimension
    cartan_dim = len(graded.cartan_subspace(ga, seed=args.seed))
    yield _item(
        f"grading:{spec.name}",
        computed={"rank": rank, "cartan_subspace_dim": cartan_dim},
        expected={"rank": rank, "cartan_subspace_dim": rank},
        dims={"algebra": ga.dim,
              "degree_one": len(ga.g1_indices)},
        note="rank from generic orbits; dimension from an explicit "
             "commuting semisimple family",
        sampling=_sampling(report))


def _cmd_packets_enum(args):
    from . import packets
    n = args.sln
    descriptors = packets.enumerate_packets_adjoint_typeA(n)
    yield _item(f"packet-count:{n}", computed=len(descriptors),
                expected=packets.count_packets(n))
    for p in descriptors:
        closure, mod = packets.packet_dims(p)
        yield _item(
            f"packet:{n}:{p.jordan_type.name}",
            computed={"closure_dim": closure, "modality": mod},
            expected={"closure_dim": p.closure_dim, "modality": p.modality},
            orbit_dim=p.orbit_dim, dims={"eigenvalue_groups":
                                         p.jordan_type.num_blocks})


def _cmd_packets_check(args):
    from . import packets
    n = args.sln
    rep = packets.packet_sanity_suite(n, samples=args.samples, seed=args.seed)
    for name, computed, expected, note in [
            ("coverage", rep.coverage_ok, True,
             f"{rep.samples} random traceless samples classified"),
            ("max-modality", rep.max_modality, n - 1,
             "aggregated over the packet cover of the algebra"),
            ("identity", rep.identity_ok, True,
             "same packet iff same centralizer dim and same "
             "eigenvalue-coincidence pattern"),
            ("regular-center", rep.regular_center_ok, True,
             "center of a nilpotent centralizer stays in the orbit "
             "closure dimension bound, with equality attained")]:
        yield _item(f"packets-check:{n}:{name}", computed=computed,
                    expected=expected, note=note)
    for check in rep.sheet_checks:
        yield _item(
            f"packets-check:{n}:sheet:{check.sheet[0]}-{check.sheet[1]}",
            computed=check.matched_packet,
            expected="unique packet with these dimensions",
            match=check.point_orbit_dims_constant
            and check.matched_packet != "<unmatched>")


def _cmd_exmo(args):
    rep = modality.sum_of_copies_check(
        args.n, args.d, trials=args.trials, seed=args.seed,
        ceiling=args.build_ceiling)
    yield _item("exmo:regular-sheet", computed=rep.regular_sheet_modality,
                expected=0, orbit_dim=rep.sampling.generic_orbit_dim,
                dims={"module": rep.space_dim},
                note=f"open orbit found: {rep.open_orbit_found}",
                sampling=_sampling(rep.sampling))
    yield _item("exmo:family-bound", computed=rep.family_lower_bound,
                expected=args.d - 1, orbit_dim=rep.family_orbit_dim,
                dims={"family": rep.family_dim},
                note="exact: proportional tuples form a family of orbits "
                     "of dimension n, as SL_n is transitive on nonzero "
                     "vectors")
    yield _item("exmo:modality-regular", computed=rep.modality_regular,
                note="false means the family bound exceeds the "
                     "regular-sheet modality",
                sampling=_sampling(rep.sampling))


_REQUIRED = {"required": True}
_REQUIRED_INT = {"type": int, "required": True}

# the run settings a command may take: default, least value allowed, and
# the error for a value below it, checked in this order
_SETTINGS = {
    "seed": (DEFAULT_SEED, 0, "seed must be nonnegative"),
    "trials": (DEFAULT_TRIALS, 1, "trials must be positive"),
    "rank_cutoff": (DEFAULT_RANK_CUTOFF, 1, "cutoffs must be positive"),
    "build_ceiling": (DEFAULT_BUILD_CEILING, 1, "cutoffs must be positive"),
}
_SAMPLED = ("seed", "trials", "build_ceiling")

# command, body, help of its group, the run settings its body reads,
# options (echoed into the report's config after the settings, in this
# order), and a template of a config note
_COMMANDS = [
    ("tables verify", _cmd_tables_verify, "classification table checks",
     tuple(_SETTINGS),
     {"--list": {"choices": ["m1", "m2", "m3", "all"], "default": "all"}},
     "classical families expanded up to rank {rank_cutoff}; higher ranks "
     "not checked"),
    ("rep modality", _cmd_rep_modality, "single module computations",
     _SAMPLED, {"--type": _REQUIRED, "--weight": _REQUIRED}, None),
    ("sl2 modality", _cmd_sl2_modality, "rank-one module checks", _SAMPLED,
     {"--summands": _REQUIRED}, None),
    ("cells count", _cmd_cells_count, "hyperplane arrangement cells", (),
     {"--type": _REQUIRED}, None),
    ("grading rank", _cmd_grading_rank, "graded algebra rank", _SAMPLED,
     {"--type": _REQUIRED,
      "--m": {"required": True,
              "help": "modulus, or 'inf' for an integer grading"},
      "--labels": _REQUIRED}, None),
    ("packets enum", _cmd_packets_enum,
     "adjoint packets of traceless matrices", (), {"--sln": _REQUIRED_INT},
     None),
    ("packets check", _cmd_packets_check, None, ("seed",),
     {"--sln": _REQUIRED_INT, "--samples": {"type": int, "default": 200}},
     None),
    ("exmo", _cmd_exmo, "copies-of-the-natural-module modality anatomy",
     _SAMPLED, {"--n": _REQUIRED_INT, "--d": _REQUIRED_INT}, None),
]


# ---------------------------------------------------------------------------
# plumbing

def _build_parser():
    parser = argparse.ArgumentParser(
        prog="liemod",
        description="exact-arithmetic modality and grading verification")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=["json", "csv"], default="json")
    common.add_argument("--output", default=None,
                        help="write the report to this path instead of stdout")

    sub = parser.add_subparsers(dest="group", required=True)
    groups = {}
    for command, func, text, settings, options, note in _COMMANDS:
        group, _, action = command.partition(" ")
        if action and group not in groups:
            groups[group] = sub.add_parser(group, help=text) \
                .add_subparsers(dest="action", required=True)
        cmd = (groups[group].add_parser(action, parents=[common]) if action
               else sub.add_parser(group, parents=[common], help=text))
        for name in settings:
            cmd.add_argument("--" + name.replace("_", "-"), type=int,
                             default=_SETTINGS[name][0])
        echoed = [*settings, *(cmd.add_argument(flag, **kwargs).dest
                               for flag, kwargs in options.items())]
        cmd.set_defaults(func=func, command=command, echoed=echoed,
                         config_note=note)
    return parser


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
    """Parse argv, run the subcommand, time and stamp each item it yields,
    emit the report.  Returns exit code."""
    args = _build_parser().parse_args(argv)
    env_seed = os.environ.get("MODALITY_SEED")
    if env_seed is not None and hasattr(args, "seed"):
        if not env_seed.strip().isdecimal():
            raise ValueError("MODALITY_SEED must be a nonnegative integer, "
                             f"got {env_seed!r}")
        args.seed = int(env_seed)
    for name, (_, least, message) in _SETTINGS.items():
        if getattr(args, name, least) < least:
            raise ValueError(message)
    if args.output:
        _check_output_path(args.output)

    items = []
    start = time.monotonic()
    for item in args.func(args):
        now = time.monotonic()
        item["seed"] = getattr(args, "seed", None)
        item["time_ms"] = int((now - start) * 1000)
        items.append(item)
        start = now
    items.sort(key=lambda it: it["id"])
    passed = all(it["match"] is not False for it in items)
    config = {key: getattr(args, key) for key in args.echoed}
    if args.config_note:
        config["note"] = args.config_note.format(**vars(args))
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
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
