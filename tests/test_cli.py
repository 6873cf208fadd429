import argparse
import ast
import csv
import hashlib
import inspect
import io
import json
import os
import re
import subprocess
import sys
import time

import pytest

from liemod import cli, modality


def run_json(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def strip_volatile(report):
    r = dict(report)
    r.pop("timestamp")
    r["items"] = [{k: v for k, v in item.items() if k != "time_ms"}
                  for item in r["items"]]
    return r


def test_sl2_example(capsys):
    code, report = run_json(capsys, ["sl2", "modality", "--summands", "0,0,0"])
    assert code == 0
    assert report["command"] == "sl2 modality"
    assert report["items"][0]["computed"] == 3
    assert report["items"][0]["match"] is True
    assert report["passed"] is True


def test_cells_count_example(capsys):
    code, report = run_json(capsys, ["cells", "count", "--type", "A3"])
    assert code == 0
    assert report["items"][0]["computed"] == 15
    assert report["items"][0]["expected"] == 15


def test_cells_count_non_a_has_no_expected(capsys):
    code, report = run_json(capsys, ["cells", "count", "--type", "B2"])
    assert code == 0
    # rank 2: generic cell, one per root line, and the origin
    item = report["items"][0]
    assert item["computed"] == 6
    assert item["expected"] is None and item["match"] is None


def test_tables_verify_m3(capsys):
    code, report = run_json(capsys, ["tables", "verify", "--list", "m3"])
    assert code == 0
    assert len(report["items"]) == 8
    assert all(it["match"] is True for it in report["items"])
    assert all(it["computed"] == 2 for it in report["items"])
    assert "rank 8" in report["config"]["note"]
    ids = [it["id"] for it in report["items"]]
    assert ids == sorted(ids)


def test_rep_modality_lookup(capsys):
    code, report = run_json(
        capsys, ["rep", "modality", "--type", "G2", "--weight", "0,1"])
    assert code == 0
    item = report["items"][0]
    assert item["computed"] == 2 and item["expected"] == 2


def test_rep_modality_unknown_weight_passes(capsys):
    code, report = run_json(
        capsys, ["rep", "modality", "--type", "A1", "--weight", "7"])
    assert code == 0
    item = report["items"][0]
    assert item["expected"] is None and item["match"] is None
    assert "not in the shipped tables" in item["note"]


def test_rep_modality_zero_weight(capsys):
    # the trivial line: not faithful, every basis element acts by zero
    code, report = run_json(
        capsys, ["rep", "modality", "--type", "A2", "--weight", "0,0"])
    assert code == 0
    item = report["items"][0]
    assert (item["computed"], item["orbit_dim"]) == (1, 0)
    assert item["dims"] == {"module": 1, "algebra": 8}
    assert item["expected"] is None and item["match"] is None


def test_rep_modality_ceiling_skip(capsys):
    code, report = run_json(
        capsys, ["rep", "modality", "--type", "A3", "--weight", "2,2,2",
                 "--build-ceiling", "10"])
    assert code == 0  # skipped, not failed
    assert report["items"][0]["computed"] is None
    assert report["items"][0]["note"].startswith("skipped")


def test_grading_rank(capsys):
    code, report = run_json(
        capsys, ["grading", "rank", "--type", "A1", "--m", "2",
                 "--labels", "1"])
    assert code == 0
    item = report["items"][0]
    assert item["computed"] == {"rank": 1, "cartan_subspace_dim": 1}
    assert item["match"] is True


def test_grading_rank_e7_adjoint(capsys):
    # m = 1: the Cartan subalgebra is the commuting semisimple family
    code, report = run_json(
        capsys, ["grading", "rank", "--type", "E7", "--m", "1",
                 "--labels", "0,0,0,0,0,0,0"])
    assert code == 0
    item = report["items"][0]
    assert item["computed"] == {"rank": 7, "cartan_subspace_dim": 7}
    assert item["match"] is True


def test_grading_rank_integer_grading(capsys):
    code, report = run_json(
        capsys, ["grading", "rank", "--type", "A2", "--m", "inf",
                 "--labels", "1,0"])
    assert code == 0
    assert report["items"][0]["computed"]["rank"] == 0


def test_packets_enum(capsys):
    code, report = run_json(capsys, ["packets", "enum", "--sln", "3"])
    assert code == 0
    count_items = [it for it in report["items"]
                   if it["id"] == "packet-count:3"]
    assert count_items[0]["computed"] == 6
    assert len(report["items"]) == 7
    assert all(it["match"] is True for it in report["items"])


def test_packets_check(capsys):
    code, report = run_json(
        capsys, ["packets", "check", "--sln", "2", "--samples", "40"])
    assert code == 0
    assert report["passed"] is True
    ids = {it["id"] for it in report["items"]}
    assert "packets-check:2:coverage" in ids
    assert "packets-check:2:max-modality" in ids


def test_exmo(capsys):
    code, report = run_json(capsys, ["exmo", "--n", "3", "--d", "2"])
    assert code == 0
    by_id = {it["id"]: it for it in report["items"]}
    assert by_id["exmo:regular-sheet"]["computed"] == 0
    assert by_id["exmo:family-bound"]["computed"] == 1
    assert by_id["exmo:modality-regular"]["computed"] is False


def test_exmo_regular_sheet_orbit_dim_is_sampled(capsys, monkeypatch):
    # the item states the orbit dimension the sample found, so a sample
    # that fell short of an open orbit does not claim one
    check = modality.sum_of_copies_check

    def short_sample(*args, **kwargs):
        rep = check(*args, **kwargs)
        return rep._replace(sampling=rep.sampling._replace(
            generic_orbit_dim=rep.space_dim - 1,
            codimension=1))

    monkeypatch.setattr(modality, "sum_of_copies_check", short_sample)
    _, report = run_json(capsys, ["exmo", "--n", "3", "--d", "2"])
    by_id = {it["id"]: it for it in report["items"]}
    assert by_id["exmo:regular-sheet"]["orbit_dim"] == 6 - 1


def test_determinism_same_seed(capsys):
    argv = ["tables", "verify", "--list", "m3", "--seed", "5"]
    _, first = run_json(capsys, argv)
    _, second = run_json(capsys, argv)
    assert strip_volatile(first) == strip_volatile(second)


def test_env_seed_overrides_flag(capsys, monkeypatch):
    monkeypatch.setenv("MODALITY_SEED", "77")
    _, report = run_json(
        capsys, ["sl2", "modality", "--summands", "2", "--seed", "5"])
    assert report["config"]["seed"] == 77
    assert report["items"][0]["seed"] == 77


def test_csv_output(capsys):
    code = cli.main(["cells", "count", "--type", "A2", "--format", "csv"])
    assert code == 0
    out = capsys.readouterr().out
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["id", "computed", "expected", "match", "orbit_dim",
                       "dims", "seed", "time_ms", "note"]
    assert rows[1][0] == "cells:A2"
    assert rows[1][1] == "5"
    assert rows[1][3] == "true"
    # strings are quoted in the raw text
    assert '"cells:A2"' in out


def test_output_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code = cli.main(["sl2", "modality", "--summands", "1,1",
                     "--output", str(path)])
    assert code == 0
    report = json.loads(path.read_text())
    assert report["passed"] is True
    assert "wrote" in capsys.readouterr().out


def test_exit_code_reflects_failure(capsys, monkeypatch):
    class Fake:
        expected_modality = 7
    monkeypatch.setattr(modality, "lookup_expected_modality",
                        lambda *a, **k: Fake())
    code, report = run_json(
        capsys, ["rep", "modality", "--type", "A2", "--weight", "1,1"])
    assert code == 1
    assert report["passed"] is False
    assert report["items"][0]["match"] is False


def test_bad_flags():
    with pytest.raises(SystemExit):
        cli.run_command(["tables", "verify", "--list", "m9"])
    assert cli.main(["sl2", "modality", "--summands", "1", "--trials", "0"]) == 2
    assert cli.main(["grading", "rank", "--type", "A1", "--m", "x",
                     "--labels", "1"]) == 2


@pytest.mark.parametrize("argv,message", [
    ("rep modality --type A2 --weight 1,,0",
     "--weight: expected comma-separated integers, got '1,,0'"),
    ("grading rank --type A2 --m 2 --labels 1,0,",
     "--labels: expected comma-separated integers, got '1,0,'"),
    ("sl2 modality --summands 1,x",
     "--summands: expected comma-separated integers, got '1,x'"),
    ("grading rank --type A1 --m x --labels 1",
     "--m: expected an integer or 'inf', got 'x'"),
    # run settings that parse but are out of range
    ("tables verify --list m1 --seed -1", "seed must be nonnegative"),
    ("tables verify --list m1 --rank-cutoff 0", "cutoffs must be positive"),
    ("tables verify --list m1 --build-ceiling 0",
     "cutoffs must be positive"),
], ids=["weight", "labels", "summands", "m", "seed", "rank-cutoff",
        "build-ceiling"])
def test_unparsable_option_names_the_option(argv, message, capsys,
                                             monkeypatch):
    monkeypatch.delenv("MODALITY_SEED", raising=False)
    # the settings are checked before any table entry is read
    monkeypatch.setattr(modality, "table_entries", _refuse_to_run)
    assert cli.main(argv.split()) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("argv", [
    "cells count --type A2 --seed 1",
    "packets enum --sln 3 --trials 2",
    "grading rank --type A2 --m inf --labels 1,0 --rank-cutoff 3",
])
def test_a_setting_the_command_does_not_read_is_refused(argv, capsys):
    with pytest.raises(SystemExit) as exited:
        cli.main(argv.split())
    assert exited.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments" in err and "Traceback" not in err


def test_env_seed_is_ignored_by_a_command_without_seed(capsys, monkeypatch):
    monkeypatch.setenv("MODALITY_SEED", "77")
    code, report = run_json(capsys, ["cells", "count", "--type", "A2"])
    assert code == 0
    assert "seed" not in report["config"]
    assert all(it["seed"] is None for it in report["items"])


@pytest.mark.parametrize("m", ["0", "-2"])
def test_grading_rank_m_must_be_positive(m, capsys, monkeypatch):
    # the CLI spells the integer grading 'inf', which GradingSpec calls None
    monkeypatch.delenv("MODALITY_SEED", raising=False)
    argv = ["grading", "rank", "--type", "A2", "--m", m, "--labels", "1,0"]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == (
        f"error: --m: expected a positive integer or 'inf', got {m!r}\n")


@pytest.mark.parametrize("value", ["abc", "", "-3", "1.5"])
def test_bad_env_seed_names_the_variable(value, capsys, monkeypatch):
    monkeypatch.setenv("MODALITY_SEED", value)
    assert cli.main(["sl2", "modality", "--summands", "1"]) == 2
    assert capsys.readouterr().err == (
        f"error: MODALITY_SEED must be a nonnegative integer, got {value!r}\n")


def test_unwritable_output_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "missing" / "r.json"
    code = cli.main(["cells", "count", "--type", "A2", "--output", str(path)])
    assert code == 2
    assert not path.exists()
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("samples", ["1", "0", "-5"])
def test_packets_check_needs_samples(samples, capsys):
    code = cli.main(["packets", "check", "--sln", "3", "--samples", samples])
    assert code == 2
    assert "error: " in capsys.readouterr().err


def _refuse_to_run(*args):
    raise AssertionError("the subcommand ran before the checks")


@pytest.mark.parametrize("where", ["missing", "file", "directory"])
def test_unwritable_output_fails_before_the_computation(
        where, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "build_root_system", _refuse_to_run)
    (tmp_path / "file").write_text("")
    path = {"missing": tmp_path / "missing" / "r.json",
            "file": tmp_path / "file" / "r.json",
            "directory": tmp_path}[where]
    code = cli.main(["cells", "count", "--type", "A5", "--output", str(path)])
    assert code == 2
    # the same message that opening the path would have given
    with pytest.raises(OSError) as opened:
        open(path, "w", encoding="utf-8")
    assert capsys.readouterr().err == f"error: {opened.value}\n"


# sha256 of json.dumps(strip_volatile(report), sort_keys=True).  These
# reports were first produced with Fraction cell closures and a dense
# bracket map; the digests changed only when one sampling trial became the
# default and items gained "sampling": dropping that key and setting
# config.trials back to 5 gives the earlier digests again.  exmo's changed
# once more when its family bound became exact: restoring the family-bound
# item's old note and "sampling" object (one trial on the family) and the
# modality-regular item's union of both gives d7900daa... again.
# packets check --sln 4 gained five sheet items when its sheets came from
# Kraft's parametrisation, which lists them for every n: dropping the
# items packets-check:4:sheet:15-12, 12-10, 9-8, 7-6 and 0-0 gives
# 72bdced7... again.
# Every digest but the two tables verify ones changed when each command
# came to take only the run settings it reads: the earlier reports give
# these digests once config loses the settings the command no longer
# takes (rank_cutoff everywhere but tables verify, trials and
# build_ceiling in packets check, all four in cells count and packets
# enum) and, in cells count and packets enum, the items' seeds are null.
_GOLDEN_REPORTS = [
    ("cells count --type A5",
     "e3092cacf6517df0554b71bedfbad7d9c16a946dfe438dd1a8a63ae5cc3991fc"),
    ("cells count --type B4",
     "f20465a2fa557d90b12722f39d05d8902867379731104c86b8cd6007b88f676c"),
    ("cells count --type C4",
     "8f13835c760bc8b42e6acc3014fc5c4c13e07dbcc946509bf99a4f014ff6a20f"),
    ("packets enum --sln 4",
     "c4b3bb831736752c81985b2a24690103a06c6cd44d26dd26b074c824d9d80065"),
    ("packets check --sln 3 --samples 200",
     "db871c132450c240f563c281ecccd21c8b2dc3897db6ea57244f0e3ba6fbef73"),
    ("packets check --sln 4",
     "e1675100a1e73308c94089dd8f70efd98fbe63abad260c3c7b572872b254e5c7"),
    ("tables verify --list m3",
     "bfda5b0a1ca36ee30b7cc02fb1782845d6706ce1967006d51cb125ffed3a67ef"),
    ("rep modality --type G2 --weight 0,1",
     "13af6d5d4aeac4133563cb42213d7ef0f3017df28181f468954ddffe8536ddcf"),
    ("sl2 modality --summands 0,0,0",
     "af0fcf1da148a02edab8657e2b477e8c7be1aa982f878e710c6b3f6c8ec35850"),
    ("grading rank --type A2 --m inf --labels 1,0",
     "8e6dd9479472bf77a364f2ff102ebbd7706e65366ce9752ddfaf1bce910ac9c9"),
    # C3's structure constants have denominator 2
    ("grading rank --type C3 --m 4 --labels 1,0,1",
     "56442a3fa9ed1d8e6afd00efeba389b9450b3ea422982dda6938e19ba324a366"),
    ("exmo --n 3 --d 2",
     "eb1ad24e125d2e0eec24e996f9f364690062bcef9b326940fd83fdf68fa23f40"),
    # empty degree-one parts: rank 0 from the general path
    ("grading rank --type A3 --m 7 --labels 0,0,0",
     "fccd6df05da2f0de8abf7281f506fbebe229f65af6c2d182bd52d13bf020fdbc"),
    ("grading rank --type A2 --m inf --labels 0,0",
     "bfcddf13c19218decb542145bd13258dfd83b19f193a8e1a3e97dec6546c771f"),
    # the largest orbit matrices: E7 omega7 (56 x 133), E8 adjoint (248 x 248)
    ("rep modality --type E7 --weight 0,0,0,0,0,0,1",
     "390a8eced3069c203e8350b6f01f256a92f02d5403f72044bd64bcabad51bced"),
    ("rep modality --type E8 --weight 0,0,0,0,0,0,0,1",
     "7d9f26717671ea7683ac113e7341a3f857b335732aa8130e2928066d8f0f77d3"),
    # the exact Jordan path: char_poly, poly_eval_matrix, is_zero_matrix
    # and rank
    ("grading rank --type F4 --m 2 --labels 1,0,0,0",
     "774d83c8e0f37f3d44b05064823bcab51dddb5d14734552cb52d80afa4bbcd2e"),
    ("grading rank --type C3 --m 3 --labels 1,0,1",
     "2bd2b5c98ac844f7e4866f46720aaa4f692c2aabfcaa7370916c93c7fc2b12a6"),
    ("tables verify --list all",
     "6dae85f9c2aa82be0249dc0b9b1af389ecf795d0ff846d5e0922f6681306d766"),
    ("packets enum --sln 5",
     "c163fd40a6b896a4157dd2f16ca2a3689456efcda86475e6b489a7130b0652ef"),
    ("packets check --sln 2",
     "c9a590e09edf864968ef08db61413cc5d6e610315f26066fd4cc7bcd98840a4f"),
    ("cells count --type F4",
     "146fd1132c03ca046ba6e33ecb50a0b0745a6f9492279a0dafaefc2cdc30cfd1"),
    ("cells count --type D5",
     "ae083e87cf64c36d243081534935c01005a152bcb1ea511568d49fc6827368f0"),
    ("sl2 modality --summands 1,2",
     "534ddf310f9fca747063d59f9abb908abbe459206d055bcbdf09c4dc7117466e"),
    ("exmo --n 4 --d 3",
     "2a85f75ed2347debc4c160699d584e1ad95a835ef0b8a727821e34d135817858"),
]


@pytest.mark.parametrize("command,digest", _GOLDEN_REPORTS,
                         ids=[c for c, _ in _GOLDEN_REPORTS])
def test_reports_match_golden_digests(command, digest, capsys, monkeypatch):
    # the seed reaches the commands that take one, and only those
    monkeypatch.setenv("MODALITY_SEED", "2024")
    code, report = run_json(capsys, command.split())
    assert code == 0
    text = json.dumps(strip_volatile(report), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# sha256 of a command's --format csv output with its time_ms cells blanked.
# _csv_cell writes any tuple as a JSON list, so these also pin that no
# record reaches a report.
_GOLDEN_CSV = [
    ("tables verify --list m1",
     "331a809d38fe4b9d0a14b471e7e65ed98c61e7fce5edf1f259d17f52fd079f8a"),
    ("grading rank --type A2 --m inf --labels 1,0",
     "c46452add4add4ace6e242e1dca12a04a2fd067ebef9b001535f311cc3343f8a"),
]
# time_ms is the unquoted cell before the last one, note, always quoted
_TIME_MS_CELL = re.compile(r',[^,"\r\n]*(,"(?:[^"]|"")*"\r?)$', re.M)


@pytest.mark.parametrize("command,digest", _GOLDEN_CSV,
                         ids=[c for c, _ in _GOLDEN_CSV])
def test_csv_reports_match_golden_digests(command, digest, capsys,
                                          monkeypatch):
    monkeypatch.delenv("MODALITY_SEED", raising=False)
    code = cli.main([*command.split(), "--seed", "2024", "--format", "csv"])
    assert code == 0
    text = _TIME_MS_CELL.sub(r",\1", capsys.readouterr().out)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_every_table_entry_states_its_miss_bound(capsys, monkeypatch):
    monkeypatch.delenv("MODALITY_SEED", raising=False)
    code, report = run_json(capsys, ["tables", "verify", "--list", "all"])
    assert code == 0 and len(report["items"]) == 63
    for item in report["items"]:
        sampling = item["sampling"]
        assert sampling["field"] == modality.FIELD
        assert sampling["trials"] == 1
        assert 0 <= sampling["miss_bound"] < 1e-15, item["id"]
        assert sampling["quantity"].startswith("generic-orbit codimension")


@pytest.mark.parametrize("argv", [
    ["rep", "modality", "--type", "G2", "--weight", "0,1"],
    ["sl2", "modality", "--summands", "0,0,2"],
    ["grading", "rank", "--type", "A1", "--m", "2", "--labels", "1"],
    ["exmo", "--n", "3", "--d", "2"],
])
def test_sampling_commands_report_sampling(argv, capsys):
    code, report = run_json(capsys, argv)
    assert code == 0
    for item in report["items"]:
        if item["id"] == "exmo:family-bound":   # proven, not sampled
            continue
        assert item["sampling"]["miss_bound"] < 1e-15, item["id"]
        assert item["sampling"]["trials"] >= 1


def test_items_that_do_not_sample_have_null_sampling(capsys):
    for argv in (["cells", "count", "--type", "B3"],
                 ["packets", "check", "--sln", "2", "--samples", "10"]):
        code, report = run_json(capsys, argv)
        assert code == 0
        assert all(it["sampling"] is None for it in report["items"])
    code, report = run_json(
        capsys, ["rep", "modality", "--type", "A3", "--weight", "2,2,2",
                 "--build-ceiling", "10"])
    assert report["items"][0]["sampling"] is None   # skipped, not sampled
    code, report = run_json(capsys, ["tables", "verify", "--list", "m1",
                                     "--build-ceiling", "3"])
    assert code == 0
    skipped = {it["id"]: it for it in report["items"]
               if it["note"] and it["note"].startswith("skipped")}
    assert skipped["m1:A3:1,0,0"]["note"] == (
        "skipped: dimension 4 exceeds ceiling 3")
    for it in skipped.values():
        assert (it["computed"], it["match"], it["sampling"]) == (
            None, None, None), it["id"]
    code, report = run_json(capsys, ["exmo", "--n", "3", "--d", "2"])
    by_id = {it["id"]: it for it in report["items"]}
    assert by_id["exmo:family-bound"]["sampling"] is None   # proven


def _refuse_to_build(*args, **kwargs):
    raise AssertionError("a module was built past the ceiling")


@pytest.mark.parametrize("argv,dim", [
    (["sl2", "modality", "--summands", "100000,100000"], 200002),
    (["sl2", "modality", "--summands", "3", "--build-ceiling", "3"], 4),
    (["exmo", "--n", "40", "--d", "20"], 800),
])
def test_build_ceiling_binds_on_module_sums(argv, dim, capsys, monkeypatch):
    monkeypatch.setattr(modality, "build_hw_module", _refuse_to_build)
    monkeypatch.setattr(modality, "extend_to_full_algebra", _refuse_to_build)
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    ceiling = argv[-1] if "--build-ceiling" in argv else "256"
    assert err.endswith(f"has dimension {dim} > ceiling {ceiling}\n")


def _child_env():
    """The environment of a child interpreter that imports this tree's
    liemod."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))


def test_grading_rank_refuses_a_structure_module_over_the_ceiling():
    # E8's structure module is its 248-dimensional adjoint module: the
    # command must refuse it from Weyl's formula, before building anything
    done = subprocess.run(
        [sys.executable, "-m", "liemod", "grading", "rank", "--type", "E8",
         "--m", "1", "--labels", "0,0,0,0,0,0,0,0", "--build-ceiling", "3"],
        env=_child_env(), capture_output=True, text=True, timeout=5)
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr == ("error: structure module E8:0,0,0,0,0,0,0,1 has "
                           "dimension 248 > ceiling 3\n")


# one small command of every subcommand
_SMALL_COMMANDS = [
    "tables verify --list m3",
    "rep modality --type G2 --weight 0,1",
    "sl2 modality --summands 0,0,0",
    "cells count --type A3",
    "grading rank --type A2 --m inf --labels 1,0",
    "packets check --sln 3 --samples 20",
    "exmo --n 3 --d 2",
]


def test_commands_do_not_load_numpy():
    script = (
        "import contextlib, io, sys\n"
        "from liemod.cli import main\n"
        f"for command in {_SMALL_COMMANDS!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(command.split()) == 0, command\n"
        "    assert 'numpy' not in sys.modules, command\n")
    done = subprocess.run([sys.executable, "-c", script], env=_child_env(),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("command", [
    "packets check --sln 3 --samples 20",
    "exmo --n 3 --d 2",
    "tables verify --list m3",
    "packets enum --sln 3",
])
def test_item_times_add_up_to_at_most_the_command_time(command, capsys):
    # each item is timed from the one before it, so no time counts twice
    start = time.monotonic()
    assert cli.main(command.split()) == 0
    wall_ms = (time.monotonic() - start) * 1000
    times = [it["time_ms"] for it in json.loads(capsys.readouterr().out)
             ["items"]]
    assert all(type(t) is int and t >= 0 for t in times), times
    assert sum(times) <= wall_ms, (times, wall_ms)


@pytest.mark.parametrize("command", [
    *_SMALL_COMMANDS, "packets enum --sln 3",
    "rep modality --type A3 --weight 2,2,2 --build-ceiling 10",
])
def test_match_is_computed_equals_expected(command, capsys):
    _, report = run_json(capsys, command.split())
    for item in report["items"]:
        if ":sheet:" in item["id"]:
            continue    # its expected value is a description
        if item["computed"] is None or item["expected"] is None:
            assert item["match"] is None, item["id"]
        else:
            assert item["match"] is (item["computed"] == item["expected"]), \
                item["id"]


_SAMPLED = ["seed", "trials", "build_ceiling"]
# the run settings each command takes, in the order config echoes them
_RUN_SETTINGS = {"tables verify": ["seed", "trials", "rank_cutoff",
                                   "build_ceiling"],
                 "rep modality": _SAMPLED, "sl2 modality": _SAMPLED,
                 "cells count": [], "grading rank": _SAMPLED,
                 "packets enum": [], "packets check": ["seed"],
                 "exmo": _SAMPLED}


@pytest.mark.parametrize("command,echo", [
    ("tables verify --list m3",
     {"list": "m3", "note": "classical families expanded up to rank 8; "
                            "higher ranks not checked"}),
    ("rep modality --type G2 --weight 0,1", {"type": "G2", "weight": "0,1"}),
    ("sl2 modality --summands 0,0,0", {"summands": "0,0,0"}),
    ("cells count --type A3", {"type": "A3"}),
    ("grading rank --type A2 --m inf --labels 1,0",
     {"type": "A2", "m": "inf", "labels": "1,0"}),
    ("packets enum --sln 3", {"sln": 3}),
    ("packets check --sln 3 --samples 20", {"sln": 3, "samples": 20}),
    ("exmo --n 3 --d 2", {"n": 3, "d": 2}),
])
def test_config_echoes_options_in_declaration_order(command, echo, capsys):
    _, report = run_json(capsys, command.split())
    config = report["config"]
    assert list(config) == _RUN_SETTINGS[report["command"]] + list(echo)
    assert {k: config[k] for k in echo} == echo


def _subcommands(parser):
    """The subparsers of ``parser`` by name, or none."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices
    return {}


def _command_parsers():
    for group, parser in _subcommands(cli._build_parser()).items():
        actions = _subcommands(parser)
        for action, cmd in actions.items():
            yield f"{group} {action}", cmd
        if not actions:
            yield group, parser


def _args_read(func):
    """The ``args.<name>`` attributes a subcommand body reads."""
    return {node.attr for node in ast.walk(ast.parse(inspect.getsource(func)))
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "args"}


# every value a command can be given: its run settings and options, plus
# --format and --output, which run_command reads for every command
_SETTABLE = {"tables verify": 7, "rep modality": 7, "sl2 modality": 6,
             "cells count": 3, "grading rank": 8, "packets enum": 3,
             "packets check": 5, "exmo": 7}


def test_each_command_takes_only_what_its_body_reads():
    bodies = {command: func for command, func, *_ in cli._COMMANDS}
    declared = {}
    unread = []
    for command, parser in _command_parsers():
        flags = {action.dest: action.option_strings[0]
                 for action in parser._actions if action.dest != "help"}
        declared[command] = len(flags)
        read = _args_read(bodies[command])
        unread += [f"{command} {flags[dest]}"
                   for dest in sorted(flags.keys() - read
                                      - {"format", "output"})]
        assert read <= flags.keys(), command
    assert not unread, f"options no command body reads: {unread}"
    assert declared == _SETTABLE
