"""Command-line behavior: output schemas, exit codes, campaign files."""

import contextlib
import io
import json
import shlex
import subprocess
import sys
import tempfile
import time
from datetime import timedelta
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

DATA = Path(__file__).parent / "data"
FAIL_FIXTURE = str(DATA / "failing-campaign.ini")

from coprime_lab import cli, counting, montecarlo
from coprime_lab.constants import density
from coprime_lab.constraints import Box, CoprimeTo, DivisibleBy, Residue, TupleConstraint
from coprime_lab.counting import count_box, count_toth


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- constant -------------------------------------------------------------------


def test_constant_mutual_pair(capsys):
    code, out, _ = run_cli(capsys, "constant", "--class", "mutual", "-r", "2")
    assert code == 0
    row = json.loads(out)
    assert list(row) == ["constraint", "lo", "hi", "midpoint"]
    assert row["constraint"] == "mutual r=2"
    assert 0.6079 <= row["lo"] <= row["midpoint"] <= row["hi"] <= 0.6080


def test_constant_csv_header(capsys):
    code, out, _ = run_cli(capsys, "constant", "--class", "pairwise", "-r", "3", "--format", "csv")
    assert code == 0
    header, row = out.strip().split("\n")
    assert header == "constraint,lo,hi,midpoint"
    assert row.startswith("pairwise r=3,0.28674")


def test_constant_kwise_with_sides_exit_zero(capsys):
    code, out, _ = run_cli(
        capsys, "constant", "--class", "kwise", "-k", "2", "-r", "3", "--coprime-to", "5,1,1"
    )
    assert code == 0
    row = json.loads(out)
    c = TupleConstraint.kwise(3, 2, (CoprimeTo(5), None, None))
    assert row["constraint"] == c.describe()
    assert row["lo"] == pytest.approx(density(c).lo, rel=1e-14)
    assert row["hi"] == pytest.approx(density(c).hi, rel=1e-14)


def test_constant_invalid_sides(capsys):
    code, _, err = run_cli(
        capsys, "constant", "--class", "mutual", "-r", "2", "--divisible", "0,1"
    )
    assert code == 2
    assert "invalid" in err


def test_constant_cutoff_flag(capsys):
    code, out, _ = run_cli(
        capsys, "constant", "--class", "pairwise", "-r", "2", "--cutoff", "1000"
    )
    assert code == 0
    wide = json.loads(out)
    assert wide["hi"] - wide["lo"] > 1e-7  # visibly wider than the default cutoff


# -- count ----------------------------------------------------------------------


def test_count_frozen_example(capsys):
    code, out, _ = run_cli(capsys, "count", "-r", "2", "-n", "4", "--class", "mutual")
    assert code == 0
    row = json.loads(out)
    assert row == {
        "count": 11,
        "method": "Mobius",
        "bounds": [4, 4],
        "constraint": "mutual r=2",
    }


def test_count_tiny_pairwise_r5_is_fast(capsys):
    # the subset DFS took most of a minute on this box
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "count", "--class", "pairwise", "-r", "5", "-n", "6")
    assert time.perf_counter() - start < 2
    assert code == 0
    row = json.loads(out)
    assert (row["count"], row["method"]) == (266, "Toth")


def test_count_pairwise_past_the_subset_cap_is_refused_fast(capsys):
    # C(17, 2) = 136 subsets exceed ENGINE_MAX_SUBSETS on every route of auto
    start = time.perf_counter()
    code, _, err = run_cli(capsys, "count", "--class", "pairwise", "-r", "17", "-n", "100")
    assert time.perf_counter() - start < 2
    assert code == 4
    assert "136 constrained subsets" in err


def test_count_bruteforce_past_the_cell_cap_is_refused_fast(capsys):
    # 10**10 gcds, about 11 minutes, inside the volume and coordinate caps
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys, "count", "--class", "pairwise", "-r", "3", "-n", "100000",
        "--alpha", "1,1,1/50000", "--method", "bruteforce",
    )
    assert time.perf_counter() - start < 2
    assert (code, out) == (4, "")
    assert "10000400000 gcds" in err


def test_count_pairwise_bruteforce_past_its_choices_is_refused_fast(capsys):
    # 4e8 gcds, under the cap, but 10**8 choices of the two wide coordinates
    # at 150 units each (the kernel, counting the last coordinate's choices
    # in blocks, takes about 10 s on 2 vCPUs)
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys, "count", "--class", "pairwise", "-r", "5", "-n", "10000",
        "--alpha", "1,1,1/10000,1/10000,1/10000", "--method", "bruteforce",
    )
    assert time.perf_counter() - start < 2
    assert (code, out) == (4, "")
    assert "15400030003 gcds" in err


@pytest.mark.parametrize(
    "argv, message",
    (
        (["-r", "5", "-k", "4", "-n", "100"], "867075000 gcds"),
        (["-r", "4", "-k", "3", "-n", "5000", "--alpha", "1,1,1/5,1/5000"], "1981045437 gcds"),
        (["-r", "4", "-k", "3", "-n", "100000000", "--alpha", "1" + ",1/100000000" * 3],
         "41418750000 gcds"),
    ),
    ids=("r5-k4-cube", "r4-k3-thin", "r4-k3-one-wide"),
)
def test_count_kwise_bruteforce_past_its_work_cap_is_refused_fast(capsys, argv, message):
    # past the cap by the k-wise estimate: a gcd per cell of its grids, or
    # (last) 10**8 choices of the widest coordinate, each a few numpy calls.
    # The kernel takes a gcd per distinct value of a grid, and counts the
    # first two in about 0.5 s and 17 s on 2 vCPUs
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "count", "--class", "kwise", *argv, "--method", "bruteforce")
    assert time.perf_counter() - start < 2
    assert (code, out) == (4, "")
    assert message in err


def test_count_kwise_bruteforce_within_its_work_cap_equals_mobius(capsys):
    # (5, 3) at n = 60, refused by the prefix enumeration that came before
    # the cube kernel
    code, out, _ = run_cli(
        capsys, "count", "--class", "kwise", "-r", "5", "-k", "3", "-n", "60", "--method", "bruteforce"
    )
    assert code == 0
    want = counting.count_mobius(Box.cube(60, 5), TupleConstraint.kwise(5, 3)).count
    assert json.loads(out)["count"] == want


def test_count_bruteforce_past_the_coordinate_cap_is_refused_fast(capsys):
    # volume 10**10 is inside BRUTE_VOLUME_CAP, but the admissible values of
    # the first coordinate alone took a 74.5 GiB array
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys, "count", "--class", "mutual", "-r", "2", "-n", "10000000000",
        "--alpha", "1,1/10000000000", "--method", "bruteforce",
    )
    assert time.perf_counter() - start < 2
    assert (code, out) == (4, "")
    assert "coordinate bound 10000000000" in err


@pytest.mark.parametrize(
    "argv",
    (
        ["-n", "2"],
        ["-n", "2", "--method", "mobius"],
        ["-n", "1", "--method", "bruteforce"],
    ),
)
def test_count_refuses_huge_subset_systems_before_listing_them(capsys, argv):
    # C(40, 20) ~ 1.4e11 subsets: listing them only to take their number hung
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "count", "--class", "kwise", "-r", "40", "-k", "20", *argv)
    assert time.perf_counter() - start < 2
    assert (code, out) == (4, "")
    assert "137846528820 constrained subsets" in err


def test_count_merges_the_side_flags(capsys):
    code, out, _ = run_cli(
        capsys, "count", "--class", "pairwise", "-r", "3", "-n", "30",
        "--coprime-to", "6,1,1", "--divisible", "1,2,1", "--residue", "1:0,1:0,5:2",
    )
    assert code == 0
    c = TupleConstraint.pairwise(3, (CoprimeTo(6), DivisibleBy(2), Residue(5, 2)))
    row = json.loads(out)
    assert row["constraint"] == c.describe()
    assert row["count"] == count_box(Box.cube(30, 3), c, method="bruteforce").count


@pytest.mark.parametrize(
    "flags",
    (
        ["--coprime-to", "6,1"],  # r = 3 entries needed
        ["--coprime-to", "6,x,1"],
        ["--divisible", "0,1,1"],
        ["--divisible", "2:1,1,1"],
        ["--residue", "3,1:0,1:0"],
        ["--residue", "1:1,1:0,1:0"],  # modulus 1 admits only residue 0
        ["--residue", "3:3,1:0,1:0"],
        ["--residue", "0:0,1:0,1:0"],
        ["--coprime-to", "6,1,1", "--divisible", "2,1,1"],  # two sides on x1
        ["-k", "2"],  # -k belongs to the kwise class
        ["--class", "kwise"],  # which then needs -k
        ["--class", "kwise", "-k", "4"],
    ),
)
def test_count_bad_constraint_flags_exit_2(capsys, flags):
    argv = ["count", "-r", "3", "-n", "10", *flags]
    if "--class" not in flags:
        argv += ["--class", "pairwise"]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert "invalid" in err


@pytest.mark.parametrize(
    "argv, want",
    (
        (["--class", "kwise", "-r", "5", "-k", "3", "-n", "8"], 13636),
        (["--class", "pairwise", "-r", "4", "-n", "22", "--method", "mobius"], 23893),
        (["--class", "pairwise", "-r", "5", "-n", "60", "--method", "mobius"], 28822516),
    ),
)
def test_count_mobius_tables_are_fast(capsys, argv, want):
    # the subset-variable DFS took 52 s and 1.2 s on the first two boxes; the
    # depth-first prime search took 1.0 s on the third
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "count", *argv)
    assert time.perf_counter() - start < 1
    assert code == 0
    row = json.loads(out)
    assert (row["count"], row["method"]) == (want, "Mobius")
    if "pairwise" in argv:
        r, n = (int(argv[argv.index(flag) + 1]) for flag in ("-r", "-n"))
        assert count_toth((n,) * r).count == want


@pytest.mark.parametrize(
    "argv",
    (
        ["--class", "pairwise", "-r", "6", "-n", "60", "--method", "mobius"],
        ["--class", "kwise", "-r", "7", "-k", "3", "-n", "30"],
        ["--class", "kwise", "-r", "10", "-k", "3", "-n", "20"],
    ),
)
def test_count_mobius_past_its_row_budget_is_refused_fast(capsys, argv):
    # the depth-first prime search listed rows for 4-15 s before the budget
    # refused these tables
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "count", *argv)
    assert time.perf_counter() - start < 2
    assert (code, out) == (4, "")
    assert f"passes {counting._MOBIUS_ROWS_MAX} rows" in err


def test_count_zero_alpha(capsys):
    code, out, _ = run_cli(
        capsys, "count", "-r", "2", "-n", "4", "--class", "mutual", "--alpha", "0,1"
    )
    assert code == 0
    assert json.loads(out)["count"] == 0


def test_count_fractional_alpha_matches_library(capsys):
    code, out, _ = run_cli(
        capsys,
        "count",
        "-r",
        "2",
        "-n",
        "9",
        "--class",
        "pairwise",
        "--alpha",
        "1,1/3",
        "--method",
        "bruteforce",
    )
    assert code == 0
    want = count_box(Box(bounds=(9, 3), n=9), TupleConstraint.pairwise(2)).count
    row = json.loads(out)
    assert row["count"] == want and row["bounds"] == [9, 3]
    assert row["method"] == "BruteForce"


def test_count_grouped_toth(capsys):
    code, out, _ = run_cli(
        capsys,
        "count",
        "-r",
        "3",
        "-n",
        "30",
        "--class",
        "pairwise",
        "--coprime-to",
        "6,6,6",
        "--method",
        "toth",
    )
    assert code == 0
    assert json.loads(out)["count"] == 700


def test_count_unsupported_method_exit_code(capsys):
    code, out, err = run_cli(
        capsys, "count", "--class", "mutual", "-r", "3", "-n", "10", "--method", "toth"
    )
    assert code == 3
    assert out == ""
    assert "unsupported" in err


def test_count_capacity_exit(capsys):
    code, _, err = run_cli(
        capsys,
        "count",
        "-r",
        "2",
        "-n",
        "200000",
        "--class",
        "mutual",
        "--method",
        "bruteforce",
    )
    assert code == 4
    assert "capacity" in err


def test_count_oversized_modulus_exit(capsys):
    code, _, err = run_cli(
        capsys, "count", "--class", "mutual", "-r", "2", "-n", "10",
        "--divisible", "9223372036854775837,1",
    )
    assert code == 4
    assert "capacity" in err


def test_count_large_residue_modulus(capsys):
    start = time.monotonic()
    code, out, _ = run_cli(
        capsys, "count", "--class", "mutual", "-r", "2", "-n", "100",
        "--residue", "1000000007:5,1:0",
    )
    assert time.monotonic() - start < 1
    assert code == 0
    c = TupleConstraint.mutual(2, (Residue(1000000007, 5), None))
    assert json.loads(out)["count"] == count_box(Box.cube(100, 2), c, method="bruteforce").count


def test_count_mutual_r4_past_int64(capsys):
    code, out, _ = run_cli(capsys, "count", "--class", "mutual", "-r", "4", "-n", "60000")
    assert code == 0
    assert json.loads(out)["count"] == 11974243246502789823


def test_count_mutual_past_the_sieve_cap(capsys):
    # OEIS A018805: coprime pairs in [1, 10**8]^2
    code, out, _ = run_cli(capsys, "count", "--class", "mutual", "-r", "2", "-n", "100000000")
    assert code == 0
    assert json.loads(out)["count"] == 6079271032731815


def test_count_bad_alpha_exit(capsys):
    code, _, err = run_cli(
        capsys, "count", "-r", "2", "-n", "4", "--class", "mutual", "--alpha", "2,1"
    )
    assert code == 2


def test_argparse_rejects_unknown_method():
    with pytest.raises(SystemExit) as exc:
        cli.main(["count", "-r", "2", "-n", "4", "--class", "mutual", "--method", "magic"])
    assert exc.value.code == 2


# -- verify -----------------------------------------------------------------------


def test_builtin_suite_shape():
    args = cli.build_parser().parse_args(["verify", "--suite", "paper"])
    rows = cli.builtin_suite(args)
    names = [row.name for row in rows]
    assert len(names) == len(set(names)) == 19
    methods = {row.name: row.method for row in rows}
    assert methods["PC-r4"] == "montecarlo"
    assert methods["kC-r4-k2"] == "montecarlo"
    assert methods["kC-r4-k3"] == "montecarlo"
    exact_rows = [name for name, m in methods.items() if m == "exact"]
    assert len(exact_rows) == 16
    assert all(row.n == 1024 and row.tolerance == 0.005 for row in rows)


def test_verify_small_campaign_passes(tmp_path, capsys):
    campaign = tmp_path / "small.ini"
    campaign.write_text(
        "[pairs]\nclass = mutual\nr = 2\nn = 512\n\n"
        "[pairs-mc]\nclass = mutual\nr = 2\nmethod = montecarlo\nsamples = 20000\n"
    )
    code, out, _ = run_cli(capsys, "verify", str(campaign))
    assert code == 0
    rows = [json.loads(line) for line in out.strip().split("\n")]
    assert [row["name"] for row in rows] == ["pairs", "pairs-mc"]
    assert all(row["verdict"] == "PASS" for row in rows)
    assert rows[0]["n"] == 512 and rows[0]["mc_samples"] is None
    assert rows[1]["mc_samples"] == 20000 and rows[1]["mc_seed"] == 20260816


def test_verify_failing_fixture_exits_one(capsys):
    code, out, _ = run_cli(capsys, "verify", FAIL_FIXTURE)
    assert code == 1
    row = json.loads(out)
    assert row["verdict"] == "FAIL"
    assert row["midpoint"] == pytest.approx(0.90005)


def test_verify_kwise_sides_row_passes(tmp_path, capsys):
    campaign = tmp_path / "ksides.ini"
    campaign.write_text("[ksides]\nclass = kwise\nr = 3\nk = 2\ncoprime-to = 5,1,1\n")
    code, out, _ = run_cli(capsys, "verify", str(campaign))
    assert code == 0
    row = json.loads(out)
    assert row["verdict"] == "PASS"
    assert 0 < row["lo"] <= row["hi"] < 1
    assert abs(row["empirical"] - row["midpoint"]) <= row["tolerance"]


@pytest.mark.parametrize("n", (2**63, 2**64))
def test_verify_montecarlo_row_past_int64_exits_four(tmp_path, capsys, n):
    campaign = tmp_path / "huge.ini"
    campaign.write_text(f"[huge]\nclass = mutual\nr = 2\nmethod = montecarlo\nn = {n}\n")
    code, out, err = run_cli(capsys, "verify", str(campaign))
    assert code == 4 and out == ""
    assert "capacity" in err and "Traceback" not in err


_GOOD_ROW = "[first]\nclass = mutual\nr = 2\nn = 64\ntolerance = 0.02\n"


@pytest.mark.parametrize(
    "flags, second_row",
    (
        (("--samples", "99"), None),
        (("--confidence", "1.5"), None),
        (("--confidence", "0"), None),
        (("--tolerance", "-1"), None),
        (("--tolerance", "inf"), None),
        (("--tolerance", "nan"), None),
        (("-n", "0"), None),
        ((), "samples = 50\nmethod = montecarlo\n"),
        ((), "confidence = 1\nmethod = montecarlo\n"),
        ((), "tolerance = -0.5\n"),
        ((), "n = 0\n"),
    ),
)
def test_verify_checks_every_row_before_the_first_runs(tmp_path, capsys, flags, second_row):
    # a bad value in any row exits 2 before any row is printed
    if second_row is None:
        argv = ("verify", "--suite", "paper", *flags)
    else:
        campaign = tmp_path / "bad.ini"
        campaign.write_text(_GOOD_ROW + "[second]\nclass = pairwise\nr = 3\n" + second_row)
        argv = ("verify", str(campaign))
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert "invalid" in err and "Traceback" not in err


def test_verify_empty_campaign(tmp_path, capsys):
    campaign = tmp_path / "empty.ini"
    campaign.write_text("")
    code, out, _ = run_cli(capsys, "verify", str(campaign))
    assert code == 0 and out == ""


def test_verify_rejects_unknown_keys(tmp_path, capsys):
    campaign = tmp_path / "bad.ini"
    campaign.write_text("[oops]\nclass = mutual\nr = 2\nspeed = fast\n")
    code, _, err = run_cli(capsys, "verify", str(campaign))
    assert code == 2 and "unknown keys" in err
    # the grouping keys are gone: the same row is coprime-to = 6,6,5
    campaign.write_text("[g]\nclass = pairwise\nr = 3\nblocks = 1,1,2\nblock-moduli = 6,5\n")
    code, _, err = run_cli(capsys, "verify", str(campaign))
    assert code == 2 and "unknown keys: block-moduli, blocks" in err


def test_verify_requires_exactly_one_source(capsys):
    code, _, _ = run_cli(capsys, "verify")
    assert code == 2
    code, _, _ = run_cli(capsys, "verify", "--suite", "paper", FAIL_FIXTURE)
    assert code == 2


def test_verify_missing_file(capsys):
    code, _, err = run_cli(capsys, "verify", "no/such/file.ini")
    assert code == 2


def test_verify_campaign_is_byte_deterministic(tmp_path, capsys):
    campaign = tmp_path / "det.ini"
    campaign.write_text(
        "[mc]\nclass = pairwise\nr = 3\nmethod = montecarlo\nsamples = 5000\n"
    )
    _, first, _ = run_cli(capsys, "verify", str(campaign))
    _, second, _ = run_cli(capsys, "verify", str(campaign))
    assert first == second


def test_verify_csv_schema(tmp_path, capsys):
    campaign = tmp_path / "one.ini"
    # n=64 sits ~7.1e-3 from the limit, so widen the per-row tolerance
    campaign.write_text("[row]\nclass = mutual\nr = 2\nn = 64\ntolerance = 0.02\n")
    code, out, _ = run_cli(capsys, "verify", str(campaign), "--format", "csv")
    assert code == 0
    header = out.split("\n", 1)[0]
    assert header == ",".join(cli.VERIFY_FIELDS)


def test_verify_target_override_rows_can_pass(tmp_path, capsys):
    campaign = tmp_path / "target.ini"
    campaign.write_text(
        "[pinned]\nclass = mutual\nr = 2\nn = 1024\n"
        "target-lo = 0.6079\ntarget-hi = 0.6080\n"
    )
    code, out, _ = run_cli(capsys, "verify", str(campaign))
    assert code == 0
    assert json.loads(out)["verdict"] == "PASS"


def test_verify_counts_or_samples_each_tuple_set_once(tmp_path, capsys, monkeypatch):
    calls = {"estimate": [], "count_box": []}

    def recording(name, fn):
        def wrapper(*args, **kwargs):
            calls[name].append(args)
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(montecarlo, "estimate", recording("estimate", montecarlo.estimate))
    monkeypatch.setattr(counting, "count_box", recording("count_box", counting.count_box))
    mc = "method = montecarlo\nsamples = 5000\ntolerance = 0.05\n"
    campaign = tmp_path / "shared.ini"
    campaign.write_text(
        f"[pw4]\nclass = pairwise\nr = 4\n{mc}\n"
        f"[kw4]\nclass = kwise\nr = 4\nk = 2\n{mc}\n"
        f"[kw4-seed]\nclass = kwise\nr = 4\nk = 2\nseed = 7\n{mc}\n"
        "[mu3]\nclass = mutual\nr = 3\nn = 64\ntolerance = 0.05\n\n"
        "[kw3]\nclass = kwise\nr = 3\nk = 3\nn = 64\ntolerance = 0.05\n"
    )
    code, out, _ = run_cli(capsys, "verify", str(campaign))
    assert code == 0
    rows = {row["name"]: row for row in map(json.loads, out.strip().split("\n"))}
    # pairwise r=4 and k=2, r=4 on one seed share; another seed samples again
    assert len(calls["estimate"]) == 2 and len(calls["count_box"]) == 1
    assert rows["pw4"]["empirical"] == rows["kw4"]["empirical"]
    assert rows["kw4-seed"]["empirical"] != rows["kw4"]["empirical"]
    assert rows["mu3"]["empirical"] == rows["kw3"]["empirical"]
    # each row keeps its own constant and its own Monte Carlo fields
    assert rows["mu3"]["constraint"] != rows["kw3"]["constraint"]
    assert rows["mu3"]["lo"] != rows["kw3"]["lo"]  # 1/zeta(3) vs the k = r product
    assert rows["kw4-seed"]["mc_seed"] == 7 and rows["kw4"]["mc_seed"] == 20260816
    assert rows["pw4"]["mc_half_width"] == rows["kw4"]["mc_half_width"] > 0


# -- discrepancy --------------------------------------------------------------------


def test_discrepancy_scan_rows(capsys):
    code, out, _ = run_cli(
        capsys, "discrepancy", "--class", "mutual", "-r", "2", "--scan", "8,16,32"
    )
    assert code == 0
    rows = [json.loads(line) for line in out.strip().split("\n")]
    assert [row["n"] for row in rows] == [8, 16, 32]
    for row in rows:
        assert set(row) == {"constraint", "n", "value", "argmax", "flag", "total", "rate_ratio"}
        assert row["flag"] in ("AtCorner", "LeftLimit")


def test_discrepancy_degenerate_n1(capsys):
    code, out, _ = run_cli(capsys, "discrepancy", "--class", "mutual", "-r", "2", "-n", "1")
    assert code == 0
    row = json.loads(out)
    assert row["value"] == 1 and row["argmax"] == [0, 0] and row["rate_ratio"] is None


def test_discrepancy_measure_modes(capsys):
    code, out, _ = run_cli(capsys, "discrepancy", "--measure", "gcd", "-n", "64", "--step", "4")
    assert code == 0
    row = json.loads(out)
    assert row["kind"] == "gcd" and row["n"] == 64 and row["step"] == 4
    assert 0 < row["max_error"] < 1
    code, out, _ = run_cli(capsys, "discrepancy", "--measure", "lcm", "-n", "64", "--step", "4")
    assert code == 0
    assert json.loads(out)["kind"] == "lcm"


@pytest.mark.parametrize("kind, step", (("gcd", "200"), ("lcm", "100000")))
def test_discrepancy_measure_step_past_the_cap_is_refused_fast(capsys, kind, step):
    # step**2 weighted sums: the gcd case took 9.3 s, the lcm case did not end
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "discrepancy", "--measure", kind, "-n", "64", "--step", step)
    assert time.perf_counter() - start < 2
    assert (code, out) == (4, "")
    assert "capacity" in err


@pytest.mark.parametrize("kind, n", (("gcd", "10000000000"), ("lcm", "100000000")))
def test_discrepancy_measure_work_past_two_capped_sums_is_refused_fast(capsys, kind, n):
    # 1,025 weighted sums: about an hour of work for the gcd case
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "discrepancy", "--measure", kind, "-n", n, "--step", "32")
    assert time.perf_counter() - start < 2
    assert (code, out) == (4, "")
    assert "weighted sums" in err


@pytest.mark.parametrize(
    "argv", (("--class", "mutual", "-r", "30"), ("--class", "kwise", "-r", "40", "-k", "20"))
)
def test_discrepancy_grid_cap_counts_every_cell(capsys, argv):
    # n**r = 1 passed a cap that the (n+1)**r cells of the grid do not
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "discrepancy", *argv, "-n", "1")
    assert time.perf_counter() - start < 2
    assert (code, out) == (4, "")
    assert "cells" in err


def test_discrepancy_past_the_subset_cap_is_refused_fast(capsys):
    # C(26, 13) ~ 1.0e7 subsets were listed before a single cell was marked
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "discrepancy", "--class", "kwise", "-r", "26", "-k", "13", "-n", "1")
    assert time.perf_counter() - start < 2
    assert (code, out) == (4, "")
    assert "10400600 constrained subsets" in err


def test_verify_montecarlo_past_the_subset_cap_is_refused_fast(tmp_path, capsys):
    campaign = tmp_path / "many.ini"
    campaign.write_text("[many]\nclass = kwise\nr = 40\nk = 20\nn = 10\nmethod = montecarlo\nsamples = 100\n")
    start = time.perf_counter()
    code, _, err = run_cli(capsys, "verify", str(campaign))
    assert time.perf_counter() - start < 2
    assert code == 4
    assert "137846528820 constrained subsets" in err


def test_discrepancy_needs_parameters(capsys):
    code, _, _ = run_cli(capsys, "discrepancy", "--class", "mutual", "-r", "2")
    assert code == 2
    code, _, _ = run_cli(capsys, "discrepancy", "--measure", "gcd")
    assert code == 2


def test_module_entrypoint_runs(child_env):
    proc = subprocess.run(
        [sys.executable, "-m", "coprime_lab.cli", "count", "-r", "2", "-n", "4", "--class", "mutual"],
        capture_output=True,
        text=True,
        env=child_env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["count"] == 11


def test_closed_stdout_exits_one_without_traceback(child_env):
    # the reader is gone before the first row is written, as with `| head -1`
    proc = subprocess.Popen(
        [sys.executable, "-m", "coprime_lab.cli", "count", "-r", "2", "-n", "4", "--class", "mutual"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=child_env,
    )
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait() == 1
    assert "Traceback" not in err and "Exception ignored" not in err, err


def test_cli_counts_and_sums_never_import_numpy_ma(child_env):
    # numpy.ma, which np.unique imports, costs 8-13 ms in a cold process
    script = """
import sys
from coprime_lab import cli
for argv in (
    "count --class mutual -r 3 -n 3000000",
    "count --class pairwise -r 3 -n 300",
    "discrepancy --measure lcm -n 1024 --step 8",
):
    assert cli.main(argv.split()) == 0, argv
print("numpy.ma" in sys.modules)
"""
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=child_env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


@pytest.mark.parametrize(
    "argv, golden",
    [(["verify", "--suite", "paper"], "verify-paper.jsonl"), (["calibrate"], "calibrate.json")],
)
def test_stdout_matches_golden_file(argv, golden, child_env):
    # a fresh process, so every cache starts cold as for a user of the CLI
    proc = subprocess.run(
        [sys.executable, "-m", "coprime_lab.cli", *argv], capture_output=True, env=child_env
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (DATA / golden).read_bytes()


# -- README ---------------------------------------------------------------------


def _readme_examples() -> list:
    """(command, the lines shown under it) for each ``$ coprime-lab ...``
    example in README's command-line section."""
    text = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    examples = []
    for chunk in block.strip().split("\n\n"):
        command, *shown = chunk.split("\n")
        examples.append(pytest.param(command, "".join(line + "\n" for line in shown), id=command))
    return examples


@pytest.mark.parametrize("command, shown", _readme_examples())
def test_readme_examples_print_what_readme_shows(capsys, command, shown):
    assert command.startswith("$ coprime-lab ")
    code, out, _ = run_cli(capsys, *shlex.split(command)[2:])
    assert code == 0 and out == shown


# -- argv fuzzing -------------------------------------------------------------


def _mostly(valid, invalid):
    """``valid``, but one time in ten ``invalid``."""
    return st.integers(0, 9).flatmap(lambda i: invalid if i == 9 else valid)


def _listed(draw, entries: list[str]) -> str:
    """``entries`` joined by commas, but one time in ten one too few or too many."""
    cut = draw(_mostly(st.just(len(entries)), st.integers(0, len(entries) + 1)))
    return ",".join((entries + entries[:1])[:cut])


_SCALE = _mostly(st.integers(0, 60), st.integers(-2, -1)).map(str)


@st.composite
def _class_and_sides(draw) -> list[tuple[str, str]]:
    """A class, r <= 6, maybe k, and per-coordinate sides, as (campaign key,
    value) pairs; a command takes each key as its flag.  Each part is valid
    but one time in ten: a number out of range, a list of the wrong length, a
    malformed entry, two sides on one coordinate."""
    r = draw(_mostly(st.integers(2, 6), st.integers(0, 1)))
    cls = draw(st.sampled_from(("mutual", "pairwise", "kwise")))
    pairs = [("class", cls), ("r", str(r))]
    if cls == "kwise" or draw(st.integers(0, 9)) == 9:
        pairs.append(("k", str(draw(_mostly(st.integers(2, max(r, 2)), st.integers(-1, 7))))))
    modulus = _mostly(st.integers(1, 12), st.integers(-1, 0))
    sides = {
        "coprime-to": ("1", modulus.map(str)),
        "divisible": ("1", modulus.map(str)),
        "residue": (
            "1:0",
            modulus.flatmap(
                lambda m: _mostly(st.integers(0, max(m - 1, 0)), st.integers(-1, 13)).map(
                    f"{m}:{{}}".format
                )
            ),
        ),
    }
    kinds = draw(st.lists(st.sampled_from((None, *sides)), min_size=r, max_size=r))
    for key, (none, entry) in sides.items():
        clash = draw(st.integers(0, 9)) == 9
        if key in kinds or clash:
            entries = [draw(entry) if k == key or clash else none for k in kinds]
            pairs.append((key, _listed(draw, entries)))
    return pairs


@st.composite
def _verify_flags(draw, campaign: bool) -> list[tuple[str, str]]:
    """The Monte Carlo and tolerance settings of ``verify``, as (campaign key,
    value) pairs, each valid but one time in ten: n <= 0, a negative,
    infinite or NaN tolerance, fewer than 100 samples, a confidence outside
    (0, 1).  ``--suite`` rows always get n and samples, so that none takes
    long; a campaign row may be exact or Monte Carlo."""
    pairs = [("n", draw(_SCALE))]
    if campaign:
        pairs.append(("method", draw(st.sampled_from(("exact", "montecarlo")))))
    pairs.append(("samples", str(draw(_mostly(st.integers(100, 1000), st.integers(0, 99))))))
    options = {
        "tolerance": _mostly(
            st.floats(0, 1).map(repr), st.sampled_from(("-0.01", "inf", "-inf", "nan"))
        ),
        "seed": st.integers(-(2**40), 2**40).map(str),
        "confidence": _mostly(
            st.floats(0, 1, exclude_min=True, exclude_max=True).map(repr),
            st.sampled_from(("0", "1", "1.5", "-0.5", "nan")),
        ),
    }
    for key, value in options.items():
        if draw(st.booleans()):
            pairs.append((key, draw(value)))
    return pairs


@st.composite
def _cli_argv(draw) -> tuple[list[str], str | None]:
    """argv for ``count``, ``constant``, ``discrepancy`` or ``verify`` at
    n <= 60 and r <= 6, and the campaign file's text where ``verify`` reads
    one (its path goes after the command).  Each part is valid but one time
    in ten, as ``_class_and_sides`` and ``_verify_flags`` draw them."""

    def flags(pairs):
        return [arg for key, value in pairs for arg in ("-" * min(len(key), 2) + key, value)]

    command = draw(st.sampled_from(("count", "constant", "discrepancy", "verify")))
    campaign = None
    if command == "verify":
        if draw(st.booleans()):
            argv = [command, "--suite", "paper", *flags(draw(_verify_flags(False)))]
        else:
            pairs = draw(_class_and_sides()) + draw(_verify_flags(True))
            campaign = "[row]\n" + "".join(f"{key} = {value}\n" for key, value in pairs)
            argv = [command]
        if draw(st.booleans()):
            argv += ["--format", "csv"]
        return argv, campaign
    if command == "discrepancy" and draw(st.integers(0, 3)) == 0:
        kind = draw(st.sampled_from(("gcd", "lcm")))
        step = draw(_mostly(st.integers(1, 70), st.integers(-1, 0)))
        return [command, "--measure", kind, "-n", draw(_SCALE), "--step", str(step)], None
    pairs = draw(_class_and_sides())
    r = int(dict(pairs)["r"])
    argv = [command, *flags(pairs)]
    if command == "count":
        method = draw(st.sampled_from(("auto", "mobius", "bruteforce", "toth")))
        argv += ["-n", draw(_SCALE), "--method", method]
        if draw(st.booleans()):
            alpha = _mostly(
                st.sampled_from(("1", "1/2", "2/3", "0", "0.25")),
                st.sampled_from(("3/2", "-1", "1/0", "x")),
            )
            argv += ["--alpha", _listed(draw, draw(st.lists(alpha, min_size=r, max_size=r)))]
    elif command == "constant":
        if draw(st.booleans()):
            argv += ["--cutoff", str(draw(_mostly(st.integers(2, 10**6), st.integers(-2, 1))))]
    elif draw(st.booleans()):
        argv += ["-n", draw(_SCALE)]
    else:
        argv += ["--scan", ",".join(draw(st.lists(_SCALE, min_size=1, max_size=4)))]
    if draw(st.booleans()):
        argv += ["--format", "csv"]
    return argv, None


@settings(max_examples=50, deadline=timedelta(seconds=10), derandomize=True)
@given(_cli_argv())
def test_generated_argv_answer_or_refuse_without_traceback(case):
    # in-process, one example at a time; argparse's own refusals are SystemExit(2).
    # The deadline sits above what the caps admit: discrepancy scans just
    # under the grid cap take about 3 s, and every generated example here
    # finishes well inside 1 s.
    argv, campaign = case
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        if campaign is not None:
            path = Path(tmp) / "row.ini"
            path.write_text(campaign, encoding="utf-8")
            argv = [argv[0], str(path), *argv[1:]]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
    assert code in (0, 1, 2, 3, 4), (argv, campaign, code, err.getvalue())
    assert "Traceback" not in err.getvalue(), (argv, campaign)
    # a FAIL row exits 1 after it is printed
    assert (code in (0, 1)) == bool(out.getvalue()), (argv, campaign, code, out.getvalue())
