"""Command-line interface for density constants, exact counts, verification
campaigns, and discrepancy scans.

Output is deterministic: JSON lines (default) or CSV with a fixed field
order, floats rendered with 15 significant digits, and no timestamps or
environment-dependent content.  Exit codes: 0 success (all verification
rows PASS), 1 verification failure, 2 invalid input, 3 unsupported method,
4 capacity limit.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import constants, counting, discrepancy, montecarlo
from .constraints import Box, CoprimeTo, DivisibleBy, Residue, TupleConstraint
from .errors import CapacityError, UnsupportedError

DEFAULT_VERIFY_N = 1024
DEFAULT_TOLERANCE = 5e-3
DEFAULT_MC_SAMPLES = 500_000
DEFAULT_MC_SEED = 20260816
DEFAULT_MC_CONFIDENCE = 0.99

VERIFY_FIELDS = (
    "name",
    "constraint",
    "lo",
    "hi",
    "midpoint",
    "n",
    "empirical",
    "mc_samples",
    "mc_seed",
    "mc_confidence",
    "mc_half_width",
    "verdict",
    "tolerance",
)


# ---------------------------------------------------------------------------
# deterministic serialization


def _render(value) -> str:
    """Render one scalar for JSON output (floats at 15 significant digits)."""
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return "%.15g" % value
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (tuple, list)):
        return "[" + ",".join(_render(v) for v in value) + "]"
    raise TypeError(f"cannot serialize {value!r}")


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return "%.15g" % value
    if isinstance(value, (tuple, list)):
        return ";".join(_csv_cell(v) for v in value)
    return str(value)


class _Emitter:
    """Writes rows as JSON lines or CSV with one fixed header."""

    def __init__(self, fmt: str, stream=None) -> None:
        self.fmt = fmt
        self.stream = stream if stream is not None else sys.stdout
        self._writer = None

    def emit(self, pairs: list[tuple[str, object]]) -> None:
        if self.fmt == "csv":
            if self._writer is None:
                self._writer = csv.writer(self.stream, lineterminator="\n")
                self._writer.writerow([key for key, _ in pairs])
            self._writer.writerow([_csv_cell(val) for _, val in pairs])
        else:
            body = ",".join(f"{json.dumps(key)}:{_render(val)}" for key, val in pairs)
            self.stream.write("{" + body + "}\n")


# ---------------------------------------------------------------------------
# flag parsing helpers


def _parse_ints(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"{what} must be a comma-separated integer list, got {text!r}")


def _parse_alpha(text: str, r: int) -> tuple[Fraction, ...]:
    parts = text.split(",")
    if len(parts) != r:
        raise ValueError(f"--alpha needs {r} components, got {len(parts)}")
    try:
        return tuple(Fraction(part) for part in parts)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"--alpha components must be rationals like 0.5 or 1/3, got {text!r}")


def _parse_residue_sides(text: str) -> list[tuple[int, int]]:
    out = []
    for part in text.split(","):
        fields = part.split(":")
        if len(fields) != 2:
            raise ValueError(f"residue entries look like MODULUS:RESIDUE, got {part!r}")
        try:
            out.append((int(fields[0]), int(fields[1])))
        except ValueError:
            raise ValueError(f"residue entries look like MODULUS:RESIDUE, got {part!r}")
    return out


def _build_sides(
    r: int,
    coprime_to: str | None,
    divisible: str | None,
    residue: str | None,
):
    """Merge the three per-coordinate side flags; entries of modulus 1 are
    placeholders for 'no condition' so the lists always have length r."""
    sides: list = [None] * r

    def put(i: int, side) -> None:
        if sides[i] is not None:
            raise ValueError(f"coordinate {i + 1} was given two side conditions")
        sides[i] = side

    if coprime_to is not None:
        values = _parse_ints(coprime_to, "--coprime-to")
        if len(values) != r:
            raise ValueError(f"--coprime-to needs {r} entries, got {len(values)}")
        for i, a in enumerate(values):
            if a < 1:
                raise ValueError(f"--coprime-to entries must be >= 1, got {a}")
            if a > 1:
                put(i, CoprimeTo(a))
    if divisible is not None:
        values = _parse_ints(divisible, "--divisible")
        if len(values) != r:
            raise ValueError(f"--divisible needs {r} entries, got {len(values)}")
        for i, a in enumerate(values):
            if a < 1:
                raise ValueError(f"--divisible entries must be >= 1, got {a}")
            if a > 1:
                put(i, DivisibleBy(a))
    if residue is not None:
        entries = _parse_residue_sides(residue)
        if len(entries) != r:
            raise ValueError(f"--residue needs {r} entries, got {len(entries)}")
        for i, (a, b) in enumerate(entries):
            if a > 1:
                put(i, Residue(a, b))
            elif a == 1:
                if b != 0:
                    raise ValueError(f"modulus 1 admits only residue 0, got {b}")
            else:
                raise ValueError(f"--residue moduli must be >= 1, got {a}")
    return tuple(sides)


def _build_constraint(
    cls: str,
    r: int,
    k: int | None,
    coprime_to: str | None = None,
    divisible: str | None = None,
    residue: str | None = None,
) -> TupleConstraint:
    sides = _build_sides(r, coprime_to, divisible, residue)
    if cls == "mutual":
        if k is not None:
            raise ValueError("-k applies to the kwise class only")
        return TupleConstraint.mutual(r, sides)
    if cls == "pairwise":
        if k is not None:
            raise ValueError("-k applies to the kwise class only")
        return TupleConstraint.pairwise(r, sides)
    if k is None:
        raise ValueError("the kwise class needs -k")
    return TupleConstraint.kwise(r, k, sides)


def _constraint_from_args(args: argparse.Namespace) -> TupleConstraint:
    return _build_constraint(
        args.cls,
        args.r,
        args.k,
        coprime_to=args.coprime_to,
        divisible=args.divisible,
        residue=args.residue,
    )


def _add_constraint_flags(sp: argparse.ArgumentParser, required: bool = True) -> None:
    sp.add_argument(
        "--class",
        dest="cls",
        choices=("mutual", "pairwise", "kwise"),
        required=required,
        help="coprimality class",
    )
    sp.add_argument("-r", type=int, required=required, help="tuple length")
    sp.add_argument("-k", type=int, default=None, help="subset size for the kwise class")
    sp.add_argument(
        "--coprime-to",
        metavar="A1,...,AR",
        default=None,
        help="per-coordinate coprimality moduli (1 = none)",
    )
    sp.add_argument(
        "--divisible",
        metavar="A1,...,AR",
        default=None,
        help="per-coordinate divisors (1 = none)",
    )
    sp.add_argument(
        "--residue",
        metavar="A1:B1,...,AR:BR",
        default=None,
        help="per-coordinate congruences x_i = B_i mod A_i (1:0 = none)",
    )


# ---------------------------------------------------------------------------
# constant


def cmd_constant(args: argparse.Namespace) -> int:
    constraint = _constraint_from_args(args)
    interval = constants.density(constraint, prime_cutoff=args.cutoff)
    emitter = _Emitter(args.format)
    emitter.emit(
        [
            ("constraint", constraint.describe()),
            ("lo", interval.lo),
            ("hi", interval.hi),
            ("midpoint", interval.mid),
        ]
    )
    return 0


# ---------------------------------------------------------------------------
# count


def cmd_count(args: argparse.Namespace) -> int:
    constraint = _constraint_from_args(args)
    if args.n < 0:
        raise ValueError(f"-n must be >= 0, got {args.n}")
    if args.alpha is None:
        box = Box.cube(args.n, args.r)
    else:
        box = Box.from_alpha(args.n, _parse_alpha(args.alpha, args.r))
    method = None if args.method == "auto" else args.method
    result = counting.count_box(box, constraint, method=method)
    emitter = _Emitter(args.format)
    emitter.emit(
        [
            ("count", result.count),
            ("method", result.method),
            ("bounds", list(result.box.bounds)),
            ("constraint", constraint.describe()),
        ]
    )
    return 0


# ---------------------------------------------------------------------------
# verify


@dataclass(frozen=True)
class RowSpec:
    """One verification row: a constraint, a scale, and how to test it."""

    name: str
    constraint: TupleConstraint
    n: int
    tolerance: float
    method: str  # "exact" | "montecarlo"
    samples: int
    seed: int
    confidence: float
    target: constants.Interval | None = None  # overrides the derived constant


def builtin_suite(args: argparse.Namespace) -> list[RowSpec]:
    """The shipped campaign: every density formula at its largest exact scale,
    with Monte Carlo rows where exact counting is out of reach."""

    def exact(name: str, constraint: TupleConstraint) -> RowSpec:
        return RowSpec(
            name,
            constraint,
            args.n,
            args.tolerance,
            "exact",
            args.samples,
            args.seed,
            args.confidence,
        )

    def sampled(name: str, constraint: TupleConstraint) -> RowSpec:
        return RowSpec(
            name,
            constraint,
            args.n,
            args.tolerance,
            "montecarlo",
            args.samples,
            args.seed,
            args.confidence,
        )

    mutual = TupleConstraint.mutual
    pairwise = TupleConstraint.pairwise
    kwise = TupleConstraint.kwise
    return [
        exact("C-r2", mutual(2)),
        exact("C-r3", mutual(3)),
        exact("C-r4", mutual(4)),
        exact("PC-r2", pairwise(2)),
        exact("PC-r3", pairwise(3)),
        sampled("PC-r4", pairwise(4)),
        exact("kC-r3-k2", kwise(3, 2)),
        sampled("kC-r4-k2", kwise(4, 2)),
        sampled("kC-r4-k3", kwise(4, 3)),
        exact("C-r2-coprime-2-3", mutual(2, (CoprimeTo(2), CoprimeTo(3)))),
        exact("C-r2-divisible-2-3", mutual(2, (DivisibleBy(2), DivisibleBy(3)))),
        exact("C-r2-residue-2-3", mutual(2, (Residue(2, 1), Residue(3, 2)))),
        exact("C-r2-residue-4-1", mutual(2, (Residue(4, 2), None))),
        exact("PC-r2-coprime-4-9", pairwise(2, (CoprimeTo(4), CoprimeTo(9)))),
        exact("PC-r2-divisible-4-9", pairwise(2, (DivisibleBy(4), DivisibleBy(9)))),
        exact("PC-r2-residue-4-9", pairwise(2, (Residue(4, 3), Residue(9, 5)))),
        exact("PC-r3-coprime-2-3-5", pairwise(3, (CoprimeTo(2), CoprimeTo(3), CoprimeTo(5)))),
        exact(
            "PC-r3-divisible-2-3-5",
            pairwise(3, (DivisibleBy(2), DivisibleBy(3), DivisibleBy(5))),
        ),
        exact(
            "PC-r3-residue-2-3-5",
            pairwise(3, (Residue(2, 1), Residue(3, 0), Residue(5, 2))),
        ),
    ]


_CAMPAIGN_KEYS = {
    "class",
    "r",
    "k",
    "coprime-to",
    "divisible",
    "residue",
    "n",
    "tolerance",
    "method",
    "samples",
    "seed",
    "confidence",
    "target-lo",
    "target-hi",
}


def rows_from_campaign(path: str, args: argparse.Namespace) -> list[RowSpec]:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, encoding="utf-8") as handle:
            parser.read_file(handle)
    except OSError as exc:
        raise ValueError(f"cannot read campaign file {path!r}: {exc}")
    except configparser.Error as exc:
        raise ValueError(f"malformed campaign file {path!r}: {exc}")

    rows = []
    for section in parser.sections():
        sec = parser[section]
        unknown = sorted(set(sec) - _CAMPAIGN_KEYS)
        if unknown:
            raise ValueError(f"[{section}] has unknown keys: {', '.join(unknown)}")
        if "class" not in sec or "r" not in sec:
            raise ValueError(f"[{section}] needs at least 'class' and 'r'")
        cls = sec["class"].strip()
        if cls not in ("mutual", "pairwise", "kwise"):
            raise ValueError(f"[{section}] has unknown class {cls!r}")
        try:
            r = sec.getint("r")
            k = sec.getint("k") if "k" in sec else None
            n = sec.getint("n") if "n" in sec else args.n
            tolerance = sec.getfloat("tolerance") if "tolerance" in sec else args.tolerance
            samples = sec.getint("samples") if "samples" in sec else args.samples
            seed = sec.getint("seed") if "seed" in sec else args.seed
            confidence = (
                sec.getfloat("confidence") if "confidence" in sec else args.confidence
            )
            target_lo = sec.getfloat("target-lo") if "target-lo" in sec else None
            target_hi = sec.getfloat("target-hi") if "target-hi" in sec else None
        except ValueError as exc:
            raise ValueError(f"[{section}] has a malformed numeric value: {exc}")
        method = sec.get("method", "exact").strip()
        if method not in ("exact", "montecarlo"):
            raise ValueError(f"[{section}] method must be exact or montecarlo, got {method!r}")
        if (target_lo is None) != (target_hi is None):
            raise ValueError(f"[{section}] target-lo and target-hi must be given together")
        target = None
        if target_lo is not None:
            target = constants.Interval(target_lo, target_hi)
        constraint = _build_constraint(
            cls,
            r,
            k,
            coprime_to=sec.get("coprime-to"),
            divisible=sec.get("divisible"),
            residue=sec.get("residue"),
        )
        rows.append(
            RowSpec(section, constraint, n, tolerance, method, samples, seed, confidence, target)
        )
    return rows


def _empirical(row: RowSpec) -> float:
    """The row's exact count ratio or Monte Carlo mean."""
    if row.method == "montecarlo":
        return montecarlo.estimate(
            row.constraint,
            row.n,
            samples=row.samples,
            seed=row.seed,
            confidence=row.confidence,
        ).mean
    box = Box.cube(row.n, row.constraint.r)
    return counting.count_box(box, row.constraint).count / row.n**row.constraint.r


def _tuple_set_key(row: RowSpec) -> tuple:
    """Rows with equal keys name the same tuple set at the same scale and
    method, so they have the same empirical value (a pairwise row is the
    k = 2 k-wise row, a mutual row the k = r one)."""
    c = row.constraint
    key = (c.r, c.effective_k, c.sides, row.n, row.method)
    return key + (row.samples, row.seed) if row.method == "montecarlo" else key


def run_row(row: RowSpec, memo: dict[tuple, float]) -> list[tuple[str, object]]:
    """Evaluate one row; the last pair but one is the verdict.  ``memo`` holds
    the empirical value of each tuple set met so far, keyed by
    ``_tuple_set_key``, so rows naming the same set count or sample it once."""
    base = [("name", row.name), ("constraint", row.constraint.describe())]
    if row.target is not None:
        interval = row.target
    else:
        interval = constants.density(row.constraint)
    key = _tuple_set_key(row)
    if key not in memo:
        memo[key] = _empirical(row)
    empirical = memo[key]
    if row.method == "montecarlo":
        mc = [
            ("mc_samples", row.samples),
            ("mc_seed", row.seed),
            ("mc_confidence", row.confidence),
            ("mc_half_width", montecarlo.hoeffding_half_width(row.samples, row.confidence)),
        ]
    else:
        mc = [
            ("mc_samples", None),
            ("mc_seed", None),
            ("mc_confidence", None),
            ("mc_half_width", None),
        ]
    ok = abs(empirical - interval.mid) <= row.tolerance and interval.width <= row.tolerance
    return base + [
        ("lo", interval.lo),
        ("hi", interval.hi),
        ("midpoint", interval.mid),
        ("n", row.n),
        ("empirical", empirical),
        *mc,
        ("verdict", "PASS" if ok else "FAIL"),
        ("tolerance", row.tolerance),
    ]


def cmd_verify(args: argparse.Namespace) -> int:
    if (args.campaign is None) == (args.suite is None):
        raise ValueError("give exactly one of a campaign file or --suite")
    if args.suite is not None:
        rows = builtin_suite(args)
    else:
        rows = rows_from_campaign(args.campaign, args)
    emitter = _Emitter(args.format)
    memo: dict[tuple, float] = {}
    failed = False
    for row in rows:
        pairs = run_row(row, memo)
        emitter.emit(pairs)
        verdict = dict(pairs)["verdict"]
        failed = failed or verdict == "FAIL"
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# calibrate


def cmd_calibrate(args: argparse.Namespace) -> int:
    """Measure the deterministic statistics that the test suite freezes.

    Everything here is an exact count or sum, so reruns on any machine give
    the same numbers; the frozen copy lives in tests/data/calibration.json
    and is asserted against with x1.5 headroom.
    """
    from math import log

    def ratios(constraint: TupleConstraint, ns: tuple[int, ...]) -> dict:
        reports = discrepancy.rate_scan(ns, constraint)
        return {"ns": list(ns), "ratios": [rep.rate_ratio for rep in reports]}

    # at r = 2 the mutual and pairwise classes are one set of tuples
    rate_r2 = ratios(TupleConstraint.mutual(2), (256, 512, 1024, 2048))
    out: dict = {
        "rate_mutual_r2": rate_r2,
        "rate_mutual_r3": ratios(TupleConstraint.mutual(3), (64, 128, 256)),
        "rate_pairwise_r2": rate_r2,
    }

    gcd_ns = (1024, 4096)
    out["gcd_sum_normalized"] = {
        "ns": list(gcd_ns),
        "target": 0.6079,
        "values": [
            counting.weighted_sum_gcd(n, (1, 1)) / (n * n * log(n)) for n in gcd_ns
        ],
    }
    lcm_target = constants.zeta(3).mid / (4.0 * constants.zeta(2).mid)
    out["lcm_sum_deviation"] = {
        "ns": list(gcd_ns),
        "target": lcm_target,
        "values": [
            abs(counting.weighted_sum_lcm(n, (1, 1)) / n**4 - lcm_target) * n / log(n)
            for n in gcd_ns
        ],
    }
    cdf_ns = (256, 1024)
    out["cdf_gcd_times_log"] = {
        "ns": list(cdf_ns),
        "step": 8,
        "values": [discrepancy.measure_cdf_error("gcd", n, 8) * log(n) for n in cdf_ns],
    }
    out["cdf_lcm_times_n_over_log"] = {
        "ns": list(cdf_ns),
        "step": 8,
        "values": [
            discrepancy.measure_cdf_error("lcm", n, 8) * n / log(n) for n in cdf_ns
        ],
    }
    sys.stdout.write(json.dumps(out, indent=2) + "\n")
    return 0


# ---------------------------------------------------------------------------
# discrepancy


def cmd_discrepancy(args: argparse.Namespace) -> int:
    emitter = _Emitter(args.format)
    if args.measure is not None:
        if args.n is None:
            raise ValueError("--measure needs -n")
        error = discrepancy.measure_cdf_error(args.measure, args.n, args.step)
        emitter.emit(
            [
                ("kind", args.measure),
                ("n", args.n),
                ("step", args.step),
                ("max_error", error),
            ]
        )
        return 0

    if args.cls is None or args.r is None:
        raise ValueError("a discrepancy scan needs --class and -r")
    constraint = _constraint_from_args(args)
    if args.scan is not None:
        ns = _parse_ints(args.scan, "--scan")
    elif args.n is not None:
        ns = (args.n,)
    else:
        raise ValueError("give -n or --scan")
    if any(n < 1 for n in ns):
        raise ValueError("scan scales must be >= 1")
    for report in discrepancy.rate_scan(tuple(ns), constraint):
        emitter.emit(
            [
                ("constraint", constraint.describe()),
                ("n", report.n),
                ("value", report.value),
                ("argmax", list(report.argmax)),
                ("flag", report.flag),
                ("total", report.total),
                ("rate_ratio", report.rate_ratio),
            ]
        )
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coprime-lab",
        description="Density constants, exact counts, and verification for "
        "coprime tuple classes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("constant", help="rigorous enclosure of a density constant")
    _add_constraint_flags(sp)
    sp.add_argument(
        "--cutoff",
        type=int,
        default=constants.DEFAULT_PRIME_CUTOFF,
        help="prime cutoff for Euler products (default %(default)s)",
    )
    sp.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")
    sp.set_defaults(func=cmd_constant)

    sp = sub.add_parser("count", help="exact count of constrained tuples in a box")
    _add_constraint_flags(sp)
    sp.add_argument("-n", type=int, required=True, help="ambient scale")
    sp.add_argument(
        "--alpha",
        default=None,
        metavar="A1,...,AR",
        help="box side fractions in [0,1] (rationals; default all 1)",
    )
    sp.add_argument(
        "--method",
        choices=("auto", "mobius", "bruteforce", "toth"),
        default="auto",
    )
    sp.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")
    sp.set_defaults(func=cmd_count)

    sp = sub.add_parser("verify", help="run a verification campaign")
    sp.add_argument("campaign", nargs="?", default=None, help="campaign file (INI stanzas)")
    sp.add_argument(
        "--suite",
        choices=("paper",),
        default=None,
        help="run the built-in campaign instead of a file",
    )
    sp.add_argument("-n", type=int, default=DEFAULT_VERIFY_N, help="default scale per row")
    sp.add_argument(
        "--tolerance", type=float, default=DEFAULT_TOLERANCE, help="default tolerance per row"
    )
    sp.add_argument(
        "--samples", type=int, default=DEFAULT_MC_SAMPLES, help="Monte Carlo sample count"
    )
    sp.add_argument("--seed", type=int, default=DEFAULT_MC_SEED, help="Monte Carlo seed")
    sp.add_argument(
        "--confidence",
        type=float,
        default=DEFAULT_MC_CONFIDENCE,
        help="Monte Carlo confidence level",
    )
    sp.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser(
        "calibrate", help="measure the deterministic statistics frozen by the tests"
    )
    sp.set_defaults(func=cmd_calibrate)

    sp = sub.add_parser("discrepancy", help="sup-discrepancy scans and measure errors")
    _add_constraint_flags(sp, required=False)
    sp.add_argument("-n", type=int, default=None, help="single scale")
    sp.add_argument("--scan", default=None, metavar="N1,N2,...", help="scales to scan")
    sp.add_argument(
        "--measure",
        choices=("gcd", "lcm"),
        default=None,
        help="report the sup CDF error of a weighted measure instead",
    )
    sp.add_argument("--step", type=int, default=8, help="grid step for --measure")
    sp.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")
    sp.set_defaults(func=cmd_discrepancy)

    return parser


def main(argv: list[str] | None = None) -> int:
    if hasattr(sys.stdout, "reconfigure"):
        sys.stdout.reconfigure(encoding="utf-8")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # inside the try, so a closed pipe is reported here
        return code
    except UnsupportedError as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return 3
    except CapacityError as exc:
        print(f"capacity: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout (``| head``); point it at devnull so the
        # flush at interpreter exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
