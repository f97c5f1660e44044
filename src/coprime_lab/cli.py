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


# The per-coordinate side flags, also the campaign keys: (name, side type,
# metavar, help).  Each takes r comma-separated entries, an entry being the
# side type's fields joined by ':'; an entry of modulus 1 means "no condition".
_SIDE_FLAGS = (
    ("coprime-to", CoprimeTo, "A1,...,AR", "per-coordinate coprimality moduli (1 = none)"),
    ("divisible", DivisibleBy, "A1,...,AR", "per-coordinate divisors (1 = none)"),
    (
        "residue",
        Residue,
        "A1:B1,...,AR:BR",
        "per-coordinate congruences x_i = B_i mod A_i (1:0 = none)",
    ),
)


def _parse_sides(r: int, get) -> tuple:
    """The sides named by the side flags, ``get(name)`` giving each flag's
    text or None; () when no entry sets a condition.  ``TupleConstraint``
    checks the moduli and residues."""
    sides: dict[int, object] = {}
    for name, side_type, metavar, _ in _SIDE_FLAGS:
        text = get(name)
        if text is None:
            continue
        parts = text.split(",")
        if len(parts) != r:
            raise ValueError(f"--{name} needs {r} entries, got {len(parts)}")
        for i, part in enumerate(parts):
            try:
                side = side_type(*(int(field) for field in part.split(":")))
            except (TypeError, ValueError):
                raise ValueError(f"--{name} takes {metavar}, got {text!r}")
            if side.modulus == 1 and side.admits(1):  # modulo 1 a side admits all x or none
                continue
            if i in sides:
                raise ValueError(f"coordinate {i + 1} was given two side conditions")
            sides[i] = side
    return tuple(sides.get(i) for i in range(r)) if sides else ()


def _constraint_from_args(args: argparse.Namespace) -> TupleConstraint:
    sides = _parse_sides(args.r, lambda name: getattr(args, name.replace("-", "_")))
    return TupleConstraint(r=args.r, kind=args.cls, k=args.k, sides=sides)


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
    for name, _, metavar, help_text in _SIDE_FLAGS:
        sp.add_argument(f"--{name}", metavar=metavar, default=None, help=help_text)


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

    def __post_init__(self) -> None:
        # checked as each row is made, so a bad row is refused before any row runs
        if self.n < 1:
            raise ValueError(f"[{self.name}] n must be >= 1, got {self.n}")
        if not 0 <= self.tolerance < float("inf"):
            raise ValueError(f"[{self.name}] tolerance must be finite, >= 0, got {self.tolerance}")
        mc = self.method == "montecarlo"
        if mc and self.samples < 100:
            raise ValueError(f"[{self.name}] samples must be >= 100, got {self.samples}")
        if mc and not 0 < self.confidence < 1:
            raise ValueError(f"[{self.name}] confidence must be in (0,1), got {self.confidence}")


def builtin_suite(args: argparse.Namespace) -> list[RowSpec]:
    """The shipped campaign: every density formula at its largest exact scale,
    with Monte Carlo rows where exact counting is out of reach."""

    def row(name: str, constraint: TupleConstraint, method: str = "exact") -> RowSpec:
        common = (args.n, args.tolerance, method, args.samples, args.seed, args.confidence)
        return RowSpec(name, constraint, *common)

    mutual = TupleConstraint.mutual
    pairwise = TupleConstraint.pairwise
    kwise = TupleConstraint.kwise
    return [
        row("C-r2", mutual(2)),
        row("C-r3", mutual(3)),
        row("C-r4", mutual(4)),
        row("PC-r2", pairwise(2)),
        row("PC-r3", pairwise(3)),
        row("PC-r4", pairwise(4), "montecarlo"),
        row("kC-r3-k2", kwise(3, 2)),
        row("kC-r4-k2", kwise(4, 2), "montecarlo"),
        row("kC-r4-k3", kwise(4, 3), "montecarlo"),
        row("C-r2-coprime-2-3", mutual(2, (CoprimeTo(2), CoprimeTo(3)))),
        row("C-r2-divisible-2-3", mutual(2, (DivisibleBy(2), DivisibleBy(3)))),
        row("C-r2-residue-2-3", mutual(2, (Residue(2, 1), Residue(3, 2)))),
        row("C-r2-residue-4-1", mutual(2, (Residue(4, 2), None))),
        row("PC-r2-coprime-4-9", pairwise(2, (CoprimeTo(4), CoprimeTo(9)))),
        row("PC-r2-divisible-4-9", pairwise(2, (DivisibleBy(4), DivisibleBy(9)))),
        row("PC-r2-residue-4-9", pairwise(2, (Residue(4, 3), Residue(9, 5)))),
        row("PC-r3-coprime-2-3-5", pairwise(3, (CoprimeTo(2), CoprimeTo(3), CoprimeTo(5)))),
        row(
            "PC-r3-divisible-2-3-5",
            pairwise(3, (DivisibleBy(2), DivisibleBy(3), DivisibleBy(5))),
        ),
        row(
            "PC-r3-residue-2-3-5",
            pairwise(3, (Residue(2, 1), Residue(3, 0), Residue(5, 2))),
        ),
    ]


_CAMPAIGN_KEYS = {
    "class",
    "r",
    "k",
    "n",
    "tolerance",
    "method",
    "samples",
    "seed",
    "confidence",
    "target-lo",
    "target-hi",
}.union(name for name, *_ in _SIDE_FLAGS)


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
        try:
            r = sec.getint("r")
            k = sec.getint("k")
            n = sec.getint("n", args.n)
            tolerance = sec.getfloat("tolerance", args.tolerance)
            samples = sec.getint("samples", args.samples)
            seed = sec.getint("seed", args.seed)
            confidence = sec.getfloat("confidence", args.confidence)
            target_lo = sec.getfloat("target-lo")
            target_hi = sec.getfloat("target-hi")
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
        sides = _parse_sides(r, sec.get)
        constraint = TupleConstraint(r=r, kind=sec["class"].strip(), k=k, sides=sides)
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
    """Evaluate one row as (key, value) pairs, keys in ``VERIFY_FIELDS`` order.
    ``memo`` holds the empirical value of each tuple set met so far, keyed by
    ``_tuple_set_key``, so rows naming the same set count or sample it once."""
    if row.target is not None:
        interval = row.target
    else:
        interval = constants.density(row.constraint)
    key = _tuple_set_key(row)
    if key not in memo:
        memo[key] = _empirical(row)
    empirical = memo[key]
    if row.method == "montecarlo":
        half_width = montecarlo.hoeffding_half_width(row.samples, row.confidence)
        mc = (row.samples, row.seed, row.confidence, half_width)
    else:
        mc = (None,) * 4
    ok = abs(empirical - interval.mid) <= row.tolerance and interval.width <= row.tolerance
    values = (
        row.name,
        row.constraint.describe(),
        interval.lo,
        interval.hi,
        interval.mid,
        row.n,
        empirical,
        *mc,
        "PASS" if ok else "FAIL",
        row.tolerance,
    )
    return list(zip(VERIFY_FIELDS, values, strict=True))


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
