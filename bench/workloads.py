"""The four benchmark workloads: their inputs, references and output checks.

A workload is a list of jobs, each run in a fresh worker process per pass:
either a list of library calls (``("ops", [...])``) or one ``coprime-lab``
command line (``("cli", argv)``).  Every call or command is one operation.
``check`` receives the outputs of one pass, in operation order, and returns
the indices of the operations that failed, with a reason for each.

Inputs depend on the seed only through small changes of scale and the order
of coordinates, so every seed does the same amount of work.  An operation
marked ``fault`` fails today because of a known defect of the program; it
fails on every seed and counts in ``failed`` without making the run incorrect.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from fractions import Fraction

import oracle


def _constraint(kind: str, r: int, sides=(), k: int | None = None) -> dict:
    spec = {"kind": kind, "r": r, "sides": list(sides) or [None] * r}
    if k is not None:
        spec["k"] = k
    return spec


def _side(kind: str, modulus: int, *rest) -> list | None:
    return None if modulus == 1 else [kind, modulus, *rest]


class Workload:
    name = ""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(f"{self.name}:{seed}")
        self.jobs: list[tuple[str, object]] = []

    def prepare(self) -> None:
        """Compute the references; runs once per benchmark run, untimed."""

    def faults(self) -> set[int]:
        """Indices of operations expected to fail because of a known defect."""
        ops = [op for kind, spec in self.jobs if kind == "ops" for op in spec]
        return {i for i, op in enumerate(ops) if op.get("fault")}

    def check(self, outs: list[dict]) -> dict[int, str]:
        raise NotImplementedError


def _errors(outs: list[dict]) -> dict[int, str]:
    return {i: o["error"] for i, o in enumerate(outs) if "error" in o}


# ---------------------------------------------------------------------------


class PaperCli(Workload):
    """``verify --suite paper`` then ``calibrate``, each as its own process."""

    name = "paper-cli"

    GCD_NS = (1024, 4096)

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        # The inputs are the paper's own campaign; the seed changes nothing.
        self.jobs = [("cli", ["verify", "--suite", "paper"]), ("cli", ["calibrate"])]
        self.verify_stdout: str | None = None

    def prepare(self) -> None:
        phi = oracle.totient_table(max(self.GCD_NS))
        self.gcd_normalized = [
            oracle.gcd_sum(n, n, phi) / (n * n * math.log(n)) for n in self.GCD_NS
        ]

    def check(self, outs: list[dict]) -> dict[int, str]:
        bad = {}
        for i, o in enumerate(outs):
            if o["value"] != 0:
                bad[i] = f"exit code {o['value']}: {o['stderr'][-300:]}"
        for i, checker in enumerate((self._check_verify, self._check_calibrate)):
            if i in bad:
                continue
            try:
                msg = checker(outs[i]["stdout"])
            except (ValueError, KeyError, TypeError) as exc:
                msg = f"unreadable output: {exc!r}"
            if msg:
                bad[i] = msg
        return bad

    def _check_verify(self, stdout: str) -> str | None:
        if self.verify_stdout is None:
            self.verify_stdout = stdout
        elif stdout != self.verify_stdout:
            return "verify stdout differs from the first pass of this run"
        rows = [json.loads(line) for line in stdout.splitlines() if line.strip()]
        if not rows:
            return "verify printed no rows"
        failing = [row["name"] for row in rows if row["verdict"] != "PASS"]
        if failing:
            return f"verify rows not PASS: {failing}"
        return None

    def _check_calibrate(self, stdout: str) -> str | None:
        out = json.loads(stdout)
        gcd = out["gcd_sum_normalized"]
        if gcd["ns"] != list(self.GCD_NS) or gcd["values"] != self.gcd_normalized:
            return f"gcd normalizations {gcd} != totient-form {self.gcd_normalized}"
        # value * n recovered from rate_ratio: the ratio divides by log(n)^(r-1)
        # for the classes whose subset size is 2 (mutual r=2, pairwise r=2).
        for key, log_power in (
            ("rate_mutual_r2", 1),
            ("rate_mutual_r3", 0),
            ("rate_pairwise_r2", 1),
        ):
            for n, ratio in zip(out[key]["ns"], out[key]["ratios"]):
                value_times_n = ratio * math.log(n) ** log_power
                # the left limit toward (1, ..., 1, 1/n) has no points below it
                if value_times_n < 1 - 1e-9:
                    return f"{key} n={n}: discrepancy {value_times_n}/n below the 1/n witness"
        return None


# ---------------------------------------------------------------------------


class SideSweep(Workload):
    """count_mobius over side-condition families on one box per shape.

    The pairwise r=3 cube has volume >= 10^9, so its assignment table is
    built by the first call and reused by every later call on that shape.
    """

    name = "side-sweep"

    SHAPES = (("pairwise", 3), ("mutual", 3), ("pairwise", 2), ("mutual", 2))
    # vectors with every residue tuple counted (moduli <= 6) ...
    VECTORS = ((2, 3, 5), (4, 3, 1), (1, 5, 2))
    # ... and one with moduli up to 10, for CoprimeTo and DivisibleBy only
    WIDE = (7, 8, 9)

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.n = 1008 + self.rng.randrange(-4, 5)
        # r=2 shapes use the first two moduli; the seed orders the coordinates
        self.vectors = {r: [tuple(self.rng.sample(v[:r], r)) for v in self.VECTORS] for r in (2, 3)}
        self.wide = {r: tuple(self.rng.sample(self.WIDE[:r], r)) for r in (2, 3)}
        self.ops: list[dict] = []
        self.tags: list[tuple] = []
        for kind, r in self.SHAPES:
            self._add(("base", kind, r), kind, r, ())
            for vi, mods in enumerate(self.vectors[r]):
                for side in ("coprime", "divisible"):
                    self._add((side, kind, r, vi), kind, r, [_side(side, a) for a in mods])
                for res in itertools.product(*(range(a) for a in mods)):
                    sides = [_side("residue", a, b) for a, b in zip(mods, res)]
                    self._add(("residue", kind, r, vi, res), kind, r, sides)
            mods = self.wide[r]
            self._add(("coprime-wide", kind, r), kind, r, [_side("coprime", a) for a in mods])
            self._add(("divisible-wide", kind, r), kind, r, [_side("divisible", a) for a in mods])
            for ds, _ in self._signed_divisors(mods):
                if any(d > 1 for d in ds):
                    sides = [_side("divisible", d) for d in ds]
                    self._add(("divisible-sub", kind, r, ds), kind, r, sides)
        self.jobs = [("ops", self.ops)]

    def _add(self, tag: tuple, kind: str, r: int, sides) -> None:
        self.tags.append(tag)
        self.ops.append(
            {
                "fn": "count_mobius",
                "bounds": [self.n] * r,
                "constraint": _constraint(kind, r, sides),
            }
        )

    @staticmethod
    def _signed_divisors(mods) -> list[tuple[tuple[int, ...], int]]:
        """All (d, mu(d_1)...mu(d_r)) with each d_i a squarefree divisor of mods[i]."""
        per = []
        for a in mods:
            pairs = [(1, 1)]
            for p in range(2, a + 1):
                if a % p == 0 and all(p % q for q in range(2, p)):
                    pairs += [(d * p, -s) for d, s in pairs]
            per.append(pairs)
        return [
            (tuple(d for d, _ in combo), math.prod(s for _, s in combo))
            for combo in itertools.product(*per)
        ]

    def prepare(self) -> None:
        import coprime_lab as cl

        def brute(kind, r, sides):
            c = cl.TupleConstraint(r=r, kind=kind, sides=sides)
            return cl.count_box_bruteforce(cl.Box.cube(self.n, r), c).count

        self.brute_base = {}
        self.brute_wide = {}
        for kind, r in self.SHAPES:
            self.brute_base[kind, r] = brute(kind, r, ())
            sides = tuple(cl.DivisibleBy(a) for a in self.wide[r])
            self.brute_wide[kind, r] = brute(kind, r, sides)

    def check(self, outs: list[dict]) -> dict[int, str]:
        bad = _errors(outs)
        if bad:
            return bad
        val = {tag: o["value"] for tag, o in zip(self.tags, outs)}
        idx = {tag: i for i, tag in enumerate(self.tags)}

        def expect(tag, got, want, what):
            if got != want:
                bad[idx[tag]] = f"{what}: {got} != {want}"

        for kind, r in self.SHAPES:
            base = val["base", kind, r]
            expect(("base", kind, r), base, self.brute_base[kind, r],
                   "unconstrained vs brute force")
            for vi, mods in enumerate(self.vectors[r]):
                tuples = list(itertools.product(*(range(a) for a in mods)))
                res = {t: val["residue", kind, r, vi, t] for t in tuples}
                expect(("residue", kind, r, vi, tuples[0]), sum(res.values()), base,
                       f"sum over residues mod {mods}")
                expect(("divisible", kind, r, vi), val["divisible", kind, r, vi],
                       res[tuples[0]], f"DivisibleBy{mods} vs residue 0")
                units = sum(v for t, v in res.items()
                            if all(math.gcd(b, a) == 1 for a, b in zip(mods, t)))
                expect(("coprime", kind, r, vi), val["coprime", kind, r, vi], units,
                       f"CoprimeTo{mods} vs unit residues")
            mods = self.wide[r]
            expect(("divisible-wide", kind, r), val["divisible-wide", kind, r],
                   self.brute_wide[kind, r], f"DivisibleBy{mods} vs brute force")
            incl_excl = 0
            for ds, sign in self._signed_divisors(mods):
                count = base if all(d == 1 for d in ds) else val["divisible-sub", kind, r, ds]
                incl_excl += sign * count
            expect(("coprime-wide", kind, r), val["coprime-wide", kind, r], incl_excl,
                   f"CoprimeTo{mods} vs inclusion-exclusion over DivisibleBy")
        return bad


# ---------------------------------------------------------------------------


class MultiSubset(Workload):
    """The same boxes through count_box with the Moebius, recursive and
    brute-force methods; no side conditions, no box large enough for the
    assignment cache."""

    name = "multi-subset"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        j = self.rng.randrange(-2, 3)
        pw = ("mobius", "toth", "bruteforce")
        # (class spec, bounds, methods); the first box's first call is the
        # first operation of the pass, and the last box is the smallest.
        self.boxes = [
            (_constraint("pairwise", 4), [22] * 4, pw),
            (_constraint("pairwise", 3), [300 + j] * 3, pw),
            (_constraint("pairwise", 3), self.rng.sample([320, 240, 180], 3), pw),
            (_constraint("kwise", 4, k=3), [100] * 4, ("mobius", "bruteforce")),
            (_constraint("pairwise", 4), [160] * 4, ("toth", "bruteforce")),
            (_constraint("pairwise", 3), self.rng.sample([30, 24, 20], 3), pw),
        ]
        self.ops = []
        self.box_of = []
        for bi, (c, bounds, methods) in enumerate(self.boxes):
            for m in methods:
                self.ops.append({"fn": "count_box", "bounds": bounds, "constraint": c, "method": m})
                self.box_of.append(bi)
        self.jobs = [("ops", self.ops)]

    def prepare(self) -> None:
        self.smallest = oracle.pairwise_count_python(tuple(self.boxes[-1][1]))

    def check(self, outs: list[dict]) -> dict[int, str]:
        bad = _errors(outs)
        for bi in range(len(self.boxes)):
            mine = [i for i, b in enumerate(self.box_of) if b == bi and i not in bad]
            values = {outs[i]["value"] for i in mine}
            if len(values) > 1:
                for i in mine:
                    bad[i] = f"methods disagree on box {self.boxes[bi][1]}: {sorted(values)}"
        for i, b in enumerate(self.box_of):
            if b == len(self.boxes) - 1 and i not in bad and outs[i]["value"] != self.smallest:
                bad[i] = f"{outs[i]['value']} != plain enumeration {self.smallest}"
        return bad


# ---------------------------------------------------------------------------


class MutualScale(Workload):
    """Mutual counts at large n, and the gcd/lcm weighted sums."""

    name = "mutual-scale"

    # count_mobius builds prod N_i(L_i) and its sum in int64: these two fail
    # on every seed (a wrong count, and a ValueError) until that is fixed.
    FAULTS = ((3_000_000,) * 3, (60_000,) * 4)

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        jit = [self.rng.randrange(1000) for _ in range(5)]
        # The r=2 and r=3 boxes share their largest side with the faulty r=3
        # cube, so one sieve of 2^22 entries serves all three in a pass.
        self.boxes = [
            (3_000_000, 3_000_000 - jit[0]),
            (3_000_000, 1_700_000 - jit[1], 1_700_000 - jit[2]),
            (50_000 - jit[3],) * 4,
            *self.FAULTS,
        ]
        self.gcd_n = 100_000 - jit[4]
        self.lcm = [(300 - self.rng.randrange(10), a) for a in (("1", "1"), ("1", "1/2"))]
        self.ops = []
        for bounds in self.boxes:
            op = {
                "fn": "count_mobius",
                "bounds": list(bounds),
                "constraint": _constraint("mutual", len(bounds)),
            }
            if bounds in self.FAULTS:
                op["fault"] = True
            self.ops.append(op)
        self.ops.append({"fn": "weighted_sum_gcd", "n": self.gcd_n, "alpha": ["1", "1"]})
        for n, alpha in self.lcm:
            self.ops.append({"fn": "weighted_sum_lcm", "n": n, "alpha": list(alpha)})
        self.jobs = [("ops", self.ops)]

    def prepare(self) -> None:
        mertens = oracle.mertens_table(max(max(b) for b in self.boxes))
        self.want = [oracle.mutual_count(b, mertens) for b in self.boxes]
        phi = oracle.totient_table(self.gcd_n)
        self.want.append(oracle.gcd_sum(self.gcd_n, self.gcd_n, phi))
        for n, alpha in self.lcm:
            a, b = (int(Fraction(x) * n) for x in alpha)
            self.want.append(oracle.lcm_sum_direct(a, b))

    def check(self, outs: list[dict]) -> dict[int, str]:
        bad = _errors(outs)
        for i, (o, want) in enumerate(zip(outs, self.want)):
            if i not in bad and o["value"] != want:
                bad[i] = f"{self.ops[i]}: {o['value']} != reference {want}"
        return bad


WORKLOADS = {w.name: w for w in (PaperCli, SideSweep, MultiSubset, MutualScale)}
