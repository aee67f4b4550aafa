"""Seeded request generator and response checks for the three workloads.

A workload is a fixed list of request slots, run in cycles.  The slot list
fixes each request's subcommand, size and intended outcome; the seed picks
the points, periods, offsets and coefficients.  Fixing the mix per cycle
keeps run-to-run spread low while every seed gives different inputs.

* ``certify``: ``certify`` on wide sets (windows of width 16-64, all three
  local modes) and on periodic descriptors (``--mode global``, period up to
  11).  Fresh inputs every cycle; the time is in window-count scans.
* ``recover``: ``reconstruct`` on unsigned samples of seeded splines: unique
  (nonseparable), ambiguous (separable) and underdetermined inputs.  Fresh
  points from a fine grid every cycle, so the B-spline cache rarely hits.
* ``refute``: ``oracle``, ``counterexample`` and ``frame-check`` on subsets of
  one shared coarse grid.  The same inputs repeat every cycle, so the
  retrieval caches hit heavily after the first.

Each cycle is laid out by cost so that both reported percentiles fall inside
a block of requests of neighbouring sizes, never on a gap between two
shapes, where a small change in the run would make them jump:

    cheapest 35% | median block 30% | 15% | 90th-percentile block 15% | top 5%

(``refute`` shifts these shares, see its pool.)  Within a block the sizes step gently, so the percentile moves smoothly,
not in one jump, when the machine's speed changes during a run.

Every request carries the exit code its construction predicts and a check
of its response against ``reference``, which never calls the library.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Callable, Dict, List, Optional, Tuple

import reference as ref

F = Fraction
NAMES = ("certify", "recover", "refute")


@dataclass
class Request:
    """One CLI call: arguments (without ``--input``), input payload, expectations."""

    key: str
    argv: List[str]
    payload: Dict
    expect_code: int
    check: Callable[[Dict], Optional[str]]
    sizes: Dict[str, int] = field(default_factory=dict)
    digest: bool = True


def build(name: str, seed: int):
    """The workload ``name`` for ``seed``: an object whose ``cycle(i)`` lists requests."""
    return {"certify": Certify, "recover": Recover, "refute": Refute}[name](seed)


def _rng(*parts) -> random.Random:
    return random.Random(":".join(str(p) for p in parts))


def _text(x: Fraction) -> str:
    return str(F(x))


def _sample_set(points, window) -> Dict:
    return {"window": list(window), "points": [_text(p) for p in points]}


def _unit_points(rng: random.Random, unit: int, count: int, den: int) -> List[Fraction]:
    return [unit + F(j, den) for j in rng.sample(range(1, den), count)]


def _expect_equal(expected: Dict) -> Callable[[Dict], Optional[str]]:
    def check(resp: Dict) -> Optional[str]:
        return None if resp == expected else "expected %s" % json.dumps(expected, sort_keys=True)

    return check


# ---------------------------------------------------------------------------
# Sets with a planned first violation
# ---------------------------------------------------------------------------

# Extra points in the first and last unit that each mode's boundary
# conditions need, on top of the per-unit base count.
_BASE = {"phaseless": 2, "almost": 1, "sampling": 1}


def _extras(mode: str, m: int) -> Tuple[int, int]:
    return {"phaseless": (m + 1, m + 1), "almost": (0, m - 1), "sampling": (0, m)}[mode]


def _deficit_units(mode: str, m: int) -> int:
    return {"phaseless": 2, "almost": m, "sampling": m + 1}[mode]


def local_points(rng, mode: str, w: int, m: int, kind: str, t: float, den: int) -> List[Fraction]:
    """Points in [0, w] that pass ``mode`` or fail it in the planned place.

    ``interior``: a dense prefix up to unit u0 (placed at fraction t of the
    window) gives every earlier window slack, and one point fewer in the
    units after u0 makes the first violation start at u0, so the scan cost
    grows with t.  ``boundary``: the last unit is thinned so only the
    suffix conditions fail, after a full interior scan.  ``cardinality``:
    too few points in total.
    """
    counts = [_BASE[mode]] * w
    left, right = _extras(mode, m)
    counts[0] += left
    counts[-1] += right
    right_end = mode == "almost"
    if kind == "interior":
        deficit = _deficit_units(mode, m)
        u0 = 1 + round(t * (w - deficit - 2))
        for u in range(u0):
            counts[u] += 1
        for u in range(u0, u0 + deficit):
            counts[u] -= 1
    elif kind == "boundary":
        keep = 0 if mode == "sampling" else 1
        moved = counts[-1] - keep + (1 if right_end else 0)
        counts[-1] = keep
        counts[0] += moved
        right_end = False
    points = [p for u in range(w) for p in _unit_points(rng, u, counts[u], den)]
    if mode == "almost":
        points.append(F(0))
        if right_end:
            points.append(F(w))
    points.sort()
    if kind == "cardinality":
        card = ref.BOUNDS[mode][0](w, m)
        points = sorted(rng.sample(points, card - 1 - rng.randrange(3)))
    return points


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------


def _check_global(expect: bool, desc: ref.Periodic):
    def check(resp: Dict) -> Optional[str]:
        if resp.get("verdict") is not expect:
            return "expected verdict %s" % expect
        if expect:
            return None if resp.get("violated") is None else "passing report carries a violation"
        v = resp.get("violated") or {}
        if v.get("condition") != "P1":
            return "expected a P1 violation, got %r" % v.get("condition")
        a, b = v["params"]["n1"], v["params"]["n2"]
        got = desc.open_count(a, b)
        if v.get("observed") != got or v.get("required") != 2 * (b - a) - 1 or got >= 2 * (b - a) - 1:
            return "P1 witness (%d, %d) does not hold: %d points inside" % (a, b, got)
        return None

    return check


class Certify:
    """Local certifiers on widths 16-64 and the global certifier on periods up to 11."""

    # (mode, width, kind, degree, position of an interior failure)
    LOCAL = (
        [  # cheapest
            ("sampling", 16, "pass", 1, 0.0),
            ("almost", 16, "interior", 3, 0.3),
            ("phaseless", 16, "boundary", 2, 0.0),
            ("sampling", 20, "interior", 2, 0.6),
            ("almost", 20, "boundary", 1, 0.0),
            ("phaseless", 20, "interior", 1, 0.8),
            ("sampling", 24, "boundary", 3, 0.0),
            ("almost", 24, "pass", 2, 0.0),
            ("sampling", 40, "cardinality", 2, 0.0),
            ("almost", 40, "cardinality", 2, 0.0),
            ("phaseless", 40, "cardinality", 2, 0.0),
        ]
        + [("phaseless", w, "pass", 2, 0.0) for w in range(24, 36)]  # median block
        + [
            ("sampling", 52, "pass", 1, 0.0),
            ("almost", 52, "boundary", 2, 0.0),
            ("phaseless", 48, "interior", 3, 0.6),
            ("sampling", 56, "interior", 2, 0.5),
        ]
        + [("phaseless", w, "pass", 2, 0.0) for w in range(46, 52)]  # 90th-percentile block
        + [("phaseless", 64, "pass", 3, 0.0)]
    )
    # (period, kind): "pass" and "add" have more than two points per unit and
    # pass; "remove" drops one point of such a pattern, which still passes;
    # "hole" empties one unit interval and fails P1 there; "dense" has
    # fewer than two points per unit and fails P1 at once.  Periods 2-4 are
    # among the cheapest requests, 7 and 9 between the blocks, 11 on top.
    GLOBAL = [(2, "pass"), (3, "remove"), (4, "dense"), (7, "pass"), (9, "hole"), (11, "add")]

    def __init__(self, seed: int):
        self.seed = seed

    def cycle(self, index: int) -> List[Request]:
        out = []
        for slot, (mode, w, kind, m, t) in enumerate(self.LOCAL):
            rng = _rng("certify", self.seed, index, slot)
            points = local_points(rng, mode, w, m, kind, t, 64)
            expected = ref.first_violation(points, (0, w), m, mode)
            out.append(Request(
                "local-%d" % slot,
                ["certify", "--m", str(m), "--mode", mode],
                _sample_set(points, (0, w)),
                0 if expected is None else 1,
                _expect_equal({"verdict": expected is None, "violated": expected}),
                {"sequences.w": w},
            ))
        for slot, (period, kind) in enumerate(self.GLOBAL):
            rng = _rng("certify-global", self.seed, index, slot)
            m = 1 + slot % 3
            payload, desc, expect = self._descriptor(rng, period, kind)
            out.append(Request(
                "global-%d" % slot,
                ["certify", "--m", str(m), "--mode", "global"],
                payload,
                0 if expect else 1,
                _check_global(expect, desc),
                {"sequences.P": period},
            ))
        return out

    @staticmethod
    def _descriptor(rng, P: int, kind: str):
        if kind == "dense":
            q = rng.choice([q for q in range(P + 1, 2 * P) if gcd(P, q) == 1])
        else:
            q = rng.choice([q for q in (2 * P + 1, 2 * P + 3) if gcd(P, q) == 1])
        alpha = F(P, q)
        beta = alpha * F(rng.randrange(16), 16)
        offsets = sorted((alpha * i + beta) % P for i in range(q))
        lo, hi = 0, 2 * P
        periodic = ref.Periodic(P, offsets)
        edits: List[Tuple[str, Fraction]] = []
        if kind == "remove":
            inside = [k * P + o for k in range(0, 3) for o in offsets if lo <= k * P + o <= hi]
            edits = [("remove", rng.choice(inside))]
        elif kind == "hole":
            edits = [("remove", x) for x in sorted(P + o for o in offsets) if P < x < P + 1]
        elif kind == "add":
            while len(edits) < 3:
                x = F(rng.randrange(1, 64 * hi), 64)
                if not periodic.periodic_contains(x) and ("add", x) not in edits:
                    edits.append(("add", x))
            edits.sort()
        desc = ref.Periodic(P, offsets, edits)
        if kind == "dense":
            expect = False
        elif kind in ("remove", "hole"):
            # Windows away from the removed points keep the pattern's slack of
            # at least width/P points, so a violation needs width < removed*P.
            reach = len(edits) * P + 1
            expect = desc.p1_violation(lo - reach, hi + reach, reach) is None
        else:
            expect = True
        payload = {
            "period": P,
            "offsets": [_text(o) for o in offsets],
            "edits": [{"op": op, "point": _text(x)} for op, x in edits],
            "edit_window": [lo, hi],
        }
        return payload, desc, expect


# ---------------------------------------------------------------------------
# recover
# ---------------------------------------------------------------------------


def _spline_coeffs(rng, size: int, m: int, window, separable: bool) -> List[Fraction]:
    if separable:
        coeffs = [F(0)] * size
        coeffs[0] = F(rng.choice([1, 2, 3, -1, -2]))
        for i in range(m + 1, size):
            coeffs[i] = F(rng.randint(-3, 3))
        coeffs[-1] = F(rng.choice([1, 2, -1, -3]))
        return coeffs
    while True:
        coeffs = [F(rng.randint(-3, 3)) for _ in range(size)]
        if any(coeffs) and not ref.is_separable(coeffs, m, window):
            return coeffs


def _check_recovery(points, values, m, window, source, status, source_listed):
    # Sparse basis rows: each point meets at most m+1 shifts.  An
    # underdetermined input returns sample members of each solution family,
    # so its source need not be listed.
    rows = [[(j, b) for j, b in enumerate(ref.basis_row(m, window, x)) if b] for x in points]
    want = ref.canonical(source)
    start = window[0] - m

    def check(resp: Dict) -> Optional[str]:
        if resp.get("status") != status:
            return "expected status %s, got %r" % (status, resp.get("status"))
        sols = []
        for s in resp["solutions"]:
            if s["m"] != m or s["start"] != start or s["window"] != list(window):
                return "solution has the wrong degree, start or window"
            coeffs = [F(c) for c in s["coeffs"]]
            for row, v in zip(rows, values):
                if abs(sum(coeffs[j] * b for j, b in row)) != v:
                    return "a solution does not reproduce the unsigned samples"
            sols.append(ref.canonical(coeffs))
        if status == "unique":
            return None if sols == [want] else "unique recovery differs from the source up to sign"
        if source_listed and want not in sols:
            return "source spline missing from the solutions"
        cert = resp.get("certificate")
        if not cert:
            return "ambiguous recovery without a certificate pair"
        pair = [ref.canonical([F(c) for c in f["coeffs"]]) for f in cert]
        return "certificate pair is sign-equal" if pair[0] == pair[1] else None

    return check


class Recover:
    """Sign recovery: unique, ambiguous (separable) and underdetermined inputs."""

    # (kind, window width or point count, degree)
    SLOTS = (
        [  # cheapest
            ("unique", 2, 1),
            ("unique", 2, 2),
            ("unique", 3, 1),
            ("unique", 4, 1),
            ("unique", 3, 2),
            ("ambiguous", 2, 1),
            ("ambiguous", 3, 1),
        ]
        + [("unique", 4, 2), ("unique", 5, 2), ("unique", 4, 3)] * 2  # median block
        + [("unique", 6, 3), ("ambiguous", 5, 3), ("underdetermined", 8, 1)]
        + [("underdetermined", 9, 1)] * 3  # 90th-percentile block
        + [("underdetermined", 10, 1)]
    )

    def __init__(self, seed: int):
        self.seed = seed

    def cycle(self, index: int) -> List[Request]:
        out = []
        for slot, (kind, w, m) in enumerate(self.SLOTS):
            rng = _rng("recover", self.seed, index, slot)
            window = (0, w)
            size = w + m
            if kind == "underdetermined":
                points = sorted(u + F(rng.randrange(1, 256), 256) for u in range(w))
            else:
                points = local_points(rng, "phaseless", w, m, "pass", 0.0, 256)
            while True:
                coeffs = _spline_coeffs(rng, size, m, window, kind == "ambiguous")
                values = [abs(v) for v in ref.spline_values(m, window, coeffs, points)]
                if kind != "underdetermined" or all(values):
                    break
            status = "unique" if kind == "unique" else "ambiguous"
            out.append(Request(
                "%s-%d" % (kind, slot),
                ["reconstruct", "--m", str(m)],
                {"sample_set": _sample_set(points, window), "values": [_text(v) for v in values]},
                0 if status == "unique" else 1,
                _check_recovery(points, values, m, window, coeffs, status, kind != "underdetermined"),
                {"retrieval.E": len(points)},
                digest=False,
            ))
        return out


# ---------------------------------------------------------------------------
# refute
# ---------------------------------------------------------------------------


def _check_counterexample(points, m, window):
    def check(resp: Dict) -> Optional[str]:
        pair = []
        for key in ("f1", "f2"):
            f = resp[key]
            if f["m"] != m or f["window"] != list(window) or f["start"] != window[0] - m:
                return "%s has the wrong degree, start or window" % key
            pair.append([F(c) for c in f["coeffs"]])
        moduli = [[abs(v) for v in ref.spline_values(m, window, c, points)] for c in pair]
        if moduli[0] != moduli[1]:
            return "pair differs in modulus on E"
        if ref.canonical(pair[0]) == ref.canonical(pair[1]):
            return "pair is sign-equal"
        flags = [not ref.is_separable(c, m, window) for c in pair]
        if resp["nonseparable"] != flags or not all(flags):
            return "pair is not a pair of nonseparable splines"
        return None

    return check


class Refute:
    """Oracle, counterexample and frame tests on subsets of a shared grid."""

    DEN = 4
    # (subcommand, window width, degree, planned verdict, points or columns)
    # Once the caches are warm every oracle and counterexample request is a
    # cache hit and among the cheapest, so the cheapest share is larger here
    # (11 of 26) and the median block is made of 8-column frame tests, which
    # have no cache and spend their time in exact ranks.
    POOL = (
        [  # cheapest
            ("oracle", 3, 2, False, 10),
            ("oracle", 2, 3, False, 8),
            ("oracle", 3, 1, True, 9),
            ("oracle", 3, 1, True, 9),
            ("oracle", 4, 1, True, 10),
            ("counterexample", 2, 2, False, 6),
            ("counterexample", 3, 1, False, 8),
            ("counterexample", 4, 1, False, 12),
            ("counterexample", 4, 2, False, 10),
            ("frame-check", 2, 1, True, 5),
            ("frame-check", 2, 2, False, 5),
        ]
        + [  # median block
            ("frame-check", 2, 1, True, 8),
            ("frame-check", 3, 1, True, 8),
            ("frame-check", 3, 1, True, 8),
            ("frame-check", 2, 2, True, 8),
            ("frame-check", 2, 2, True, 8),
            ("frame-check", 4, 1, True, 8),
            ("frame-check", 4, 1, True, 8),
            ("frame-check", 3, 2, True, 8),
        ]
        + [
            ("frame-check", 3, 2, True, 9),
            ("frame-check", 4, 1, True, 9),
        ]
        + [  # 90th-percentile block
            ("frame-check", 4, 1, True, 11),
            ("frame-check", 4, 1, True, 11),
            ("frame-check", 4, 2, True, 11),
            ("frame-check", 3, 2, True, 11),
        ]
        + [("frame-check", 3, 3, True, 11)]
    )

    def __init__(self, seed: int):
        self.requests = [self._request(slot, *spec, seed) for slot, spec in enumerate(self.POOL)]

    def cycle(self, index: int) -> List[Request]:
        return self.requests

    def _request(self, slot, cmd, w, m, verdict, n, seed) -> Request:
        rng = _rng("refute", seed, slot)
        window = (0, w)
        grid = [F(i, self.DEN) for i in range(self.DEN * w + 1)]
        mode = "almost" if cmd == "frame-check" else "phaseless"
        for _ in range(100000):
            points = sorted(rng.sample(grid, n))
            if (ref.first_violation(points, window, m, mode) is None) != verdict:
                continue
            if cmd != "frame-check":
                break
            columns = [ref.basis_row(m, window, x) for x in points]
            matrix = [list(row) for row in zip(*columns)]
            if ref.rank(matrix) == len(matrix):
                break
        else:
            raise RuntimeError("no subset of the grid fits slot %d" % slot)
        if cmd == "frame-check":
            return Request(
                "frame-%d" % slot,
                ["frame-check", "--criterion", "4"],
                {"rows": len(matrix), "cols": n, "entries": [[_text(v) for v in row] for row in matrix]},
                0 if verdict else 1,
                _expect_equal({"criterion": "4", "verdict": verdict}),
                {"frames.cols": n},
            )
        if cmd == "oracle":
            check = _expect_equal({"phaseless": verdict})
            code = 0 if verdict else 1
        else:
            check = _check_counterexample(points, m, window)
            code = 0
        return Request(
            "%s-%d" % (cmd, slot),
            [cmd, "--m", str(m)],
            _sample_set(points, window),
            code,
            check,
            {"retrieval.E": n},
        )
