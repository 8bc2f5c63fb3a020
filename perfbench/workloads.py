"""Seeded inputs and output checks for the three workloads.

Every input is made from the workload seed alone.  Every check compares a
program output with a route that does not go through the homology engine
(the torus recursion `fk_upsilon`, the staircase closed forms, the thin and
pretzel closed forms) or with a property the value must have (unions never
exceed their parts, translation shifts by exactly its amount, ...).  No check
compares against a stored copy of an earlier output.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction

from upsilonkit import complexes, invariants, regions, zoo

HERE = os.path.dirname(os.path.abspath(__file__))

# The headline sum of the paper: its upsilon equals the trefoil's, yet the
# secondary invariants tell it apart from every thin knot.
HEADLINE = ((1, 8, 5), (-1, 6, 5), (-1, 4, 3))
HEADLINE_TEXT = "T(8,5) # -T(6,5) # -T(4,3)"


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def frac(x: Fraction) -> str:
    return str(Fraction(x))


# ---------------------------------------------------------------------------
# Independent routes
# ---------------------------------------------------------------------------


def fk_sum(parts) -> regions.PLFunction:
    """Upsilon of a signed sum of torus knots by the torus recursion,
    additivity under connected sum and antisymmetry under mirroring."""
    total = regions.pl_constant(0)
    for sign, p, q in parts:
        total = regions.pl_add(total, regions.pl_negate_scale(zoo.fk_upsilon(p, q), sign))
    return total


def torus_jumps(p: int, q: int) -> tuple[int, ...]:
    return zoo.jumps_from_semigroup(zoo.semigroup_from_generators((p, q)))


def positive_jumps(f: regions.PLFunction) -> list[tuple[Fraction, Fraction]]:
    return [(t, j) for t, j in regions.pl_singular_points(f) if j > 0]


def torus_text(parts) -> str:
    return " # ".join(f"{'-' if s < 0 else ''}T({p},{q})" for s, p, q in parts)


def build_torus_sum(parts) -> complexes.KnotComplex:
    k = None
    for sign, p, q in parts:
        c = zoo.torus_knot(p, q)
        if sign < 0:
            c = complexes.mirror(c)
        k = c if k is None else complexes.tensor(k, c)
    return k


# ---------------------------------------------------------------------------
# sums: cold curves and Kim-Livingston values of distinct connected sums
# ---------------------------------------------------------------------------


def sums_round(seed: int) -> list[dict]:
    """One sum from each cost stratum of `sums_strata.json`, in seeded order.

    A stratum holds sums whose operation cost was alike when the strata were
    made, so that the seed changes which sums run but hardly the total work.
    """
    with open(os.path.join(HERE, "sums_strata.json")) as fh:
        strata = json.load(fh)["strata"]
    rng = rng_for("sums", seed)
    ops = [dict(rng.choice(stratum)) for stratum in strata]
    rng.shuffle(ops)
    return ops


def check_sums_op(op: dict, value) -> str | None:
    """None if the value is right, else a message."""
    parts = [tuple(p) for p in op["parts"]]
    if op["kind"] == "curve":
        curve, bps = value
        expected = fk_sum(parts)
        if curve != expected:
            return f"curve of {torus_text(parts)} differs from the torus recursion"
        got = [(bp.t, bp.jump) for bp in bps]
        if got != positive_jumps(expected):
            return f"breaking points of {torus_text(parts)} differ from the recursion's"
        return None
    p, q = op["summand"]
    t = Fraction(op["t"])
    expected = invariants.staircase_kl(torus_jumps(p, q), t, t)
    if value != expected:
        return f"kl of {torus_text(parts)} at {t}: {value!r} != staircase_kl {expected}"
    return None


# ---------------------------------------------------------------------------
# session: one-region queries against the warmed headline sum
# ---------------------------------------------------------------------------


def _rat(rng: random.Random, lo, hi, max_den: int = 40) -> Fraction:
    while True:
        den = rng.randint(3, max_den)
        x = Fraction(rng.randint(int(lo * den) - 1, int(hi * den) + 1), den)
        if lo < x < hi:
            return x


def region_from_spec(spec):
    """Build a region from a JSON-able spec such as ["union", ["H", "1/3"], ...]."""
    kind = spec[0]
    if kind == "H":
        return regions.upsilon_halfplane(Fraction(spec[1]))
    if kind == "Q":
        return regions.v_region(Fraction(spec[1]))
    if kind == "hp":
        return regions.make_halfplane(*(Fraction(x) for x in spec[1:]))
    if kind == "trunc":
        return regions.truncate(region_from_spec(spec[1]), Fraction(spec[2]))
    if kind == "translate":
        return regions.translate(region_from_spec(spec[1]), Fraction(spec[2]))
    if kind == "union":
        return regions.union(region_from_spec(spec[1]), region_from_spec(spec[2]))
    if kind == "meet":
        return regions.intersect(region_from_spec(spec[1]), region_from_spec(spec[2]))
    raise ValueError(f"unknown region spec {spec!r}")


# Query mix of one session round: (kind, count).
SESSION_MIX = (
    ("H", 8), ("Q", 4), ("hp", 4), ("trunc", 4), ("union", 4), ("meet", 2),
    ("translate", 4), ("vk", 6), ("eta", 2), ("secondary", 4),
)


def session_round(seed: int) -> list[dict]:
    """A seeded stream of distinct queries.

    The i-th of the n queries of a kind draws its main parameter from the i-th
    of n equal slices of its range, so that every seed sees the same spread of
    query costs.  No two queries, nor the regions they evaluate on the way,
    coincide, so no query is answered from a cache that an earlier query of
    the round filled.
    """
    rng = rng_for("session", seed)
    used: set = set()

    def fresh(make):
        while True:
            spec = make()
            region = region_from_spec(spec)
            if region not in used:
                used.add(region)
                return spec

    def within(lo, hi, i, n, max_den=40):
        step = Fraction(hi - lo, n)
        return frac(_rat(rng, lo + i * step, lo + (i + 1) * step, max_den))

    def h(i, n):
        return ["H", within(0, 2, i, n)]

    def hp(i, n):
        return ["hp", str(rng.randint(0, 4)), str(rng.randint(1, 4)), within(-6, 6, i, n, 6)]

    makers = {
        "H": lambda i, n: h(i, n),
        "Q": lambda i, n: ["Q", within(-20, 20, i, n, 7)],
        "hp": hp,
        "trunc": lambda i, n: ["trunc", h(i, n), within(-8, 16, n - 1 - i, n, 5)],
        "union": lambda i, n: ["union", h(i, n), rng.choice((h, hp))(n - 1 - i, n)],
        "meet": lambda i, n: ["meet", h(i, n), ["Q", within(-10, 20, i, n, 7)]],
        "translate": lambda i, n: ["translate", rng.choice((h, hp))(i, n),
                                   within(-3, 3, n - 1 - i, n, 9)],
        "eta": lambda i, n: h(i, n),
    }
    queries = []
    for kind, n in SESSION_MIX:
        for i in range(n):
            if kind in ("H", "Q", "hp", "trunc", "union", "meet", "translate"):
                queries.append({"kind": "region", "form": kind,
                                "region": fresh(lambda: makers[kind](i, n))})
            elif kind == "eta":
                queries.append({"kind": "eta", "region": fresh(lambda: makers[kind](i, n))})
            elif kind == "vk":
                lo, hi = -6 + 38 * i // n, -6 + 38 * (i + 1) // n
                s = rng.choice([s for s in range(lo, hi) if regions.v_region(s) not in used])
                used.add(regions.v_region(s))
                queries.append({"kind": "vk", "s": s})
            elif kind == "secondary":
                # t* = 1 is the one kink of T(8,5) where both mirrored
                # summands are smooth; delta stays below every kink gap.
                while True:
                    delta = Fraction(1, rng.randint(7200, 9000))
                    plus = regions.upsilon_halfplane(1 + delta)
                    minus = regions.upsilon_halfplane(1 - delta)
                    if plus not in used and minus not in used:
                        break
                used.update((plus, minus))
                queries.append({"kind": "secondary", "delta": frac(delta),
                                "s": within(0, 2, i, n)})
    rng.shuffle(queries)
    return queries


def check_session(k, queries: list[dict], values: list, nu_plus: int) -> list[str]:
    """Check every query of a round; extra engine calls here are untimed."""
    problems = []
    fk = fk_sum(HEADLINE)
    value_of = lambda spec: invariants.upsilon_region(k, region_from_spec(spec))
    vks = []
    for query, value in zip(queries, values):
        kind = query["kind"]
        if kind == "region":
            spec = query["region"]
            form = query["form"]
            if form == "H" and value != -regions.pl_eval(fk, Fraction(spec[1])) / 2:
                problems.append(f"H({spec[1]}) = {value} is not -1/2 of the torus recursion")
            elif form == "union" and value > min(value_of(spec[1]), value_of(spec[2])):
                problems.append(f"union {spec} exceeds the smaller of its parts")
            elif form == "meet" and value < max(value_of(spec[1]), value_of(spec[2])):
                problems.append(f"intersection {spec} is below the larger of its parts")
            elif form == "translate" and value != value_of(spec[1]) - Fraction(spec[2]):
                problems.append(f"translate {spec} does not lower the value by exactly c")
            elif form == "trunc" and value < value_of(spec[1]):
                problems.append(f"truncation {spec} lowered the value")
        elif kind == "vk":
            vks.append((query["s"], value))
        elif kind == "eta":
            c = region_from_spec(query["region"])
            if invariants.upsilon_region(k, regions.truncate(c, value)) != \
                    invariants.upsilon_region(k, c):
                problems.append(f"truncating {query['region']} at eta {value} changed its value")
        elif kind == "secondary":
            expected = invariants.staircase_kl(torus_jumps(8, 5), 1, Fraction(query["s"]))
            kink = -regions.pl_eval(fk, 1) / 2
            got = value if isinstance(value, invariants.NoObstructionType) else -2 * (value - kink)
            if got != expected:
                problems.append(f"secondary at t*=1, s={query['s']}: {got!r} != "
                                f"staircase_kl of T(8,5) {expected}")
    vks.sort()
    for (s0, v0), (s1, v1) in zip(vks, vks[1:]):
        if v1 < v0:
            problems.append(f"V({s1}) = {v1} < V({s0}) = {v0}")
    for s, v in vks:
        if s >= nu_plus and v != 0:
            problems.append(f"V({s}) = {v} is not 0 at or above nu+ = {nu_plus}")
        if 0 <= s < nu_plus and v >= 0:
            problems.append(f"V({s}) = {v} is 0 below nu+ = {nu_plus}")
    return problems


# ---------------------------------------------------------------------------
# cli: one process per command, every subcommand, small seeded knots
# ---------------------------------------------------------------------------

SMALL_TORUS = ((3, 2), (4, 3), (5, 2), (5, 3), (5, 4), (7, 2), (7, 3), (6, 5), (7, 4))
ALGEBRAIC = ((2, (3,)), (2, (5,)), (3, (4,)), (3, (5,)), (4, (6, 7)), (4, (6, 9)),
             (4, (6, 11)), (4, (10, 11)))


def _size(pq) -> int:
    """Generator count of the T(p,q) staircase: one per jump plus one."""
    return len(torus_jumps(*pq)) + 1


def _jumps(rng: random.Random) -> tuple[int, ...]:
    """A random balanced staircase jump sequence."""
    k = rng.randint(1, 3)
    odd = [rng.randint(1, 3) for _ in range(k)]
    even = [1] * k
    for _ in range(sum(odd) - k):
        even[rng.randrange(k)] += 1
    return tuple(x for pair in zip(odd, even) for x in pair)


def _trefoil_file(names: tuple[str, str, str]) -> dict:
    """The trefoil staircase with its generators x0, y0, x1 renamed."""
    rename = dict(zip(("x0", "y0", "x1"), names))
    data = complexes.to_json_dict(zoo.staircase_from_jumps((1, 1)))
    for g in data["generators"]:
        g["id"] = rename[g["id"]]
    data["arrows"] = [[rename[a], rename[b], m] for a, b, m in data["arrows"]]
    return data


def cli_round(seed: int) -> tuple[list[dict], dict]:
    """The commands of one cli round and the files they read.

    Each command is {"argv", "check"}; "check" says how `check_cli` judges its
    output.  The files are {name: JSON object}, written fresh for every round.
    """
    rng = rng_for("cli", seed)
    pick = lambda: rng.choice(SMALL_TORUS)
    tor = lambda pq: f"T({pq[0]},{pq[1]})"
    files = {}

    box_pq = pick()
    boxed = zoo.torus_knot(*box_pq)
    for _ in range(rng.randint(1, 2)):
        corner = (rng.randint(-3, 3), rng.randint(-3, 3))
        boxed = complexes.add_box(boxed, corner, rng.choice((0, 1, 2)))
    files["boxed.json"] = complexes.to_json_dict(boxed)
    # tensor() names the product of generators g and h "g*h", so these two
    # files both produce a generator named "a*b*c".
    files["a.json"] = _trefoil_file(("a", "a*b", "a2"))
    files["b.json"] = _trefoil_file(("b*c", "c", "c2"))

    def small_sum():
        # At most 35 generators, so that the kernel stays a small share.
        while True:
            a, b = rng.sample(SMALL_TORUS, 2)
            if _size(a) * _size(b) <= 35:
                return [(1, *a), (rng.choice((1, -1)), *b)]

    cmds = []
    add = lambda argv, **check: cmds.append({"argv": argv, "check": check})
    pq = pick()
    add(["upsilon", tor(pq), "--format", "json"], kind="curve", parts=[(1, *pq)])
    parts = small_sum()
    add(["upsilon", torus_text(parts), "--format", "json"], kind="curve", parts=parts)
    jumps = _jumps(rng)
    add(["upsilon", "stair(" + ", ".join(map(str, jumps)) + ")", "--format", "json"],
        kind="stair_curve", jumps=jumps)
    a, qs = rng.choice(ALGEBRAIC)
    add(["upsilon", f"alg({a}; " + ", ".join(map(str, qs)) + ")", "--format", "json"],
        kind="alg_curve", a=a, qs=qs)
    tau = rng.choice([n for n in range(-6, 7) if n])
    add(["upsilon", f"thin({tau})", "--format", "json"], kind="thin_curve", tau=tau)
    add(["upsilon", "file(boxed.json)", "--format", "json"], kind="curve", parts=[(1, *box_pq)])
    pq = pick()
    samples = rng.randint(8, 40)
    add(["upsilon", tor(pq), "--format", "csv", "--samples", str(samples)],
        kind="csv", parts=[(1, *pq)], samples=samples)
    pq, t = pick(), _rat(rng, 0, 2, 12)
    add(["upsilon-at", tor(pq), "--t", frac(t), "--check-oracle", "--format", "json"],
        kind="upsilon_at", parts=[(1, *pq)], t=frac(t))
    pq, t = pick(), _rat(rng, 0, 2, 12)
    add(["region-upsilon", tor(pq), "--region", f"H({frac(t)})", "--check-oracle",
         "--format", "json"], kind="region_h", parts=[(1, *pq)], t=frac(t))
    jumps = _jumps(rng)
    s = rng.randint(-2, sum(jumps) // 2 + 1)
    add(["vk", "stair(" + ", ".join(map(str, jumps)) + ")", "--s", str(s), "--format", "json"],
        kind="vk", jumps=jumps, s=s)
    pq = pick()
    add(["nu-plus", tor(pq), "--format", "json"], kind="nu_plus", pq=pq)
    pq = pick()
    genus = (pq[0] - 1) * (pq[1] - 1) // 2
    surgery = rng.randint(max(1, 2 * genus - 1), 2 * genus + 8)
    m = rng.randint(-(surgery // 2), (surgery - 1) // 2)
    add(["dinv", tor(pq), "--q", str(surgery), "--m", str(m), "--format", "json"],
        kind="dinv", pq=pq, q=surgery, m=m)
    pq = pick()
    add(["eta", tor(pq), "--region", f"H(2/{min(pq)})", "--format", "json"], kind="eta", pq=pq)
    parts = small_sum()
    add(["breaking-points", torus_text(parts), "--format", "json"], kind="breaking", parts=parts)
    pq = pick()
    ts = rng.choice([t for t, _ in positive_jumps(zoo.fk_upsilon(*pq))])
    s = _rat(rng, 0, 2, 12)
    add(["kl", tor(pq), "--t", frac(ts), "--s", frac(s), "--check-oracle", "--format", "json"],
        kind="kl", pq=pq, t=frac(ts), s=frac(s))
    pq = pick()
    ts = rng.choice([t for t, _ in positive_jumps(zoo.fk_upsilon(*pq))])
    s = _rat(rng, 0, 2, 12)
    # Far below every gap between kinks of a small staircase.
    delta = Fraction(1, rng.randint(1000, 2000))
    add(["secondary", tor(pq), "--cplus", f"H({frac(ts + delta)})", "--cminus",
         f"H({frac(ts - delta)})", "--region", f"H({frac(s)})", "--check-oracle",
         "--format", "json"], kind="secondary", pq=pq, t=frac(ts), s=frac(s))
    parts = small_sum()
    add(["validate", torus_text(parts)], kind="validate",
        generators=_size(parts[0][1:]) * _size(parts[1][1:]))
    add(["validate", "--complex-file", "boxed.json"], kind="validate",
        generators=len(boxed.generators))
    add(["thin-check", HEADLINE_TEXT], kind="thin_check")
    q = rng.choice((7, 9, 11, 13))
    add(["pretzel-report", "--q", str(q), "--format", "json"], kind="pretzel", q=q)
    add(["upsilon", "file(a.json) # file(b.json)", "--format", "json"], kind="collision")
    return cmds, files


def _curve_from_json(out: str) -> regions.PLFunction:
    points = json.loads(out)["value"]["breakpoints"]
    return regions.PLFunction(tuple((Fraction(t), Fraction(v)) for t, v in points))


def _rat_from_json(out: str):
    value = json.loads(out)["value"]
    if value == "no-obstruction":
        return invariants.NO_OBSTRUCTION
    return Fraction(value["num"], value["den"])


def check_cli(cmd: dict, out: str) -> str | None:
    """Judge one successful command's stdout; None if right, else a message."""
    c = cmd["check"]
    kind = c["kind"]
    parts = [tuple(p) for p in c.get("parts", ())]
    if kind == "curve":
        ok = _curve_from_json(out) == fk_sum(parts)
    elif kind == "stair_curve":
        ok = _curve_from_json(out) == invariants.staircase_upsilon(tuple(c["jumps"]))
    elif kind == "alg_curve":
        semigroup = zoo.semigroup_from_puiseux(zoo.PuiseuxData(c["a"], tuple(c["qs"])))
        ok = _curve_from_json(out) == invariants.staircase_upsilon(
            zoo.jumps_from_semigroup(semigroup))
    elif kind == "thin_curve":
        tau = c["tau"]
        ok = _curve_from_json(out) == regions.PLFunction(
            ((Fraction(0), Fraction(0)), (Fraction(1), Fraction(-tau)), (Fraction(2), Fraction(0))))
    elif kind == "csv":
        f = fk_sum(parts)
        rows = [line.split(",") for line in out.splitlines() if line and line[0].isdigit()]
        n = c["samples"]
        ok = len(rows) == n + 1 and all(
            abs(float(v) - float(regions.pl_eval(f, Fraction(2 * i, n)))) < 1e-9
            for i, (_, v) in enumerate(rows))
    elif kind == "upsilon_at":
        ok = _rat_from_json(out) == regions.pl_eval(fk_sum(parts), Fraction(c["t"]))
    elif kind == "region_h":
        ok = _rat_from_json(out) == -regions.pl_eval(fk_sum(parts), Fraction(c["t"])) / 2
    elif kind == "vk":
        ok = _rat_from_json(out) == invariants.staircase_vk(tuple(c["jumps"]), c["s"])
    elif kind == "nu_plus":
        jumps = torus_jumps(*c["pq"])
        nu = next(s for s in range(0, 200) if invariants.staircase_vk(jumps, s) == 0)
        ok = _rat_from_json(out) == nu
    elif kind == "dinv":
        q, m = c["q"], c["m"]
        expected = Fraction((q - 2 * m) ** 2 - q, 4 * q) + invariants.staircase_vk(
            torus_jumps(*c["pq"]), m)
        ok = _rat_from_json(out) == expected
    elif kind == "eta":
        p, q = c["pq"]
        expected = zoo.eta_closed_form(zoo.semigroup_from_generators((p, q)), min(p, q))
        ok = _rat_from_json(out) == expected
    elif kind == "breaking":
        got = [(Fraction(b["t"]), Fraction(b["jump"]))
               for b in json.loads(out)["value"]["breaking_points"]]
        ok = got == positive_jumps(fk_sum(parts))
    elif kind == "kl":
        expected = invariants.staircase_kl(torus_jumps(*c["pq"]), Fraction(c["t"]),
                                           Fraction(c["s"]))
        ok = _rat_from_json(out) == expected
    elif kind == "secondary":
        value = _rat_from_json(out)
        expected = invariants.staircase_kl(torus_jumps(*c["pq"]), Fraction(c["t"]),
                                           Fraction(c["s"]))
        kink = -regions.pl_eval(zoo.fk_upsilon(*c["pq"]), Fraction(c["t"])) / 2
        ok = not isinstance(value, invariants.NoObstructionType) and \
            -2 * (value - kink) == expected
    elif kind == "validate":
        ok = out.strip() == f"ok: knot-type complex with {c['generators']} generators"
    elif kind == "thin_check":
        ok = out.strip().splitlines()[-1] == "verdict: obstructed"
    elif kind == "pretzel":
        q = c["q"]
        value = json.loads(out)["value"]
        ok = (Fraction(value["tau"]) == Fraction(q + 3, 2) and value["genus"] == (q + 3) // 2
              and Fraction(value["eta_H_2_3"]["engine"]) == Fraction(q - 3, 3))
    elif kind == "collision":
        # Once the names no longer collide, the value is the sum of the two
        # trefoil curves.
        ok = _curve_from_json(out) == fk_sum([(1, 3, 2), (1, 3, 2)])
    else:
        raise ValueError(f"unknown check {kind!r}")
    return None if ok else f"{' '.join(cmd['argv'])}: output fails the {kind} check"
