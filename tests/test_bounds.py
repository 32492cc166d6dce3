import ast
import math
from pathlib import Path

import numpy as np
import pytest

from nonresidue import bounds
from nonresidue.arith import euler_phi, factorize, primes_up_to
from nonresidue.bounds import (
    BoundReport,
    ap_bound,
    class_number_bounds,
    coset_bound,
    l1_value_bounds,
    subgroup_bound_clean_applicable,
    subgroup_bound_quantities,
    verify_ap,
    verify_classnum,
    verify_coset,
    verify_elementary,
    verify_qnr,
    verify_subgroup,
    verify_subgroup_clean,
)
from nonresidue.characters import kth_power_subgroup, subgroup_from_generators, trivial_subgroup
from nonresidue.lfunctions import EULER_GAMMA
from nonresidue.search import coset_representatives

from helpers import members

SRC = Path(bounds.__file__).resolve().parent


# ----------------------------------------------------------------------
# alternative transcriptions (independently arranged evaluators)
# ----------------------------------------------------------------------


def alt_subgroup_bound(q: int):
    lq = math.log(q)
    ll = math.log(lq)
    s = 0.0
    for p, _ in factorize(q).factors:
        s += math.log(p) / (p - 1)
    a = 2 * ll - 8.0 / 5.0 - s
    if a < 0:
        a = 0.0
    b = 2 * ll + 3 + (2 * len(factorize(q).factors) * ll * ll) / lq - a - a
    if b < 0:
        b = 0.0
    return a, b, lq * lq + 2 * lq * b + b * b  # expanded square


def alt_coset_bound(q: int, h: int):
    lq = math.log(q)
    ll = math.log(lq)
    base = h * lq - lq + 3 * h + 3 + 5 * ll * ll / 2
    return base * base


def alt_ap_bound(q: int):
    t = euler_phi(q) * math.log(q)
    return t * t


def alt_l1_bounds(q: float):
    ll = math.log(math.log(q))
    eg = math.exp(EULER_GAMMA)
    core = ll - math.log(2) + 0.5 + 1 / ll
    return 2 * eg * core, (12 * eg / (math.pi * math.pi)) * (core + 14 * ll / math.log(q))


def alt_class_bounds(q: float):
    up, rec = alt_l1_bounds(q)
    rq = math.sqrt(q)
    # invert through h = sqrt(q) L / pi
    lower = rq / math.pi * (math.pi**2 / (12 * math.exp(EULER_GAMMA))) / (
        math.log(math.log(q)) - math.log(2) + 0.5 + 1 / math.log(math.log(q)) + 14 * math.log(math.log(q)) / math.log(q)
    )
    upper = rq / math.pi * up
    return lower, upper


def test_transcription_audits():
    for q in (3000, 3001, 5000, 20001, 10**6, 10**9):
        vals = subgroup_bound_quantities(q)
        a, b, bound = alt_subgroup_bound(q)
        assert vals.a_term == pytest.approx(a, rel=1e-12, abs=1e-12)
        assert vals.b_term == pytest.approx(b, rel=1e-12, abs=1e-12)
        assert vals.bound == pytest.approx(bound, rel=1e-12)
        # the clean branch bound, rearranged through exp/log
        assert math.log(q) ** 2 == pytest.approx(
            math.exp(2 * math.log(math.log(q))), rel=1e-13
        )
        for h in (2, 3, 10):
            assert coset_bound(q, h) == pytest.approx(alt_coset_bound(q, h), rel=1e-12)
        if q <= 10**6:
            assert ap_bound(q) == pytest.approx(alt_ap_bound(q), rel=1e-12)
        # elementary verdicts, log-domain rearrangement
        fac = factorize(q)
        holds = {r.target: r.margin >= 0 for r in verify_elementary(q)}
        assert holds["2^omega<=q^(3/7)"] == (7 * fac.omega * math.log(2) <= 3 * math.log(q))
        assert holds["phi>=q^(5/6)"] == (6 * math.log(fac.phi) >= 5 * math.log(q))
    for q in (1e10, 1e11, 1e12):
        vb = l1_value_bounds(q)
        up, rec = alt_l1_bounds(q)
        assert vb.upper == pytest.approx(up, rel=1e-12)
        assert vb.reciprocal_upper == pytest.approx(rec, rel=1e-12)
        cb = class_number_bounds(q)
        lo, hi = alt_class_bounds(q)
        assert cb.lower == pytest.approx(lo, rel=1e-12)
        assert cb.upper == pytest.approx(hi, rel=1e-12)


# ----------------------------------------------------------------------
# formula-level examples
# ----------------------------------------------------------------------


def test_subgroup_quantities_examples():
    assert subgroup_bound_quantities(6).a_term == 0.0
    vals = subgroup_bound_quantities(3001)
    assert vals.a_term > 0 and vals.b_term > 0
    # when A collapses to zero, B is the bare expression
    q = 6
    lq, ll = math.log(q), math.log(math.log(q))
    expect_b = 2 * ll + 3 + 2 * factorize(q).omega * ll**2 / lq
    assert subgroup_bound_quantities(q).b_term == pytest.approx(expect_b, rel=1e-14)
    # bound never drops below (log q)^2
    for q in (10, 3000, 10**6):
        assert subgroup_bound_quantities(q).bound >= math.log(q) ** 2


def test_clean_branch_applicability():
    assert subgroup_bound_clean_applicable(3001)
    assert not subgroup_bound_clean_applicable(3000)


def test_coset_bound_example():
    q, h = 20001, 2
    lq = math.log(q)
    llq = math.log(lq)
    expect = (lq + 9 + 2.5 * llq**2) ** 2
    assert coset_bound(q, h) == pytest.approx(expect, rel=1e-14)
    assert math.isfinite(coset_bound(3, 2))


def test_ap_bound_examples():
    assert ap_bound(5) == pytest.approx((4 * math.log(5)) ** 2, rel=1e-14)
    assert ap_bound(4) == pytest.approx((2 * math.log(4)) ** 2, rel=1e-14)


def test_l1_bounds_value_and_monotonicity():
    vb = l1_value_bounds(1e10)
    llq = math.log(math.log(1e10))
    expect = 2 * math.exp(EULER_GAMMA) * (llq - math.log(2) + 0.5 + 1 / llq)
    assert vb.upper == pytest.approx(expect, rel=1e-14)
    uppers = [l1_value_bounds(10.0**k).upper for k in range(10, 16)]
    assert uppers == sorted(uppers)
    with pytest.raises(ValueError):
        l1_value_bounds(2.0)


def test_class_number_bounds():
    cb = class_number_bounds(1e11)
    assert cb.lower >= 9052
    assert cb.lower_floor == math.floor(cb.lower)
    for k in (10, 11, 12, 13):
        b = class_number_bounds(10.0**k)
        assert 0 < b.lower < b.upper


def test_elementary_phi_examples():
    assert [r.verdict for r in verify_elementary(20001)] == ["pass"] * 3
    rows = verify_elementary(30030)
    assert [r.measured for r in rows] == [5760.0, 64.0, 5760.0]  # phi, 2^omega with omega = 6
    assert [r.verdict for r in rows] == ["pass"] * 3
    rows = verify_elementary(2)  # phi(2) = 1 < 4156, reported below the q > 20000 threshold
    assert rows[0].margin < 0 and rows[0].verdict == "not-applicable"


# ----------------------------------------------------------------------
# report semantics
# ----------------------------------------------------------------------


def test_report_verdict_soundness():
    r = BoundReport.decide("x", 10, "t", 5.0, upper=4.0)
    assert r.verdict == "fail" and r.margin == -1.0 and r.bound == 4.0
    r2 = BoundReport.decide("x", 10, "t", 5.0, upper=4.0, applicable=False)
    assert r2.verdict == "not-applicable" and r2.margin == -1.0
    r3 = BoundReport.decide("x", 10, "t", None, upper=4.0)
    assert r3.verdict == "not-found" and r3.bound == 4.0 and r3.margin is None
    r4 = BoundReport.decide("x", 10, "t", 4.0, upper=4.0, strict=True)
    assert r4.verdict == "fail"
    r5 = BoundReport.decide("x", 10, "t", 4.0, upper=4.0)
    assert r5.verdict == "pass"


def test_decide_reads_the_lower_end_when_there_is_no_upper():
    r = BoundReport.decide("x", 10, "t", 3.0, lower=4.0)
    assert (r.bound, r.margin, r.verdict) == (4.0, -1.0, "fail")
    r = BoundReport.decide("x", 10, "t", 5.0, lower=4.0, upper=6.0)
    assert (r.bound, r.margin, r.verdict) == (6.0, 1.0, "pass")
    assert BoundReport.decide("x", 10, "t", 3.0, lower=4.0, upper=6.0).verdict == "fail"


def test_decide_widens_each_end_by_its_slack():
    # 0.25 and the ends below are exact binary fractions, so "exactly at
    # -slack" is exact
    at_upper = BoundReport.decide("x", 10, "t", 1.25, upper=1.0, slack=0.25)
    assert at_upper.margin == -0.25 and at_upper.verdict == "pass"
    past = BoundReport.decide("x", 10, "t", math.nextafter(1.25, 2.0), upper=1.0, slack=0.25)
    assert past.verdict == "fail"
    at_lower = BoundReport.decide("x", 10, "t", 0.75, lower=1.0, slack=0.25)
    assert at_lower.margin == -0.25 and at_lower.verdict == "pass"
    assert BoundReport.decide("x", 10, "t", math.nextafter(0.75, 0.0), lower=1.0, slack=0.25).verdict == "fail"
    # strict excludes the widened ends, and slack 0 leaves them in place
    assert BoundReport.decide("x", 10, "t", 1.25, upper=1.0, slack=0.25, strict=True).verdict == "fail"
    assert BoundReport.decide("x", 10, "t", 0.75, lower=1.0, slack=0.25, strict=True).verdict == "fail"
    assert BoundReport.decide("x", 10, "t", 1.0, lower=1.0, upper=1.0, strict=True).verdict == "fail"
    assert BoundReport.decide("x", 10, "t", 1.0, lower=1.0, upper=1.0).verdict == "pass"


def test_decided_rows_record_their_slack():
    assert BoundReport.decide("x", 10, "t", 1.0, upper=2.0, slack=0.125).slack == 0.125
    assert BoundReport.decide("x", 10, "t", None, upper=2.0, slack=0.125).slack == 0.125
    assert BoundReport.decide("x", 10, "t", 1.0, upper=2.0).slack == 0.0
    assert BoundReport.value("x", 10, "t", 1.0).slack == 0.0
    # eight positional fields still build a row, with no slack
    assert BoundReport("x", 10, "t", 1.0, 2.0, 1.0, True, "pass").slack == 0.0


def test_verify_qnr_stream():
    for q in map(int, primes_up_to(300)):
        if q < 5:
            continue
        assert verify_qnr(q).verdict == "pass", q


def test_verify_subgroup_and_clean():
    for q in range(3000, 3011):
        rep = verify_subgroup(q)
        assert rep.verdict in ("pass", "not-found")
        assert rep.verdict == "pass", q
    rep = verify_subgroup(100)
    assert rep.verdict == "not-applicable" and rep.margin is not None
    rep = verify_subgroup_clean(3001)
    assert rep.applicable and rep.verdict == "pass"
    rep = verify_subgroup_clean(3000)
    assert not rep.applicable


def test_verify_ap_modes():
    rows = verify_ap(5)
    assert len(rows) == 1 and rows[0].verdict == "pass"
    assert rows[0].measured == 19.0  # worst class a = 4
    rows4 = verify_ap(4, per_class=True)
    assert {r.target: r.measured for r in rows4} == {"ap:a=1": 5.0, "ap:a=3": 3.0}
    assert all(r.verdict == "pass" for r in rows4)
    rows3 = verify_ap(3)
    assert rows3[0].verdict == "not-applicable"


def test_verify_ap_class_with_no_prime_below_the_ceiling():
    # primes <= 20 leave class 1 mod 7 empty (its least prime is 29)
    (row,) = verify_ap(7, ceiling=20)
    assert (row.target, row.measured, row.verdict) == ("ap:a=1", None, "not-found")
    rows = verify_ap(7, per_class=True, ceiling=20)
    assert [r.target for r in rows] == [f"ap:a={a}" for a in (2, 3, 4, 5, 6, 1)]
    assert [r.measured for r in rows] == [2, 3, 11, 5, 13, None]
    assert [r.verdict for r in rows] == ["pass"] * 5 + ["not-found"]
    assert all(type(r.measured) is int for r in rows[:5])
    (worst,) = verify_ap(7, ceiling=29)
    assert (worst.target, worst.measured) == ("ap:worst-a=1", 29)


def test_verify_coset_small_q_exploratory():
    reps = verify_coset(7, "squares", ceiling=10**6)
    assert len(reps) == 2  # h = 2 cosets
    assert all(r.verdict == "not-applicable" for r in reps)  # q < 20000
    assert all(r.measured is not None and r.measured <= r.bound for r in reps)


def test_verify_coset_at_threshold():
    rows = verify_coset(20001, "squares", ceiling=10**7)
    assert rows and all(r.verdict == "pass" for r in rows)


def test_coset_representatives_partition():
    h = kth_power_subgroup(7, 2)
    reps, numbering = coset_representatives(h)
    assert reps == [1, 3]
    assert numbering.dtype == np.uint8 and numbering.tolist() == [2, 0, 0, 1, 0, 1, 1]
    cosets = [sorted(r * m % 7 for m in members(h)) for r in reps]
    flat = sorted(x for c in cosets for x in c)
    assert flat == [1, 2, 3, 4, 5, 6]


def _coset_representatives_by_walk(h):
    """Walk 1..q-1, keep each unit not yet covered and cover its coset;
    number each residue by its coset, h.index off the units."""
    q, elements = h.q, members(h)
    reps, numbering = [], [h.index] * q
    for a in range(1, q):
        if numbering[a] == h.index and math.gcd(a, q) == 1:
            for m in elements:
                numbering[a * m % q] = len(reps)
            reps.append(a)
    return reps, numbering


def test_coset_representatives_match_the_walk():
    def check(h):
        reps, numbering = coset_representatives(h)
        assert (reps, numbering.tolist()) == _coset_representatives_by_walk(h), (h.q, h.kind)
        assert numbering.dtype == np.min_scalar_type(h.index)

    for q in range(3, 400):
        for h in (kth_power_subgroup(q, 2), kth_power_subgroup(q, 3), trivial_subgroup(q)):
            check(h)
    check(subgroup_from_generators(1001, [2]))
    # {1} is numbered without a walk: an odd prime, 2^k and a mixed q, past uint8
    for q in (100003, 2**14, 2**3 * 3**2 * 5 * 7 * 11):
        check(trivial_subgroup(q))


def test_verify_classnum(monkeypatch):
    assert verify_classnum(7).verdict == "pass"
    row = verify_classnum(23)
    assert (row.measured, row.bound, row.margin, row.verdict) == (3.0, 3.0, 0.0, "pass")
    # a count off by one is a fail row, decided by the same rule as the rest
    monkeypatch.setattr(bounds, "class_number_bqf", lambda q: 4)
    row = verify_classnum(23)
    assert (row.measured, row.bound, row.margin, row.verdict) == (4.0, 3.0, -1.0, "fail")


def test_every_report_row_is_built_inside_bound_report():
    # rows come from BoundReport.decide or BoundReport.value, so one rule
    # decides every verdict; a hand-built BoundReport(...) elsewhere is a
    # second rule
    outside = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        inside = {
            id(node)
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef) and cls.name == "BoundReport"
            for node in ast.walk(cls)
        }
        outside += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "BoundReport"
            and id(node) not in inside
        ]
    assert not outside, outside
