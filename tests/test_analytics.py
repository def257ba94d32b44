import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from patchrepro import analytics
from patchrepro.analytics import (
    ContingencyTable2x2 as T,
    cmh_test, convergence_curve, expected_overall_time, fisher_exact,
    mantel_haenszel_or, nearest_rank_percentile, summarize_runs, RunRecord)
from patchrepro.errors import AllStrataDegenerate, EmptyGroup, UnpairedCases


# Frozen per-subsystem odds ratios and p values at each capability tier:
# (a, b, c, d) = (subsystem successes, subsystem failures,
#                 other successes, other failures).
GOLDEN_SUBSYSTEM = [
    # mid tier
    (T(24, 26, 23, 27), 1.08, 1.0),
    (T(14, 20, 33, 33), 0.70, 0.5262),
    (T(4, 3, 43, 50), 1.55, 0.7034),
    (T(5, 4, 42, 49), 1.46, 0.7309),
    # top tier
    (T(28, 22, 28, 22), 1.00, 1.0),
    (T(18, 16, 38, 28), 0.83, 0.6764),
    (T(4, 3, 52, 41), 1.05, 1.0),
    (T(6, 3, 50, 41), 1.64, 0.7274),
]

# Race vs non-race strata (rows = racy yes/no) per tier, with the frozen
# pooled odds ratio and chi-square p value.
GOLDEN_STRATA = [
    ([T(4, 18, 1, 0), T(29, 31, 13, 2)], 0.1256, 0.00249),
    ([T(6, 16, 1, 0), T(36, 24, 13, 2)], 0.1977, 0.0237),
]

GOLDEN_SINGLE = [
    (T(28, 30, 19, 23), 1.13, 0.8402),   # submitted before/after cutoff, mid
    (T(34, 24, 22, 20), 1.288, 0.548),   # submitted before/after cutoff, top
    (T(44, 14, 32, 10), 0.982, 1.0),     # race balance check
]


def test_golden_subsystem_tables():
    for table, or_expected, p_expected in GOLDEN_SUBSYSTEM:
        res = fisher_exact(table)
        assert res.odds_ratio == pytest.approx(or_expected, abs=0.005)
        assert res.p_two_sided == pytest.approx(p_expected, abs=0.02)


def test_golden_single_tables():
    for table, or_expected, p_expected in GOLDEN_SINGLE:
        res = fisher_exact(table)
        assert res.odds_ratio == pytest.approx(or_expected, abs=0.005)
        assert res.p_two_sided == pytest.approx(p_expected, abs=0.02)


def test_golden_stratified():
    for strata, mh_expected, p_expected in GOLDEN_STRATA:
        assert mantel_haenszel_or(strata) == pytest.approx(mh_expected,
                                                           abs=0.005)
        assert cmh_test(strata)["p_two_sided"] == pytest.approx(p_expected,
                                                                abs=0.005)


def test_expected_overall_time_golden():
    # 42 solved at 11.74h mean, 58 failures filled at the 24h budget.
    assert expected_overall_time([11.74] * 42, 58, 24.0) == \
        pytest.approx(18.8508, abs=0.01)


def test_convergence_golden():
    sets = []
    # 56 solved in attempt one; 7 new in attempt two; 1 new in attempt three.
    universe = ["c%03d" % i for i in range(100)]
    wins = [set(universe[:56]), set(universe[:50]) | set(universe[56:63]),
            set(universe[40:64])]
    for w in wins:
        sets.append({c: c in w for c in universe})
    assert convergence_curve(sets) == [56, 63, 64]


# --- Fisher oracle ----------------------------------------------------------

def _fisher_brute_force(t):
    """Enumerate every margin-preserving table directly."""
    r1, r2, c1 = t.a + t.b, t.c + t.d, t.a + t.c
    n = t.n

    def pmf(k):
        return Fraction(math.comb(r1, k) * math.comb(r2, c1 - k),
                        math.comb(n, c1))

    observed = pmf(t.a)
    cutoff = observed * (1 + analytics.FISHER_REL_TOL)
    total = Fraction(0)
    for k in range(0, min(r1, c1) + 1):
        if c1 - k > r2:
            continue
        if pmf(k) <= cutoff:
            total += pmf(k)
    return float(min(total, Fraction(1)))


def test_fisher_against_brute_force_oracle():
    rng = random.Random(20240930)
    for _ in range(1000):
        while True:
            cells = [rng.randint(0, 30) for _ in range(4)]
            t = T(*cells) if sum(cells) else None
            if t is None:
                continue
            if min(t.a + t.b, t.c + t.d) == 0 or t.a + t.c in (0, t.n):
                res = fisher_exact(t)
                assert res.degenerate and res.p_two_sided == 1.0
                break
            assert fisher_exact(t).p_two_sided == _fisher_brute_force(t)
            break


def _large_tables(rng, count):
    """Non-degenerate tables with n up to 1200, the size of a corpus of
    400 cases run three times: lopsided row or column margins or neither,
    and ``a`` at either end of its range or inside it."""
    for i in range(count):
        n = 1200 if i % 5 == 0 else rng.randint(200, 1200)
        small, mid = rng.randint(1, 12), rng.randint(n // 4, 3 * n // 4)
        r1 = (small, n - small, mid, mid)[i % 4]
        c1 = (rng.randint(1, n - 1), mid, small, n - mid)[i % 4]
        lo, hi = max(0, c1 - (n - r1)), min(r1, c1)
        a = (lo, hi, rng.randint(lo, hi))[i // 4 % 3]
        yield T(a, r1 - a, c1 - a, n - r1 - c1 + a)


def test_fisher_large_tables_against_brute_force_oracle():
    tables = list(_large_tables(random.Random(20261018), 20))
    assert max(t.n for t in tables) > 1000
    for t in tables:
        assert fisher_exact(t).p_two_sided == _fisher_brute_force(t), t


def test_fisher_edge_cases():
    res = fisher_exact(T(5, 0, 0, 5))
    assert res.odds_ratio == float("inf")
    assert not res.undefined_or
    res = fisher_exact(T(0, 5, 0, 5))
    assert math.isnan(res.odds_ratio) and res.undefined_or
    with pytest.raises(ValueError):
        T(-1, 1, 1, 1)
    with pytest.raises(ValueError):
        T(0, 0, 0, 0)


@settings(max_examples=150, deadline=None)
@given(a=st.integers(0, 20), b=st.integers(0, 20),
       c=st.integers(0, 20), d=st.integers(0, 20))
def test_fisher_row_swap_invariance(a, b, c, d):
    """p is invariant and the odds ratio inverts under a row swap."""
    if a + b + c + d == 0:
        return
    t = T(a, b, c, d)
    r1, r2 = fisher_exact(t), fisher_exact(T(c, d, a, b))
    assert r1.p_two_sided == pytest.approx(r2.p_two_sided, rel=1e-12)
    if not (r1.undefined_or or r2.undefined_or or r1.degenerate):
        if math.isinf(r1.odds_ratio):
            assert r2.odds_ratio == 0
        elif r1.odds_ratio > 0:
            assert r2.odds_ratio == pytest.approx(1 / r1.odds_ratio,
                                                  rel=1e-12)


@settings(max_examples=80, deadline=None)
@given(a=st.integers(1, 15), b=st.integers(1, 15),
       c=st.integers(1, 15), d=st.integers(1, 15))
def test_mh_single_stratum_collapses_to_plain_or(a, b, c, d):
    t = T(a, b, c, d)
    assert mantel_haenszel_or([t]) == pytest.approx(a * d / (b * c),
                                                    rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(sets=st.lists(
    st.dictionaries(st.sampled_from(["x", "y", "z"]), st.booleans(),
                    min_size=3, max_size=3),
    min_size=1, max_size=6))
def test_convergence_monotone_and_bounded(sets):
    curve = convergence_curve(sets)
    assert curve == sorted(curve)
    assert all(0 <= v <= 3 for v in curve)


def test_convergence_mismatched_universe():
    with pytest.raises(UnpairedCases):
        convergence_curve([{"a": True}, {"b": True}])


def test_mh_degenerate():
    with pytest.raises(AllStrataDegenerate):
        mantel_haenszel_or([T(0, 1, 0, 1)])  # ad=0 and bc=0
    assert mantel_haenszel_or([T(1, 0, 0, 1)]) == float("inf")


def test_nearest_rank_percentile():
    vals = list(range(1, 11))
    assert nearest_rank_percentile(vals, 90) == 9
    assert nearest_rank_percentile(vals, 100) == 10
    assert nearest_rank_percentile([7.0], 50) == 7.0
    with pytest.raises(EmptyGroup):
        nearest_rank_percentile([], 90)


# --- run summaries ----------------------------------------------------------

def _rec(case, ok, **kw):
    defaults = dict(elapsed_min=10.0, cost=1.0,
                    tool_counts={"vm_interaction": 3})
    defaults.update(kw)
    return RunRecord(case_id=case, success=ok, **defaults)


def test_summarize_runs_basic():
    recs = [_rec("a", True), _rec("b", False, elapsed_min=30.0, cost=3.0)]
    (row,) = summarize_runs(recs)
    assert row["n"] == 2 and row["successes"] == 1
    assert row["success_rate"] == 0.5
    assert row["mean_cost"] == 2.0 and row["max_cost"] == 3.0
    assert row["p90_time_min"] == 30.0
    assert row["tool_call_means"] == {"vm_interaction": 3.0}


def test_summarize_runs_paired_discordance():
    # Top-tier ablation example: 19 wins lost, 4 gained over 79 cases.
    n, b, c = 79, 19, 4
    base_wins = 44
    primary, paired = [], []
    for i in range(n):
        case = "c%02d" % i
        p_ok = i < base_wins
        q_ok = (b <= i < base_wins) or (base_wins <= i < base_wins + c)
        primary.append(_rec(case, p_ok))
        paired.append(_rec(case, q_ok))
    (row,) = summarize_runs(primary, paired=paired)
    assert row["discordant_b"] == b
    assert row["discordant_c"] == c
    assert row["delta_pp"] == pytest.approx(-18.99, abs=0.5)

    # Small-set example: 6/8 down to (minus 2, plus 0).
    primary = [_rec("k%d" % i, i < 6) for i in range(8)]
    paired = [_rec("k%d" % i, 2 <= i < 6) for i in range(8)]
    (row,) = summarize_runs(primary, paired=paired)
    assert row["delta_pp"] == pytest.approx(-25.0, abs=1e-9)


def test_summarize_runs_unpaired_rejected():
    with pytest.raises(UnpairedCases):
        summarize_runs([_rec("a", True)], paired=[_rec("b", True)])


def test_summarize_runs_grouping():
    recs = [_rec("a", True, subsystem="net"),
            _rec("b", False, subsystem="net"),
            _rec("c", True, subsystem="bpf")]
    rows = summarize_runs(recs, grouping="subsystem")
    assert [r["group"] for r in rows] == ["bpf", "net"]
    assert rows[1]["success_rate"] == 0.5


def test_subsystem_and_cutoff_tables():
    recs = []
    for i in range(10):
        recs.append(_rec("n%d" % i, i % 2 == 0,
                         subsystem="net" if i < 6 else "bpf",
                         submit_time="2024-0%d-01" % ((i % 9) + 1)))
    tables = analytics.subsystem_tables(recs)
    assert set(tables) == {"net", "bpf"}
    t = tables["net"]
    assert t.a + t.b == 6 and t.c + t.d == 4
    cut = analytics.cutoff_table(recs, "2024-05-15")
    assert cut.n == 10


# --- counted tables against the per-label list comprehensions -------------

def _success_table_oracle(exposed, unexposed):
    a = sum(1 for r in exposed if r.success)
    c = sum(1 for r in unexposed if r.success)
    return T(a, len(exposed) - a, c, len(unexposed) - c)


def _subsystem_tables_oracle(records):
    labels = sorted({r.subsystem for r in records if r.subsystem})
    return {label: _success_table_oracle(
                [r for r in records if r.subsystem == label],
                [r for r in records if r.subsystem != label])
            for label in labels}


def _type_race_strata_oracle(records):
    strata = []
    for race in (True, False):
        rs = [r for r in records if r.is_race is race
              and r.vuln_type in ("UAF", "DF", "OOB")]
        if rs:
            strata.append(_success_table_oracle(
                [r for r in rs if r.vuln_type in ("UAF", "DF")],
                [r for r in rs if r.vuln_type == "OOB"]))
    return strata


def _cutoff_table_oracle(records, cutoff_date):
    return _success_table_oracle(
        [r for r in records if (r.submit_time or "") <= cutoff_date],
        [r for r in records if (r.submit_time or "") > cutoff_date])


_DATES = ["2024-01-01", "2024-06-30", "2024-06-30T12:00:00Z", "2025-02-01"]
_records = st.lists(st.builds(
    RunRecord, case_id=st.just("c"),
    # Truthy and falsy values that are not bools count by their truth.
    success=st.sampled_from([True, False, 1, 0, 2, "", "yes", None, [0]]),
    subsystem=st.sampled_from([None, "", "net", "fs", "bpf"]),
    # 1 and 0 equal True and False but are no race status.
    is_race=st.sampled_from([None, True, False, 1, 0]),
    vuln_type=st.sampled_from([None, "UAF", "DF", "OOB", "OTHER"]),
    submit_time=st.sampled_from([None, ""] + _DATES)), max_size=40)


def _outcome(build, *args):
    """What ``build`` gives, or the type of what it raises."""
    try:
        return build(*args)
    except ValueError as exc:
        return type(exc)


@settings(max_examples=300, deadline=None)
@given(records=_records, cutoff=st.sampled_from(_DATES))
def test_counted_tables_equal_the_list_comprehensions(records, cutoff):
    tables = analytics.subsystem_tables(records)
    assert list(tables.items()) == \
        list(_subsystem_tables_oracle(records).items())
    assert analytics.type_race_strata(records) == \
        _type_race_strata_oracle(records)
    assert _outcome(analytics.cutoff_table, records, cutoff) == \
        _outcome(_cutoff_table_oracle, records, cutoff)
