"""Quantitative analysis over run corpora.

Exact 2x2 tests (hypergeometric, big-integer rational arithmetic),
Mantel-Haenszel pooling with the Cochran-Mantel-Haenszel significance test,
paired discordant deltas, convergence curves, and timeout-filled runtime
aggregation.  Descriptive summaries use nearest-rank percentiles.
"""

import collections
import json
import math
import operator
import os
import stat
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence

from . import sessionrunner
from .errors import (
    AllStrataDegenerate,
    EmptyGroup,
    UnpairedCases,
)

# Relative slack on the "probability <= observed" comparison in the
# two-sided Fisher p; alternative two-sided conventions exist and this one
# is validated against published values.
FISHER_REL_TOL = Fraction(1, 10**7)


@dataclass
class ContingencyTable2x2:
    """Rows = exposure yes/no, columns = outcome success/fail."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        if min(self.a, self.b, self.c, self.d) < 0:
            raise ValueError("counts must be non-negative")
        if self.n < 1:
            raise ValueError("empty table")

    @property
    def n(self):
        return self.a + self.b + self.c + self.d


@dataclass
class FisherResult:
    odds_ratio: float  # inf when b*c == 0 and a*d > 0
    p_two_sided: float
    undefined_or: bool = False  # both products zero
    degenerate: bool = False  # a zero margin; p fixed at 1


def fisher_exact(t: ContingencyTable2x2) -> FisherResult:
    """Exact two-sided test with fixed margins.

    p = sum of hypergeometric probabilities of every margin-preserving table
    whose probability is <= the observed one (with a small relative slack).
    Every table's probability is comb(r1, k) * comb(r2, c1 - k) over the one
    denominator comb(n, c1), so the numerators are compared and summed as
    integers and p is a single exact fraction until the final float.
    """
    ad, bc = t.a * t.d, t.b * t.c
    if ad == 0 and bc == 0:
        odds_ratio, undefined = float("nan"), True
    elif bc == 0:
        odds_ratio, undefined = float("inf"), False
    else:
        odds_ratio, undefined = ad / bc, False

    r1, r2 = t.a + t.b, t.c + t.d
    c1 = t.a + t.c
    if r1 == 0 or r2 == 0 or c1 == 0 or c1 == t.n:
        return FisherResult(odds_ratio, 1.0, undefined, degenerate=True)

    lo, hi = max(0, c1 - r2), min(r1, c1)
    numerators = [math.comb(r1, lo) * math.comb(r2, c1 - lo)]
    for k in range(lo, hi):
        # The small factors are multiplied first: one big-integer product.
        numerators.append(numerators[-1] * ((r1 - k) * (c1 - k))
                          // ((k + 1) * (r2 - c1 + k + 1)))
    # x <= observed * (1 + tol), with tol = num / den: for an integer x,
    # x <= floor(observed * (den + num) / den).
    tol = FISHER_REL_TOL
    limit = (numerators[t.a - lo] * (tol.denominator + tol.numerator)
             // tol.denominator)
    kept = sum(x for x in numerators if x <= limit)
    # The kept numerators are a subset of Vandermonde's sum, so p <= 1.
    p = Fraction(kept, math.comb(t.n, c1))
    return FisherResult(odds_ratio, float(p), undefined)


def mantel_haenszel_or(strata: Sequence[ContingencyTable2x2]) -> float:
    """Pooled odds ratio: sum(a_i d_i / n_i) / sum(b_i c_i / n_i).

    Zero-product strata contribute zero to the respective sum.
    """
    if not strata:
        raise ValueError("need at least one stratum")
    num = sum(Fraction(t.a * t.d, t.n) for t in strata)
    den = sum(Fraction(t.b * t.c, t.n) for t in strata)
    if num == 0 and den == 0:
        raise AllStrataDegenerate("all cross-products are zero")
    if den == 0:
        return float("inf")
    return float(num / den)


def cmh_test(strata: Sequence[ContingencyTable2x2]) -> dict:
    """Cochran-Mantel-Haenszel chi-square (1 df), no continuity correction."""
    if not strata:
        raise ValueError("need at least one stratum")
    dev = Fraction(0)
    var = Fraction(0)
    for t in strata:
        n = t.n
        r1, c1 = t.a + t.b, t.a + t.c
        r2, c2 = t.c + t.d, t.b + t.d
        if n < 2:
            continue
        dev += t.a - Fraction(r1 * c1, n)
        var += Fraction(r1 * r2 * c1 * c2, n * n * (n - 1))
    if var == 0:
        if dev == 0:
            return {"statistic": 0.0, "p_two_sided": 1.0}
        raise AllStrataDegenerate("zero variance across strata")
    statistic = float(dev * dev / var)
    # Imported here: scipy.stats takes over a second to import, which
    # commands that never build a table should not pay.
    from scipy.stats import chi2
    return {"statistic": statistic,
            "p_two_sided": float(chi2.sf(statistic, 1))}


def nearest_rank_percentile(values: Sequence[float], pct: float) -> float:
    if not values:
        raise EmptyGroup("no values")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


@dataclass
class RunRecord:
    case_id: str
    success: bool
    profile: str = "baseline"
    elapsed_min: float = 0.0
    cost: float = 0.0
    tool_counts: Dict[str, int] = field(default_factory=dict)
    poc_iterations: int = 0
    breakpoints_set: int = 0
    breakpoints_hit: int = 0
    subsystem: Optional[str] = None
    is_race: Optional[bool] = None
    vuln_type: Optional[str] = None
    commit_msg_level: Optional[int] = None
    submit_time: Optional[str] = None
    runs_dir: Optional[str] = None  # the directory it was loaded from


def summarize_runs(records: Sequence[RunRecord],
                   grouping: Optional[str] = None,
                   paired: Optional[Sequence[RunRecord]] = None) -> List[dict]:
    """Per-group descriptive rows; with ``paired``, adds discordant-pair
    counts (b = success only in ``records``, c = only in ``paired``) and the
    percentage-point delta (paired minus primary)."""
    if not records:
        raise EmptyGroup("no run records")

    def group_key(r):
        if grouping is None:
            return "all"
        return getattr(r, grouping)

    paired_by_case = None
    if paired is not None:
        paired_by_case = {r.case_id: r for r in paired}
        if {r.case_id for r in records} != set(paired_by_case):
            raise UnpairedCases("paired run sets cover different cases")

    groups: Dict[object, List[RunRecord]] = {}
    for r in records:
        groups.setdefault(group_key(r), []).append(r)

    rows = []
    for key in sorted(groups, key=lambda k: str(k)):
        rs = groups[key]
        n = len(rs)
        successes = sum(1 for r in rs if r.success)
        costs = [r.cost for r in rs]
        times = [r.elapsed_min for r in rs]
        categories = sorted({c for r in rs for c in r.tool_counts})
        row = {
            "group": key,
            "n": n,
            "successes": successes,
            "success_rate": successes / n,
            "mean_cost": sum(costs) / n,
            "max_cost": max(costs),
            "mean_time_min": sum(times) / n,
            "max_time_min": max(times),
            "p90_time_min": nearest_rank_percentile(times, 90),
            "tool_call_means": {
                c: sum(r.tool_counts.get(c, 0) for r in rs) / n
                for c in categories},
        }
        if paired_by_case is not None:
            b = sum(1 for r in rs
                    if r.success and not paired_by_case[r.case_id].success)
            c = sum(1 for r in rs
                    if not r.success and paired_by_case[r.case_id].success)
            paired_successes = sum(
                1 for r in rs if paired_by_case[r.case_id].success)
            row["discordant_b"] = b
            row["discordant_c"] = c
            row["delta_pp"] = (paired_successes - successes) / n * 100.0
        rows.append(row)
    return rows


def convergence_curve(run_sets: Sequence[dict]) -> List[int]:
    """Cumulative union success counts over ordered verdict sets.

    Each set maps case_id -> success (bool); all sets must cover the same
    case universe.
    """
    if not run_sets:
        return []
    universe = set(run_sets[0])
    for s in run_sets[1:]:
        if set(s) != universe:
            raise UnpairedCases("verdict sets cover different case universes")
    union = set()
    curve = []
    for s in run_sets:
        union |= {case for case, ok in s.items() if ok}
        curve.append(len(union))
    return curve


def expected_overall_time(success_durations: Sequence[float], n_fail: int,
                          fail_fill: float) -> float:
    """Mean runtime with failures filled at a fixed timeout value."""
    n_success = len(success_durations)
    if n_success + n_fail < 1:
        raise EmptyGroup("no cases")
    return (sum(success_durations) + n_fail * fail_fill) / (n_success + n_fail)


# --- corpus ingestion -------------------------------------------------------

# What ``_read_json`` returns when there is no file; a file may hold null.
_MISSING = object()
# How much ``_read_json`` asks for per read once a file has outgrown its
# fstat size.
_READ_CHUNK = 1 << 16
# The scanner behind ``json.loads``, without its per-call wrapper: a text
# that is one value, with at most whitespace after it, decodes here.
_scan_once = json.JSONDecoder().scan_once
# What ends the path of a run dir's verdict and session files.
_VERDICT_TAIL = os.sep + sessionrunner.ARTIFACT_VERDICT
_SESSION_TAIL = os.sep + sessionrunner.ARTIFACT_SESSION


def _read_json(path):
    """The JSON value in the regular file at ``path``, or ``_MISSING`` when
    ``os.path.isfile`` would say there is none: one open, one fstat and one
    read of the size the fstat gives, plus one byte; a file whose size
    changed after the fstat is read on to EOF.  A directory, FIFO or device
    under that name is not read, and O_NONBLOCK keeps the open of a FIFO
    from waiting for a writer.  The text is what a text-mode read gives:
    strict UTF-8, so a BOM or a UTF-16 file is refused, and newlines
    translated, so a JSON error names the same position."""
    try:
        fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
    except (FileNotFoundError, NotADirectoryError):
        return _MISSING
    except OSError:
        # A socket, a symlink loop, an unsearchable dir: skipped if isfile
        # says there is no file, the error raised if there is one.
        if not os.path.isfile(path):
            return _MISSING
        raise
    try:
        st = os.fstat(fd)
        if not stat.S_ISREG(st.st_mode):
            return _MISSING
        data = os.read(fd, st.st_size + 1)
        if len(data) != st.st_size:
            chunks = [data]
            while chunks[-1]:
                chunks.append(os.read(fd, _READ_CHUNK))
            data = b"".join(chunks)
    finally:
        os.close(fd)
    text = data.decode("utf-8")
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    try:
        value, end = _scan_once(text, 0)
        if not text[end:].strip(" \t\n"):
            return value
    except (StopIteration, ValueError):
        pass
    # Leading space, a BOM, trailing data or an error: json.loads gives the
    # value or its own error.
    return json.loads(text)


def _run_measures(case_dir, session) -> dict:
    """The trace measures of one run dir decided before verdicts recorded
    them.  A session writes them into session.json; a dir written before
    sessions did has them replayed from its trace.jsonl."""
    if session is not _MISSING and "tool_counts" in session:
        return session
    trace_path = os.path.join(case_dir, sessionrunner.ARTIFACT_TRACE)
    if not os.path.isfile(trace_path):
        return {}
    return sessionrunner.replay_trace(trace_path)


def load_run_records(runs_dirs: Sequence[str],
                     metadata: Optional[dict] = None) -> List[RunRecord]:
    """Ingest directories of per-case artifact sets; a dir without a verdict
    is skipped.  A verdict.json that holds a ``measures`` object gives the
    whole record.  For one decided before verdicts recorded them, the
    profile comes from session.json and the measures from ``_run_measures``.
    """
    metadata = metadata or {}
    records = []
    for runs_dir in runs_dirs:
        prefix = os.path.join(runs_dir, "")
        for name in sorted(os.listdir(runs_dir)):
            case_dir = prefix + name
            v = _read_json(case_dir + _VERDICT_TAIL)
            if v is _MISSING:
                continue
            measures = v.get("measures") if isinstance(v, dict) else None
            if isinstance(measures, dict):
                profile = v.get("profile", "baseline")
            else:
                session = _read_json(case_dir + _SESSION_TAIL)
                measures = _run_measures(case_dir, session)
                profile = (session.get("profile", "baseline")
                           if isinstance(session, dict) else "baseline")
            meta = metadata.get(v["case_id"], {})
            # Positional, in field order: a keyword call costs a record
            # about a microsecond more.
            records.append(RunRecord(
                v["case_id"], v["success"], profile,
                float(v.get("elapsed_min", 0.0)),
                float(v.get("cost_usd", 0.0)),
                measures.get("tool_counts", {}),
                measures.get("poc_iterations", 0),
                measures.get("breakpoints_set", 0),
                measures.get("breakpoints_hit", 0),
                meta.get("subsystem"), meta.get("is_race"),
                meta.get("vuln_type"), meta.get("commit_msg_level"),
                meta.get("submit_time"), runs_dir))
    return records


_SUCCESS = operator.attrgetter("success")
_SUBSYSTEM = operator.attrgetter("subsystem")
# The vulnerability types the type strata count; OOB is the unexposed row.
_STRATA_TYPES = ("UAF", "DF", "OOB")


def _wins(outcomes) -> int:
    """How many of ``outcomes`` are true."""
    return len(list(filter(None, outcomes)))


def subsystem_tables(records: Sequence[RunRecord]) -> Dict[str, ContingencyTable2x2]:
    """One exposure-vs-rest table per subsystem label; a record without a
    label is in the rest of every table."""
    counts = collections.Counter(zip(map(_SUBSYSTEM, records),
                                     map(bool, map(_SUCCESS, records))))
    wins = sum(n for (_label, ok), n in counts.items() if ok)
    fails = len(records) - wins
    tables = {}
    for label in sorted({label for label, _ok in counts if label}):
        a, b = counts[label, True], counts[label, False]
        tables[label] = ContingencyTable2x2(a, b, wins - a, fails - b)
    return tables


def type_race_strata(records: Sequence[RunRecord]) -> List[ContingencyTable2x2]:
    """UAF/DF-vs-OOB success tables stratified by race status; a record
    whose ``is_race`` is neither True nor False is in no stratum."""
    # cells[race][type is OOB] = [successes, failures]
    cells = [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]
    for r in records:
        if (r.is_race is True or r.is_race is False) \
                and r.vuln_type in _STRATA_TYPES:
            cells[r.is_race][r.vuln_type == "OOB"][not r.success] += 1
    strata = []
    for race in (True, False):
        (a, b), (c, d) = cells[race]
        if a + b + c + d:
            strata.append(ContingencyTable2x2(a, b, c, d))
    return strata


def cutoff_table(records: Sequence[RunRecord], cutoff_date: str) -> ContingencyTable2x2:
    """Pre-cutoff vs post-cutoff success table by submit time.  A submit
    time is a string (a missing one sorts first), so a record that is not
    pre-cutoff is post-cutoff."""
    pre = [r.success for r in records if (r.submit_time or "") <= cutoff_date]
    a, wins = _wins(pre), _wins(map(_SUCCESS, records))
    return ContingencyTable2x2(a, len(pre) - a, wins - a,
                               len(records) - len(pre) - (wins - a))


# --- analyze tables ---------------------------------------------------------
# Each table is a function of (records, runs_dirs, cutoff_date) that returns
# its rows, or None when the corpus has nothing to show for it.  The public
# functions above are called through the module's globals, so a caller that
# replaces one (a tracer, a test double) sees every call.

def _fisher_row(t: ContingencyTable2x2) -> dict:
    res = fisher_exact(t)
    return {"a": t.a, "b": t.b, "c": t.c, "d": t.d,
            "odds_ratio": res.odds_ratio, "p": res.p_two_sided}


def _success_count(records) -> dict:
    return {"n": len(records), "successes": sum(1 for r in records if r.success)}


def _overall_table(records, runs_dirs, cutoff_date):
    return summarize_runs(records)


def _subsystem_table(records, runs_dirs, cutoff_date):
    return [{"subsystem": label, **_fisher_row(t)}
            for label, t in subsystem_tables(records).items()]


def _race_table(records, runs_dirs, cutoff_date):
    race = [r for r in records if r.is_race]
    nonrace = [r for r in records if r.is_race is False]
    return [{"group": "race", **_success_count(race)},
            {"group": "non_race", **_success_count(nonrace)}]


def _type_table(records, runs_dirs, cutoff_date):
    strata = type_race_strata(records)
    if not strata:
        return None
    return {"mh_odds_ratio": mantel_haenszel_or(strata),
            "cmh": cmh_test(strata)}


def _cutoff_table(records, runs_dirs, cutoff_date):
    if not cutoff_date:
        return None
    return _fisher_row(cutoff_table(records, cutoff_date))


def _commitmsg_table(records, runs_dirs, cutoff_date):
    by_level = {}
    for r in records:
        if r.commit_msg_level:
            by_level.setdefault(r.commit_msg_level, []).append(r)
    return [{"level": lvl, **_success_count(rs)}
            for lvl, rs in sorted(by_level.items())]


def _convergence_table(records, runs_dirs, cutoff_date):
    """One verdict set per runs dir that holds runs, in ``runs_dirs`` order."""
    by_dir = {}
    for r in records:
        by_dir.setdefault(r.runs_dir, {})[r.case_id] = r.success
    return convergence_curve([by_dir[d] for d in runs_dirs if d in by_dir])


# Name -> table, in output order.
TABLES = {
    "overall": _overall_table,
    "subsystem": _subsystem_table,
    "race": _race_table,
    "type": _type_table,
    "cutoff": _cutoff_table,
    "commitmsg": _commitmsg_table,
    "convergence": _convergence_table,
}


def analysis_tables(records: Sequence[RunRecord], names: Sequence[str],
                    runs_dirs: Sequence[str],
                    cutoff_date: Optional[str]) -> dict:
    """The named tables over ``records``, in ``TABLES`` order; a table with
    nothing to show is left out."""
    tables = {}
    for name, build in TABLES.items():
        if name in names:
            table = build(records, runs_dirs, cutoff_date)
            if table is not None:
                tables[name] = table
    return tables
