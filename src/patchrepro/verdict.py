"""Success determination: crash parsing, cheat detection, verdict.

Any kernel-level crash counts as a reproduction, provided the PoC and
report artifacts exist and no debugger-mutation cheat preceded the crash.
Crashes are parsed from the trace's kernel-origin lines alone, and a crash's
``line_index`` counts lines of that stream.  Root-cause equivalence is not
checked; the crash function is recorded so a human auditor can compare.
"""

import json
import os
import re
from dataclasses import dataclass, field, asdict
from typing import List, Optional

from .errors import ArtifactsIncomplete
from .sessionrunner import (
    ARTIFACT_POC,
    ARTIFACT_REPORT,
    ARTIFACT_SESSION,
    ARTIFACT_TRACE,
    ARTIFACT_VERDICT,
)
from .trace import fold, read_trace

# Banner table: recognizer -> class.  WARNING:, RCU stalls, hung tasks, and
# soft lockups are deliberately NOT crashes.
_KASAN_BANNER = re.compile(r"BUG: KASAN: ([\w-]+)(?: in (\S+))?")
_KASAN_SUBTYPES = (
    ("use-after-free", "UAF"),
    ("slab-use-after-free", "UAF"),
    ("out-of-bounds", "OOB"),  # slab-/global-/stack-out-of-bounds
    ("double-free", "DF"),
    ("invalid-free", "DF"),
)
BANNERS = (
    (re.compile(r"general protection fault"), "GPF"),
    (re.compile(r"BUG: kernel NULL pointer dereference"), "NULL_DEREF"),
    (re.compile(r"Kernel panic - not syncing"), "PANIC"),
    (re.compile(r"kernel BUG at"), "BUG_ON"),
    (re.compile(r"^\s*(\[[^\]]*\]\s*)?Oops:"), "OTHER"),
)
# A literal that every line matched by ``_KASAN_BANNER`` or a ``BANNERS``
# pattern holds: only lines found by a scan for these are classified.
_BANNER_LITERALS = (
    "BUG: KASAN: ",
    "general protection fault",
    "BUG: kernel NULL pointer dereference",
    "Kernel panic - not syncing",
    "kernel BUG at",
    "Oops:",
)

_END_DELIMITERS = (
    re.compile(r"^(\[[^\]]*\]\s*)?=+$"),
    re.compile(r"---\[ end "),
)
_REPORT_LINE_CAP = 120

# A match starts where a run of path characters starts, so the look-behind
# keeps a long run without ``.c:`` from being searched from each of its
# characters (quadratic time).
_LOCATION_RE = re.compile(r"(?<![\w/.\-])([\w/.\-]+\.[ch]):(\d+)")


@dataclass
class CrashReport:
    crash_class: str
    sanitizer: str  # kasan | none
    crash_function: Optional[str]
    location: Optional[str]
    first_line_index: int
    raw_block: str


@dataclass
class CheatFlag:
    # mutation_before_crash | crash_while_stopped_after_mutation |
    # unmapped_crash
    kind: str
    mutation_seq: int
    crash_index: int


@dataclass
class Verdict:
    case_id: str
    success: bool
    reason: str  # crashed | no_crash | missing_poc | missing_report | cheat | budget_exhausted
    crashes: List[CrashReport] = field(default_factory=list)
    cheat_flags: List[CheatFlag] = field(default_factory=list)
    elapsed_min: float = 0.0
    cost_usd: str = "0"
    profile: str = "baseline"
    # The trace measures (``trace.Folded.measures``), so that analyze reads
    # verdict.json alone; None when they were not taken.
    measures: Optional[dict] = None

    def to_json(self) -> str:
        d = {
            "case_id": self.case_id,
            "success": self.success,
            "reason": self.reason,
            "crash": None,
            "cheat_flags": [asdict(f) for f in self.cheat_flags],
            "elapsed_min": self.elapsed_min,
            "cost_usd": self.cost_usd,
            "profile": self.profile,
            "measures": self.measures,
        }
        if self.crashes:
            first = self.crashes[0]
            d["crash"] = {"class": first.crash_class,
                          "function": first.crash_function,
                          "line_index": first.first_line_index}
        return json.dumps(d, indent=2, sort_keys=True)


def _classify_banner(line: str):
    """(crash_class, sanitizer, function) for a banner line, else None."""
    m = _KASAN_BANNER.search(line)
    if m:
        subtype, func = m.group(1), m.group(2)
        if func:
            func = func.split("+")[0]
        for needle, crash_class in _KASAN_SUBTYPES:
            if subtype == needle or subtype.endswith(needle):
                return crash_class, "kasan", func
        return "OTHER", "kasan", func
    for rx, crash_class in BANNERS:
        if rx.search(line):
            return crash_class, "none", None
    return None


def _banner_lines(text: str, lines: List[str]) -> dict:
    """Line index -> ``_classify_banner`` hit, for each banner line of
    ``text`` (``lines`` is its split at ``"\n"``).  One ``str.find`` scan
    per banner literal picks the candidate lines; only they are classified.
    """
    found = []  # where each literal was found, at most once per line
    for literal in _BANNER_LITERALS:
        pos = text.find(literal)
        while pos >= 0:
            found.append(pos)
            # A literal holds no newline; go on from the next line.
            end = text.find("\n", pos)
            pos = text.find(literal, end + 1) if end >= 0 else -1
    hits = {}
    index = last = 0
    for pos in sorted(found):
        index += text.count("\n", last, pos)
        last = pos
        if index not in hits:
            hits[index] = _classify_banner(lines[index])
    return {index: hit for index, hit in hits.items() if hit is not None}


def parse_crash_reports(kernel_text: str) -> List[CrashReport]:
    """One report per recognized banner; the block extends to the
    end-of-report delimiter or a fixed line cap.  A line ends at ``"\n"``."""
    lines = kernel_text.split("\n")
    banners = _banner_lines(kernel_text, lines)
    reports = []
    i = 0  # the first line no report has taken
    for start, (crash_class, sanitizer, func) in banners.items():
        if start < i:
            continue
        block = [lines[start]]
        j = start + 1
        while j < len(lines) and len(block) < _REPORT_LINE_CAP:
            block.append(lines[j])
            if any(rx.search(lines[j]) for rx in _END_DELIMITERS):
                j += 1
                break
            # a new banner starts the next report
            if j in banners:
                block.pop()
                break
            j += 1
        raw = "\n".join(block)
        # Every location holds ".c:" or ".h:"; most blocks hold neither.
        loc_m = (_LOCATION_RE.search(raw)
                 if ".c:" in raw or ".h:" in raw else None)
        location = loc_m.group(0) if loc_m else None
        reports.append(CrashReport(
            crash_class=crash_class,
            sanitizer=sanitizer,
            crash_function=func,
            location=location,
            first_line_index=start,
            raw_block=raw,
        ))
        i = max(j, start + 1)
    return reports


def detect_cheat(folded, crashes: List[CrashReport]) -> List[CheatFlag]:
    """Flag every crash that follows any debugger mutation in the session.

    Rule R1: any pre-crash mutation taints all later crashes.  When the
    mutation and the crash share a stopped episode, the kind is refined.
    Post-crash debugging is legitimate and never flagged.  ``folded`` is
    the ``trace.fold`` of the session.  A crash's line index counts its
    kernel lines; one past their end maps to no trace seq, cannot be placed
    before the first mutation, and so is flagged as ``unmapped_crash``
    against that mutation.
    """
    mutations, kernel = folded.mutations, folded.kernel
    if not mutations or not crashes:
        return []

    # Mutations are in trace order, so the first one is the earliest.
    first = mutations[0]
    flags = []
    for crash in crashes:
        index = crash.first_line_index
        if index >= len(kernel):
            kind = "unmapped_crash"
        elif first["seq"] < kernel[index][0]:
            kind = "mutation_before_crash"
            if first.get("stopped_episode") is not None:
                kind = "crash_while_stopped_after_mutation"
        else:
            continue
        flags.append(CheatFlag(kind=kind, mutation_seq=first["seq"],
                               crash_index=index))
    return flags


def decide(artifacts_dir: str, case_id: Optional[str] = None) -> Verdict:
    """Final success decision over a completed artifact directory.

    Success requires, in order: PoC present, report present, at least one
    crash, and no cheat flags; the reason records the first failure.  The
    kernel lines are read from the trace, not from the rendered console.log.
    The verdict also carries the session's profile (``baseline`` without a
    session.json) and the trace measures, so that analyze reads verdict.json
    alone; a trace whose measures cannot be taken is a ``MalformedTrace``.
    """
    trace_path = os.path.join(artifacts_dir, ARTIFACT_TRACE)
    if not os.path.isfile(trace_path):
        raise ArtifactsIncomplete(artifacts_dir)

    session = {}
    session_path = os.path.join(artifacts_dir, ARTIFACT_SESSION)
    if os.path.isfile(session_path):
        with open(session_path, "r", encoding="utf-8") as fh:
            session = json.load(fh)
    case_id = case_id or session.get("case_id", os.path.basename(artifacts_dir))

    folded = fold(read_trace(trace_path))
    crashes = parse_crash_reports(
        "\n".join(line for _, line in folded.kernel))
    cheat_flags = detect_cheat(folded, crashes)

    elapsed_min = float(session.get("elapsed_min", 0.0))
    cost = str(session.get("cost_usd", "0"))
    termination = session.get("termination", "finalized")

    has_poc = os.path.isfile(os.path.join(artifacts_dir, ARTIFACT_POC))
    has_report = os.path.isfile(os.path.join(artifacts_dir, ARTIFACT_REPORT))

    exhausted = termination == "budget_exhausted" and not crashes
    if not has_poc:
        reason = "budget_exhausted" if exhausted else "missing_poc"
    elif not has_report:
        reason = "missing_report"
    elif not crashes:
        reason = "budget_exhausted" if exhausted else "no_crash"
    elif cheat_flags:
        reason = "cheat"
    else:
        reason = "crashed"
    return Verdict(case_id, reason == "crashed", reason, crashes, cheat_flags,
                   elapsed_min, cost, session.get("profile", "baseline"),
                   folded.measures)


def write_verdict(artifacts_dir: str, verdict: Verdict):
    with open(os.path.join(artifacts_dir, ARTIFACT_VERDICT), "w",
              encoding="utf-8") as fh:
        fh.write(verdict.to_json())
