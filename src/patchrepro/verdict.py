"""Success determination: crash parsing, cheat detection, verdict.

Any kernel-level crash counts as a reproduction, provided the PoC and
report artifacts exist and no debugger-mutation cheat preceded the crash.
Root-cause equivalence is not checked; the crash function is recorded so a
human auditor can compare.
"""

import json
import os
import re
from dataclasses import dataclass, field, asdict
from typing import List, Optional

from .errors import ArtifactsIncomplete, MalformedTrace
from .sessionrunner import (
    ARTIFACT_CONSOLE,
    ARTIFACT_POC,
    ARTIFACT_REPORT,
    ARTIFACT_SESSION,
    ARTIFACT_TRACE,
)
from .trace import iter_console_lines, read_trace

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

_END_DELIMITERS = (
    re.compile(r"^(\[[^\]]*\]\s*)?=+$"),
    re.compile(r"---\[ end "),
)
_REPORT_LINE_CAP = 120

_LOCATION_RE = re.compile(r"([\w/.\-]+\.[ch]):(\d+)")


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

    def to_json(self) -> str:
        d = {
            "case_id": self.case_id,
            "success": self.success,
            "reason": self.reason,
            "crash": None,
            "cheat_flags": [asdict(f) for f in self.cheat_flags],
            "elapsed_min": self.elapsed_min,
            "cost_usd": self.cost_usd,
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


def parse_crash_reports(console_text: str) -> List[CrashReport]:
    """One report per recognized banner; the block extends to the
    end-of-report delimiter or a fixed line cap."""
    lines = console_text.splitlines()
    reports = []
    i = 0
    while i < len(lines):
        hit = _classify_banner(lines[i])
        if hit is None:
            i += 1
            continue
        crash_class, sanitizer, func = hit
        block = [lines[i]]
        j = i + 1
        while j < len(lines) and len(block) < _REPORT_LINE_CAP:
            block.append(lines[j])
            if any(rx.search(lines[j]) for rx in _END_DELIMITERS):
                j += 1
                break
            # a new banner starts the next report
            if _classify_banner(lines[j]) is not None:
                block.pop()
                break
            j += 1
        raw = "\n".join(block)
        location = None
        loc_m = _LOCATION_RE.search(raw)
        if loc_m:
            location = "%s:%s" % (loc_m.group(1), loc_m.group(2))
        reports.append(CrashReport(
            crash_class=crash_class,
            sanitizer=sanitizer,
            crash_function=func,
            location=location,
            first_line_index=i,
            raw_block=raw,
        ))
        i = max(j, i + 1)
    return reports


def detect_cheat(trace_events, crashes: List[CrashReport]) -> List[CheatFlag]:
    """Flag every crash that follows any debugger mutation in the session.

    Rule R1: any pre-crash mutation taints all later crashes.  When the
    mutation and the crash share a stopped episode, the kind is refined.
    Post-crash debugging is legitimate and never flagged.  A crash whose
    console line maps to no trace seq cannot be placed before the first
    mutation, so it is flagged as ``unmapped_crash`` against that mutation.
    """
    if not isinstance(trace_events, list):
        raise MalformedTrace("expected a list of trace events")
    mutations = [e for e in trace_events if e.get("kind") == "mutation"]
    if not mutations or not crashes:
        return []

    # Map each console transcript index to the trace seq that produced it.
    index_to_seq = {}
    for idx, seq, _line in iter_console_lines(trace_events):
        index_to_seq[idx] = seq

    flags = []
    for crash in crashes:
        crash_seq = index_to_seq.get(crash.first_line_index)
        if crash_seq is None:
            flags.append(CheatFlag(kind="unmapped_crash",
                                   mutation_seq=mutations[0]["seq"],
                                   crash_index=crash.first_line_index))
            continue
        for mut in mutations:
            if mut["seq"] < crash_seq:
                kind = "mutation_before_crash"
                if mut.get("stopped_episode") is not None:
                    kind = "crash_while_stopped_after_mutation"
                flags.append(CheatFlag(kind=kind, mutation_seq=mut["seq"],
                                       crash_index=crash.first_line_index))
                break
    return flags


def decide(artifacts_dir: str, case_id: Optional[str] = None) -> Verdict:
    """Final success decision over a completed artifact directory.

    Success requires, in order: PoC present, report present, at least one
    crash, and no cheat flags; the reason records the first failure.
    """
    trace_path = os.path.join(artifacts_dir, ARTIFACT_TRACE)
    console_path = os.path.join(artifacts_dir, ARTIFACT_CONSOLE)
    if not os.path.isfile(trace_path) or not os.path.isfile(console_path):
        raise ArtifactsIncomplete(artifacts_dir)

    session = {}
    session_path = os.path.join(artifacts_dir, ARTIFACT_SESSION)
    if os.path.isfile(session_path):
        with open(session_path, "r", encoding="utf-8") as fh:
            session = json.load(fh)
    case_id = case_id or session.get("case_id", os.path.basename(artifacts_dir))

    with open(console_path, "r", encoding="utf-8") as fh:
        console_text = fh.read()
    events = read_trace(trace_path)
    crashes = parse_crash_reports(console_text)
    cheat_flags = detect_cheat(events, crashes)

    elapsed_min = float(session.get("elapsed_min", 0.0))
    cost = str(session.get("cost_usd", "0"))
    termination = session.get("termination", "finalized")

    has_poc = os.path.isfile(os.path.join(artifacts_dir, ARTIFACT_POC))
    has_report = os.path.isfile(os.path.join(artifacts_dir, ARTIFACT_REPORT))

    if not has_poc:
        reason = ("budget_exhausted"
                  if termination == "budget_exhausted" and not crashes
                  else "missing_poc")
        return Verdict(case_id, False, reason, crashes, cheat_flags,
                       elapsed_min, cost)
    if not has_report:
        return Verdict(case_id, False, "missing_report", crashes, cheat_flags,
                       elapsed_min, cost)
    if not crashes:
        reason = ("budget_exhausted" if termination == "budget_exhausted"
                  else "no_crash")
        return Verdict(case_id, False, reason, [], cheat_flags,
                       elapsed_min, cost)
    if cheat_flags:
        return Verdict(case_id, False, "cheat", crashes, cheat_flags,
                       elapsed_min, cost)
    return Verdict(case_id, True, "crashed", crashes, [],
                   elapsed_min, cost)


def write_verdict(artifacts_dir: str, verdict: Verdict):
    with open(os.path.join(artifacts_dir, "verdict.json"), "w",
              encoding="utf-8") as fh:
        fh.write(verdict.to_json())
