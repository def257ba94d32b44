"""Session trace: the append-only JSON-lines event log.

One event per line: ``{seq, t_rel_ms, kind, ...}`` with kinds ``tool_call``,
``tool_result``, ``console``, ``model_usage``, ``lifecycle``, ``mutation``.
Sequence numbers are gapless within a session.  A ``console`` event holds
the guest ``lines`` one tool call added (none holds a ``"\n"``) and their
``origins``: ``console``, ``kernel`` or ``lifecycle``, one per line.

Each ``tool_call`` is answered by exactly one ``tool_result``, later in the
trace, whose ``call_seq`` is the call's seq.  ``fold`` is the one reader of
the events: one walk checks that pairing and gives the paired calls, the
console lines, the kernel lines and the mutations.
"""

import json
import time
from typing import Dict, List, NamedTuple, Tuple

from .errors import CompileFailed, HostPathRefused, MalformedTrace, UploadFailed

EVENT_KINDS = ("tool_call", "tool_result", "console", "model_usage",
               "lifecycle", "mutation")
DEFAULT_UTILITY_WATCHLIST = ("nft", "tc", "ip", "ethtool", "iptables")
# Errors of a vm.compile_upload call that still count as a PoC iteration.
POC_ATTEMPT_ERRORS = (CompileFailed.name, HostPathRefused.name,
                      UploadFailed.name)


class Trace:
    def __init__(self):
        self.events: List[dict] = []
        self._t0 = time.monotonic()

    def record(self, kind: str, **fields) -> dict:
        if kind not in EVENT_KINDS:
            raise ValueError("unknown event kind %r" % kind)
        # The seq is the event's place in the trace, so seqs are gapless.
        event = {"seq": len(self.events) + 1,
                 "t_rel_ms": int((time.monotonic() - self._t0) * 1000),
                 "kind": kind}
        event.update(fields)
        self.events.append(event)
        return event

    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            for event in self.events:
                fh.write(json.dumps(event, sort_keys=True) + "\n")


# The scanner behind ``json.loads``, without its per-call wrapper.  A line
# that starts with a value and ends with it (or with its newline) decodes
# here; every other line goes through ``json.loads`` itself, so what is
# accepted, skipped or rejected, and each error's wording, are its own.
_scan_once = json.JSONDecoder().scan_once


def read_trace(path: str) -> List[dict]:
    events = []
    last_seq = 0
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                try:
                    event, end = _scan_once(line, 0)
                except (StopIteration, ValueError):
                    end = None
                if end is None or line[end:] not in ("\n", ""):
                    if not line.strip():
                        continue
                    try:
                        event = json.loads(line)
                    except json.JSONDecodeError as exc:
                        raise MalformedTrace("line %d: %s" % (lineno, exc))
                if not isinstance(event, dict) or "seq" not in event \
                        or "kind" not in event:
                    raise MalformedTrace("line %d: not a trace event" % lineno)
                if event["seq"] != last_seq + 1:
                    raise MalformedTrace(
                        "line %d: sequence gap (%d after %d)"
                        % (lineno, event["seq"], last_seq))
                last_seq = event["seq"]
                events.append(event)
    except OSError as exc:
        raise MalformedTrace(str(exc))
    return events


class Folded(NamedTuple):
    console: List[str]  # every console line, in order: console.log
    kernel: List[Tuple[int, str]]  # (seq, line) of each kernel-origin line
    mutations: List[dict]  # the mutation events, in order
    calls: List[Tuple[dict, dict]]  # (tool_call, its tool_result) pairs
    breakpoints_hit: int

    @property
    def measures(self) -> dict:
        """Tool counts and behaviour measures of the paired calls.  Raises
        MalformedTrace for a call whose ``args`` is not an object and a
        result whose ``error`` is neither null nor an object."""
        by_category: Dict[str, int] = {}
        poc_iterations = breakpoints_set = 0
        utilities: Dict[str, int] = {}
        procfs_accesses = sysfs_accesses = 0
        for call, result in self.calls:
            category = call.get("category", "unknown")
            by_category[category] = by_category.get(category, 0) + 1
            name, error = call.get("name"), result.get("error")
            args = call.get("args") or {}
            if not isinstance(args, dict):
                raise MalformedTrace("seq %s: call args are not an object"
                                     % call["seq"])
            if not (error is None or isinstance(error, dict)):
                raise MalformedTrace("seq %s: result error is not an object"
                                     % result["seq"])
            if name == "vm.exec":
                command = str(args.get("command", ""))
                words = command.split()
                if words and words[0] in DEFAULT_UTILITY_WATCHLIST:
                    utilities[words[0]] = utilities.get(words[0], 0) + 1
                procfs_accesses += command.count("/proc/")
                sysfs_accesses += command.count("/sys/")
            elif name == "vm.compile_upload" and (
                    error is None or error.get("name") in POC_ATTEMPT_ERRORS):
                poc_iterations += 1
            elif name == "dbg.breakpoint" and error is None \
                    and args.get("action") == "set":
                breakpoints_set += 1
        return {
            "tool_counts": by_category,
            "total_tool_calls": sum(by_category.values()),
            "poc_iterations": poc_iterations,
            "breakpoints_set": breakpoints_set,
            "breakpoints_hit": self.breakpoints_hit,
            "utility_invocations": utilities,
            "procfs_accesses": procfs_accesses,
            "sysfs_accesses": sysfs_accesses,
        }


def fold(events) -> Folded:
    """The one reading of a session's events, in a single pass.  Raises
    MalformedTrace for a result that names no open call (one whose
    ``call_seq`` is a list or an object included), a call left without a
    result, a console event whose ``lines`` is not a list of strings, and
    one whose ``origins`` is not a list as long as its ``lines``.  A
    console event without ``origins`` gives no kernel line."""
    console, kernel, mutations, calls = [], [], [], []
    open_calls = {}  # seq -> tool_call event still waiting for its result
    breakpoints_hit = 0
    for event in events:
        kind = event["kind"]
        if kind == "tool_call":
            open_calls[event["seq"]] = event
        elif kind == "tool_result":
            try:
                call = open_calls.pop(event.get("call_seq"), None)
            except TypeError:  # a list or an object names no call
                call = None
            if call is None:
                raise MalformedTrace("seq %s: result for no open call (%r)"
                                     % (event["seq"], event.get("call_seq")))
            calls.append((call, event))
        elif kind == "console":
            lines = event.get("lines")
            try:
                if not isinstance(lines, list):
                    raise TypeError
                # Raises TypeError for an item that is not a str, with no
                # Python step per line.
                "".join(lines)
            except TypeError:
                raise MalformedTrace("seq %s: console lines are not a list "
                                     "of strings" % event["seq"]) from None
            console += lines
            if "origins" in event:
                origins = event["origins"]
                if not (isinstance(origins, list)
                        and len(origins) == len(lines)):
                    raise MalformedTrace("seq %s: console origins do not "
                                         "match its lines" % event["seq"])
                seq = event["seq"]
                kernel += [(seq, line) for line, origin in zip(lines, origins)
                           if origin == "kernel"]
        elif kind == "mutation":
            mutations.append(event)
        elif kind == "lifecycle" and event.get("event") == "gate_stopped" \
                and event.get("reason") == "stopped_breakpoint":
            breakpoints_hit += 1
    if open_calls:
        raise MalformedTrace("seq %s: call without a result" % min(open_calls))
    return Folded(console, kernel, mutations, calls, breakpoints_hit)
