"""Session trace: the append-only JSON-lines event log.

One event per line: ``{seq, t_rel_ms, kind, ...}`` with kinds ``tool_call``,
``tool_result``, ``console``, ``model_usage``, ``lifecycle``, ``mutation``.
Sequence numbers are gapless within a session.  A ``console`` event holds
the guest ``lines`` one tool call added (none holds a ``"\n"``) and their
``origins``: ``console``, ``kernel`` or ``lifecycle``, one per line.
"""

import json
import time
from itertools import chain
from typing import List, Tuple

from .errors import MalformedTrace

EVENT_KINDS = ("tool_call", "tool_result", "console", "model_usage",
               "lifecycle", "mutation")


class Trace:
    def __init__(self):
        self.events: List[dict] = []
        self._t0 = time.monotonic()
        self._seq = 0

    def record(self, kind: str, **fields) -> dict:
        if kind not in EVENT_KINDS:
            raise ValueError("unknown event kind %r" % kind)
        self._seq += 1
        event = {"seq": self._seq,
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


def console_text(events) -> str:
    """The session's console lines, in order, joined by newlines: what
    ``console.log`` holds, less its final newline."""
    return "\n".join(chain.from_iterable(
        e["lines"] for e in events if e["kind"] == "console"))


def kernel_lines(events) -> List[Tuple[int, str]]:
    """(seq, line) for each kernel-origin console line, in order.  A console
    event without ``origins`` gives no kernel line.  Raises MalformedTrace
    for a console event whose ``lines`` is not a list of strings, or whose
    ``origins`` is not a list as long as its ``lines``."""
    console = [e for e in events if e["kind"] == "console"]
    for e in console:
        lines = e.get("lines")
        try:
            if not isinstance(lines, list):
                raise TypeError
            # Raises TypeError for an item that is not a str, with no
            # Python step per line.
            "".join(lines)
        except TypeError:
            raise MalformedTrace("seq %s: console lines are not a list of "
                                 "strings" % e["seq"]) from None
        if "origins" in e and not (isinstance(e["origins"], list)
                                   and len(e["origins"]) == len(lines)):
            raise MalformedTrace("seq %s: console origins do not match its "
                                 "lines" % e["seq"])
    return [(e["seq"], line) for e in console
            for line, origin in zip(e["lines"], e.get("origins", ()))
            if origin == "kernel"]
