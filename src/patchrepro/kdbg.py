"""Debugger bridge over the MI protocol: breakpoints, the interaction gate
(console tools are suspended while the debuggee is halted) and the mutation
ledger.  ``DebugSession._send`` is every command's one path to the stub (an
object with one ``send`` method); it ledgers into the session trace each
command that the allowlist does not pass as a read, before sending it."""

import re
from dataclasses import dataclass
from typing import Dict, List, Optional

from . import mi
from .errors import (
    AlreadyAttached,
    InvalidParams,
    MalformedRecord,
    NotStopped,
    StubError,
    StubUnavailable,
    UnknownBreakpoint,
    UnresolvableLocation,
)
from .guestvm import DebugGate, GuestHandle
from .trace import Trace

# The allowlist: first words of MI and CLI reads (``_WRITES_RE`` checks args).
_READ_ONLY = frozenset("""
    -break-delete -break-insert -break-list -data-evaluate-expression
    -data-list-register-values -data-read-memory-bytes -exec-continue
    -exec-interrupt -exec-next -exec-step -stack-info-frame
    -stack-list-arguments -stack-list-frames -stack-list-locals
    -stack-select-frame -thread-info b backtrace break bt c continue delete
    down info list n next nexti ni output p print ptype s si step stepi up
    whatis x""".split())
# Writes named by what they write; any other command is "unclassified".
_WRITERS = {word: category for category, words in (
    ("function_call", "call -exec-call"),
    ("memory_write", "set -gdb-set -var-assign -data-write-memory-bytes "
                     "-data-write-memory"),
    ("register_write", "-data-write-register-values -exec-return -exec-jump "
                       "return jump")) for word in words.split()}
# One line: an MI token, then ``-interpreter-exec <interp> "<inner>"`` or
# the first word, a CLI format (x/4x) and the arguments.
_COMMAND_RE = re.compile(r'[ \t]*\d*(?:(?i:-interpreter-exec)\s+[\w-]+\s+'
                         r'(".*")\s*|([\w-]+)(?:/\w*)?([^\r\n]*))')
# MI options that may lead a read's arguments (--thread N, --frame N and
# the value and availability switches); an MI read is checked after them.
_MI_OPTIONS_RE = re.compile(r"(?:\s+(?:--(?:thread|frame)\s+[0-9]+"
                            r"|--(?:simple|all|no)-values|--skip-unavailable)"
                            r"(?!\S))*")
_REGISTER_RE = re.compile(r"\s*(?:var(?:iable)?\s+)?\$")  # set $rip = ...
# A write in the arguments: an assignment operator (not ==, !=, <=, >=),
# ++, --, or a call: "(" after a name other than sizeof, or after ")" or "]".
_WRITES_RE = re.compile(r"(?:<<|>>|[-+*/%&|^])=|(?<![=!<>])=(?!=)|\+\+|--"
                        r"|(?:(?<![$\w])(?!sizeof\s*\()[$\w]+|[)\]])\s*\(")


def classify_mutation(command_text: str) -> Optional[str]:
    """None for a read, else the category of write the command may make.

    Default-deny: a read's first word is on ``_READ_ONLY`` and its arguments
    match no ``_WRITES_RE``; ambiguous text is flagged, never passed.  An MI
    token is skipped, ``-interpreter-exec`` is its inner command, and a
    command that ``_WRITERS`` does not name is ``unclassified``."""
    command = _COMMAND_RE.fullmatch(command_text)
    while command and command[1]:
        try:
            command = _COMMAND_RE.fullmatch(mi.parse_cstring(command[1]))
        except MalformedRecord:
            command = None
    if not command:
        return "unclassified"
    word, args = command[2].lower(), command[3]
    if "--" in args and word[0] == "-":
        args = args[_MI_OPTIONS_RE.match(args).end():]
    if word in _READ_ONLY:
        return "expression_assignment" if _WRITES_RE.search(args) else None
    if word in ("set", "-gdb-set") and _REGISTER_RE.match(args):
        return "register_write"
    return _WRITERS.get(word, "unclassified")


@dataclass
class Breakpoint:
    bp_id: str
    location: str
    enabled: bool = True
    hit_count: int = 0


class DebugSession:
    """Single MI session against one guest; at most one per guest.  Its
    mutation ledger is the ``mutation`` events of ``trace``."""

    def __init__(self, handle: GuestHandle, stub, trace: Trace):
        self.stub = stub
        self.trace = trace
        self.gate: DebugGate = handle.gate
        self.breakpoints: Dict[str, Breakpoint] = {}

    # wire ------------------------------------------------------------------

    def _send(self, command: str, ledger_as: str = "") -> List[mi.MiRecord]:
        # The one path to the stub: a second line would be a command the
        # ledger never sees.  A write is ledgered (as ``ledger_as`` if given)
        # with its stopped episode: a breakpoint stop's id (its reason when
        # the stop names none), any other stop's reason, None while running.
        if "\n" in command or "\r" in command:
            raise InvalidParams("a debugger command is one line")
        category = classify_mutation(command)
        if category:
            episode = None
            if self.gate.state == DebugGate.STOPPED_BREAKPOINT:
                episode = self.gate.bp_id or "breakpoint-hit"
            elif self.gate.is_stopped:
                episode = self.gate.reason
            self.trace.record("mutation", command=ledger_as or command,
                              category=category, stopped_episode=episode)
        try:
            lines = self.stub.send(command)
        except StubUnavailable:
            raise
        except Exception as exc:  # stub transport died
            raise StubError(str(exc))
        records = []
        for line in lines:
            if mi.is_terminator(line):
                continue
            rec = mi.parse_mi_record(line)
            records.append(rec)
            self._apply_async(rec)
        return records

    def _apply_async(self, rec: mi.MiRecord):
        if rec.cls != mi.EXEC_ASYNC:
            return
        if rec.kind == "stopped":
            reason = rec.get("reason", default="")
            if reason == "breakpoint-hit":
                bpno = rec.get("bkptno", default=None)
                self.gate.stop_breakpoint(bpno)
                if bpno in self.breakpoints:
                    self.breakpoints[bpno].hit_count += 1
            else:
                self.gate.stop_other(reason or "unknown")
        elif rec.kind == "running":
            self.gate.resume()

    def feed_async_line(self, line: str):
        """Process one asynchronous MI line arriving outside a command
        exchange (the reader thread path on a live stub)."""
        if not mi.is_terminator(line):
            self._apply_async(mi.parse_mi_record(line))

    # operations ------------------------------------------------------------

    def manage_breakpoint(self, action: str, arg: Optional[str] = None):
        if action == "set":
            records = self._send('-break-insert %s' % arg)
            for rec in records:
                if rec.kind == "error":
                    raise UnresolvableLocation(rec.get("msg", default=arg))
                bkpt = rec.get("bkpt")
                if bkpt:
                    bp = Breakpoint(bp_id=bkpt["number"], location=arg)
                    self.breakpoints[bp.bp_id] = bp
                    return bp
            raise StubError("no bkpt record in response")
        if action == "delete":
            if arg not in self.breakpoints:
                raise UnknownBreakpoint(str(arg))
            self._send("-break-delete %s" % arg)
            del self.breakpoints[arg]
            return None
        if action == "list":
            return sorted(self.breakpoints.values(), key=lambda b: int(b.bp_id))
        raise ValueError("unknown breakpoint action %r" % action)

    def inspect_state(self, what: str, *args):
        """Registers, memory, or expression evaluation; an expression that
        writes is ledgered as ``expression: <expr>``."""
        if what == "registers":
            records = self._send("-data-list-register-values x")
        elif what == "memory":
            records = self._send("-data-read-memory-bytes %s %d" % args)
        elif what == "expression":
            (expr,) = args
            if not expr.strip():
                raise ValueError("empty expression")
            command = "-data-evaluate-expression " + mi.quote_cstring(expr)
            records = self._send(command, "expression: " + expr)
        else:
            raise ValueError("unknown inspect target %r" % what)
        for rec in records:
            if rec.kind == "error":
                raise StubError(rec.get("msg", default="stub error"))
        return records

    def raw_command(self, text: str) -> List[mi.MiRecord]:
        return self._send(text)

    def resume(self):
        if not self.gate.is_stopped:
            raise NotStopped()
        records = self._send("-exec-continue")
        for rec in records:
            if rec.kind == "error":
                raise StubError(rec.get("msg", default="continue failed"))
        if self.gate.is_stopped:
            # no running record arrived; treat as stub failure
            raise StubError("debuggee did not resume")
        return self.gate


def attach(handle: GuestHandle, stub=None,
           trace: Optional[Trace] = None) -> DebugSession:
    """Connect the single debug session for this guest; it ledgers into
    ``trace``, or into a trace of its own when none is given."""
    if handle.debug_session is not None:
        raise AlreadyAttached(handle.guest_id)
    if handle.state == "dead":
        raise StubUnavailable("guest is dead")
    if stub is None:
        stub = handle.debug_stub
    if stub is None:
        raise StubUnavailable("no debugger stub exposed by the guest")
    handle.debug_session = DebugSession(handle, stub, trace or Trace())
    return handle.debug_session


class ScriptedMiStub:
    """Deterministic MI responder for fixtures.

    Knows a symbol table, a memory map, expression values, and optional
    per-command scripted responses.  Commands it does not recognize get an
    empty ``^done``.  Each location, address, value and message it writes
    goes through ``mi.quote_cstring``, so one holding ``"`` or ``\\``
    reads back as itself.
    """

    def __init__(self, symbols=(), memory=None, expressions=None,
                 scripted=None, registers=None):
        self.symbols = set(symbols)
        self.memory = memory or {}
        self.expressions = expressions or {}
        self.scripted = scripted or {}  # exact command -> list of lines
        self.registers = registers or {"rip": "0xffffffff81000000"}
        self._bp_counter = 0

    def send(self, command: str) -> List[str]:
        if command in self.scripted:
            return list(self.scripted[command])
        quote = mi.quote_cstring
        if command.startswith("-break-insert "):
            loc = command.split(None, 1)[1]
            if loc not in self.symbols:
                return ["^error,msg=%s" % quote('Function "%s" not defined.'
                                                % loc), mi.TERMINATOR]
            self._bp_counter += 1
            return ['^done,bkpt={number="%d",type="breakpoint",func=%s,'
                    'addr="0xffffffff81%06x"}'
                    % (self._bp_counter, quote(loc), 0x100000 + self._bp_counter),
                    mi.TERMINATOR]
        if command.startswith("-break-delete"):
            return ["^done", mi.TERMINATOR]
        if command == "-exec-continue":
            return ["^running", '*running,thread-id="all"', mi.TERMINATOR]
        if command == "-data-list-register-values x":
            vals = ",".join('{number="%d",value=%s}' % (i, quote(v))
                            for i, v in enumerate(self.registers.values()))
            return ['^done,register-values=[%s]' % vals, mi.TERMINATOR]
        if command.startswith("-data-read-memory-bytes"):
            # The length is the last field; the address is all before it.
            addr, _, length = command.split(None, 1)[-1].rpartition(" ")
            data = self.memory.get(addr)
            if data is None:
                return ["^error,msg=%s" % quote("Cannot access memory at "
                                                "address %s" % addr),
                        mi.TERMINATOR]
            contents = data[: 2 * int(length)]
            return ['^done,memory=[{begin=%s,offset="0x0",end=%s,'
                    'contents=%s}]' % (quote(addr), quote(addr), quote(contents)),
                    mi.TERMINATOR]
        if command.startswith("-data-evaluate-expression"):
            expr = command.split(None, 1)[1].strip()
            if expr.startswith('"'):
                try:
                    expr = mi.parse_cstring(expr)
                except MalformedRecord as exc:
                    return ["^error,msg=%s" % quote(str(exc)), mi.TERMINATOR]
            if expr in self.expressions:
                value = self.expressions[expr]
                if value == "<optimized out>":
                    return ['^error,msg="value has been optimized out"',
                            mi.TERMINATOR]
                return ["^done,value=%s" % quote(value), mi.TERMINATOR]
            base = _WRITES_RE.split(expr)[0].strip()
            if base.startswith("p "):
                base = base[2:].strip()
            if base in self.expressions:
                return ["^done,value=%s" % quote(self.expressions[base]),
                        mi.TERMINATOR]
            return ['^done,value="0"', mi.TERMINATOR]
        return ["^done", mi.TERMINATOR]
