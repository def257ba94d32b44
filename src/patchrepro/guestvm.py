"""Guest lifecycle and console interaction.

The guest is a deterministic mock driven by a scenario file: booted from
an immutable snapshot, answering console commands from the scenario's
rules and a tiny builtin shell, and shelling out only to compile PoCs on
the host.

``build_poc`` is that compile; ``compile_and_upload`` builds and then uploads.
A build is keyed by its ``digest``, the sha256 of the resolved compiler
path, the compile flags and the source, and a session's one guest handle
keeps its successful builds by that key in ``GuestHandle.builds`` across
its reboots: a source the session has built is uploaded again without a
compile.  Nothing else keeps a build, so a second session over the same
environment compiles again.  A build that read a host file outside the
compiler's system include dirs is refused, and its log, which would quote
the file, is not shown; no diagnostic quotes a source line.

A single multiplexed channel carries both command output and kernel log
lines.  The guest tags each line with its origin where it makes the line:
``console``, ``kernel`` or ``lifecycle``.  A line ends at ``"\n"`` only.
"""

import copy
import hashlib
import json
import os
import re
import shutil
import signal
import subprocess
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Tuple

from .errors import (
    CompileFailed,
    DebuggeeHalted,
    EnvBootFailed,
    GuestUnavailable,
    HostPathRefused,
    InvalidParams,
    SnapshotFailed,
    UploadFailed,
)

DEFAULT_EXEC_TIMEOUT_S = 30.0
# The longest a PoC compile may take, in seconds of wall-clock time.
COMPILE_TIMEOUT_S = 60.0
# The most of a compiler's log a build keeps, in characters.
COMPILE_LOG_MAX_CHARS = 8192
# Passed before ``-o``; they are part of a build's key.  To draw a caret
# under a diagnostic, gcc reads the source line from the file a ``#line``
# directive names, which no dependency list shows, so no caret is drawn.
COMPILE_FLAGS = ("-O1", "-fno-diagnostics-show-caret")

# In scenario-authored text (boot banner, rule responses), a line that starts
# with a printk timestamp is the kernel's.  No text taken from a tool
# argument is matched against it.
_PRINTK_TS_RE = re.compile(r"\[\s*\d+\.\d+\]")


def split_lines(text: str) -> List[str]:
    """The lines of guest text: each ends at ``"\n"``, and a final newline
    ends the last line rather than starting an empty one."""
    lines = text.split("\n")
    return lines[:-1] if lines[-1] == "" else lines


class DebugGate:
    """Shared flag between the debugger bridge and the console tools.

    While the debuggee is halted at a breakpoint (or any other stop reason),
    every guest interaction operation must fail with DebuggeeHalted so the
    agent attributes the silence to the stop, not to a hang.
    """

    RUNNING = "running"
    STOPPED_BREAKPOINT = "stopped_breakpoint"
    STOPPED_OTHER = "stopped_other"

    def __init__(self):
        self.state = self.RUNNING
        self.bp_id: Optional[str] = None
        self.reason: Optional[str] = None

    def stop_breakpoint(self, bp_id):
        self.state = self.STOPPED_BREAKPOINT
        self.bp_id = bp_id

    def stop_other(self, reason):
        self.state = self.STOPPED_OTHER
        self.reason = reason

    def resume(self):
        self.state = self.RUNNING
        self.bp_id = None
        self.reason = None

    @property
    def is_stopped(self):
        return self.state != self.RUNNING

    def check(self):
        if self.is_stopped:
            raise DebuggeeHalted("debuggee halted (%s)" % self.state)


@dataclass(frozen=True)
class SnapshotRef:
    """A restorable guest state: the scenario path and the guest state
    every boot starts from.  A boot copies it and never changes it."""

    snapshot_id: str
    state: dict


@dataclass
class ConsoleOutput:
    text: str
    duration_ms: int
    timed_out: bool
    kernel_lines: List[str] = field(default_factory=list)


@dataclass
class UploadResult:
    guest_path: str
    binary_size: int
    compile_log: str
    compiler_id: str


@dataclass(frozen=True)
class PocBuild:
    """One successful PoC compile: the binary's bytes, the compiler's log,
    the compiler that ran (see ``_CompilerFacts``) and the build's
    ``digest`` (see ``build_poc``)."""

    digest: str
    binary: bytes
    compile_log: str
    compiler_id: str


@dataclass
class ScenarioRule:
    pattern: str
    response: str = ""
    post: str = "ok"  # ok | hang | emit_crash:<file next to the scenario>


class GuestScenario:
    """Deterministic mock-guest behaviour loaded from a JSON scenario file."""

    def __init__(self, boot_banner, prompt, rules, base_dir, scenario_id,
                 debug=None):
        self.boot_banner = boot_banner
        self.prompt = prompt
        self.rules: List[ScenarioRule] = rules
        self.base_dir = base_dir
        self.scenario_id = scenario_id  # the scenario file's name
        self.debug = debug or {}  # scripted debug-stub config

    @classmethod
    def load(cls, path) -> "GuestScenario":
        """The scenario at ``path``; raises ``EnvBootFailed`` for a rule
        whose ``post`` is not ``ok``, ``hang`` or ``emit_crash:`` a file
        that exists."""
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        base_dir = os.path.dirname(os.path.abspath(path))
        rules = [ScenarioRule(**r) for r in raw.get("rules", [])]
        for rule in rules:
            kind, _, crash = str(rule.post).partition(":")
            if rule.post not in ("ok", "hang") and not (
                    kind == "emit_crash"
                    and os.path.isfile(os.path.join(base_dir, crash))):
                raise EnvBootFailed("scenario %s: rule %r has post %r"
                                    % (os.path.basename(path), rule.pattern,
                                       rule.post))
        return cls(
            boot_banner=raw.get("boot_banner", "fixture kernel booting"),
            prompt=raw.get("prompt", "repro$ "),
            rules=rules,
            base_dir=base_dir,
            scenario_id=os.path.basename(path),
            debug=raw.get("debug"),
        )

    def crash_text(self, name) -> str:
        with open(os.path.join(self.base_dir, name), "r", encoding="utf-8") as fh:
            return fh.read()


class MockGuest:
    """In-process guest: scenario rules plus a tiny builtin shell.

    Builtins cover just enough surface for fixtures: ``echo``, ``touch``,
    ``cat`` of touched files, and ``sleep``.  Everything else is answered by
    scenario rules, uploaded-program registration, or command-not-found.
    ``./prog`` is not found, whatever the rules say, unless ``prog`` was
    uploaded since the guest's last boot.
    """

    def __init__(self, scenario: GuestScenario, state: Optional[dict] = None):
        self.scenario = scenario
        self.state = state or {
            "scenario_id": scenario.scenario_id,
            "files": {},
            "programs": [],
            "blocked_utilities": [],
            "booted": True,
        }
        self.hung = False

    def state_digest(self) -> str:
        blob = json.dumps(self.state, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()

    def run_command(self, command: str, timeout_s: float
                    ) -> Tuple[str, bool, Optional[ScenarioRule]]:
        """Returns (output_text, timed_out, rule): the scenario rule that
        answered, or None when the builtin shell did."""
        cmd = command.strip()
        argv = cmd.split()
        if not argv:
            return "", False, None
        prog = argv[0]

        if prog in self.state["blocked_utilities"] or (
                prog.startswith("./")
                and prog[2:] not in self.state["programs"]):
            return "sh: %s: command not found\n" % prog, False, None

        for rule in self.scenario.rules:
            if re.search(rule.pattern, cmd):
                if rule.post == "hang":
                    self.hung = True
                return rule.response, rule.post == "hang", rule

        if prog == "echo":
            return cmd[len("echo"):].strip() + "\n", False, None
        if prog == "touch" and len(argv) == 2:
            self.state["files"][argv[1]] = ""
            return "", False, None
        if prog == "cat" and len(argv) == 2:
            if argv[1] in self.state["files"]:
                return self.state["files"][argv[1]] + "\n", False, None
            return "cat: %s: No such file or directory\n" % argv[1], False, None
        if prog == "sleep" and len(argv) == 2:
            try:
                secs = float(argv[1])
            except ValueError:
                secs = 0.0
            if secs > timeout_s:
                return "", True, None
            return "", False, None
        if prog.startswith("./"):
            return "", False, None
        return "sh: %s: command not found\n" % prog, False, None


class GuestHandle:
    """A session's one guest: booted from its snapshot, and booted again in
    place by ``restart_guest`` or a later ``vm.start``.  It alone holds the
    guest's debug gate, transcript, PoC builds and debugger."""

    def __init__(self, snapshot_ref: SnapshotRef):
        self.snapshot_ref = snapshot_ref
        self.boots = 0  # guest ids count them
        self.gate = DebugGate()
        self.transcript: List[dict] = []  # {origin, line}
        # PoC builds by digest: they outlive a reboot, and nothing else
        # keeps them, so they live exactly one session.
        self.builds: Dict[str, PocBuild] = {}

    def _restore(self):
        """Replace the guest with a fresh copy of the snapshot: the next
        guest id, the gate running, no debugger attached."""
        state = self.snapshot_ref.state
        self.mock = MockGuest(GuestScenario.load(state["scenario_path"]),
                              state=copy.deepcopy(state["guest_state"]))
        self.boots += 1
        self.guest_id = "guest-%d" % self.boots
        self.state = "running"  # | unresponsive, once a crash is emitted
        self.gate.resume()
        self.debug_stub = None  # MI responder a debug session talks to
        self.debug_session = None  # the one attached kdbg.DebugSession

    def boot(self) -> "GuestHandle":
        """Restore the guest from the snapshot and log its boot banner."""
        self._restore()
        self.append_scenario_text(self.mock.scenario.boot_banner)
        self.append_transcript([self.mock.scenario.prompt + "# ready"])
        return self

    # transcript -------------------------------------------------------------

    def append_transcript(self, lines, origin="console"):
        for line in lines:
            self.transcript.append({"origin": origin, "line": line})

    def append_scenario_text(self, text):
        """Append scenario-authored text: its printk-stamped lines are the
        kernel's, the rest are console output."""
        for line in split_lines(text):
            self.transcript.append({
                "origin": "kernel" if _PRINTK_TS_RE.match(line) else "console",
                "line": line})

    def state_digest(self) -> str:
        return self.mock.state_digest()


# --- lifecycle operations ---------------------------------------------------

def start_guest(env) -> GuestHandle:
    """Boot a session's guest from the environment's snapshot."""
    return restore_from_snapshot(env.snapshot_ref)


def restore_from_snapshot(snap: SnapshotRef) -> GuestHandle:
    return GuestHandle(snap).boot()


def restart_guest(handle: GuestHandle) -> GuestHandle:
    """Discard the guest and restore it from its snapshot, in place; the
    transcript records the restart, not a boot banner."""
    handle._restore()
    handle.append_transcript(["== guest restarted =="], origin="lifecycle")
    return handle


def create_snapshot(state: dict) -> SnapshotRef:
    """Freeze ``state`` (a ``scenario_path`` and a ``guest_state``) for
    identical boots."""
    if not state.get("guest_state", {}).get("booted"):
        raise SnapshotFailed("guest not booted")
    snap_id = hashlib.sha256(
        json.dumps(state, sort_keys=True).encode()).hexdigest()[:16]
    return SnapshotRef(snapshot_id=snap_id, state=state)


# --- console operations -----------------------------------------------------

def exec_console(handle: GuestHandle, command: str,
                 timeout_s: float = DEFAULT_EXEC_TIMEOUT_S) -> ConsoleOutput:
    """Send one command over the console and collect output until prompt or
    timeout.  The kernel-origin lines among the output are also returned as
    ``kernel_lines``."""
    if "\n" in command:
        raise InvalidParams("a console command is one line")
    handle.gate.check()
    if handle.state != "running":
        raise GuestUnavailable("guest state is %s" % handle.state)

    started = time.monotonic()
    out, timed_out, rule = handle.mock.run_command(command, timeout_s)
    handle.append_transcript([handle.mock.scenario.prompt + command])
    first = len(handle.transcript)
    if rule is None:
        handle.append_transcript(split_lines(out))
    else:
        handle.append_scenario_text(out)
        if rule.post.startswith("emit_crash:"):
            crash = handle.mock.scenario.crash_text(rule.post.split(":", 1)[1])
            handle.append_transcript(split_lines(crash), origin="kernel")
            handle.state = "unresponsive"
    output = handle.transcript[first:]

    duration_ms = int((time.monotonic() - started) * 1000)
    return ConsoleOutput(
        text="".join(e["line"] + "\n" for e in output),
        duration_ms=duration_ms,
        timed_out=timed_out,
        kernel_lines=[e["line"] for e in output if e["origin"] == "kernel"],
    )


def send_signal(handle: GuestHandle, signal: str) -> dict:
    """Deliver interrupt/break to the foreground guest program."""
    handle.gate.check()
    if handle.state != "running":
        raise GuestUnavailable("guest state is %s" % handle.state)
    if signal not in ("interrupt", "break"):
        raise ValueError("unknown signal %r" % signal)
    regained = False
    if handle.mock.hung:
        handle.mock.hung = False
        regained = True
        handle.append_transcript(["^C", handle.mock.scenario.prompt], origin="console")
    return {"signal": signal, "prompt_regained": regained}


def _run_compiler(argv: List[str], work_dir: str,
                  deadline: float) -> Tuple[int, str]:
    """Run one compiler command in ``work_dir``, which also holds its
    temporary files, until ``deadline`` (a ``time.monotonic`` reading);
    its return code and its log (stderr).

    The compiler reads nothing from stdin, which under serve-tools is the
    JSON-RPC stream, and runs in a process group of its own, so a timeout
    ends cc1 and as along with the driver."""
    with subprocess.Popen(argv, cwd=work_dir,
                          env=dict(os.environ, TMPDIR=work_dir),
                          stdin=subprocess.DEVNULL,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, start_new_session=True) as proc:
        try:
            log = proc.communicate(
                timeout=max(0.0, deadline - time.monotonic()))[1]
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise CompileFailed("compilation timed out after %g s"
                                % COMPILE_TIMEOUT_S)
    return proc.returncode, log


class _CompilerFacts(NamedTuple):
    """What ``cc -E -v`` tells of a compiler: the real paths of its
    ``#include <...>`` search list (empty if it prints none), and its id,
    the resolved compiler path then the ``gcc version`` and ``Target:``
    lines of the log, "; "-separated."""

    include_dirs: Tuple[str, ...]
    compiler_id: str


# The facts of each compiler path that has run ``cc -E -v`` in this process.
_COMPILER_FACTS: Dict[str, _CompilerFacts] = {}


def _compiler_facts(cc: str) -> _CompilerFacts:
    """``cc``'s facts: they belong to the compiler, not to a build, so the
    process runs ``cc -E -v`` once per compiler path."""
    if cc not in _COMPILER_FACTS:
        code, log = _run_compiler(
            [cc, "-E", "-v", "-x", "c", os.devnull, "-o", os.devnull],
            tempfile.gettempdir(), time.monotonic() + COMPILE_TIMEOUT_S)
        search = re.search(r"^#include <\.\.\.> search starts here:\n(.*?)"
                           r"^End of search list\.", log, re.M | re.S)
        _COMPILER_FACTS[cc] = _CompilerFacts(
            () if code != 0 or search is None else tuple(
                os.path.realpath(line.strip())
                for line in search[1].splitlines()),
            "; ".join([cc] + [line.strip() for line in re.findall(
                r"^(?:gcc version |Target: ).*", log, re.M)]))
    return _COMPILER_FACTS[cc]


def _listed_reads(path: str) -> Optional[List[str]]:
    """The files named in the make rule that ``gcc -MD`` or ``as --MD``
    wrote at ``path`` (a backslash escapes the next character, and ends a
    line that goes on), or None if none was written."""
    try:
        with open(path, encoding="utf-8", errors="surrogateescape") as fh:
            rule = fh.read().replace("\\\n", " ")
    except FileNotFoundError:
        return None
    return [re.sub(r"\\(.)", r"\1", name.replace("$$", "$"))
            for name in re.findall(r"(?:\\.|[^\s\\])+",
                                   rule.partition(": ")[2])]


def _refuse_host_reads(cc: str, build_dir: str, reads: List[str]) -> None:
    """Raise ``HostPathRefused`` unless each file a build read lies in
    ``build_dir`` or under one of ``cc``'s system include dirs."""
    def within(path, dirs):
        return any(path == d or path.startswith(d.rstrip(os.sep) + os.sep)
                   for d in dirs)

    build_real = os.path.realpath(build_dir)
    for name in reads:
        real = os.path.realpath(os.path.join(build_real, name))
        if not within(real, (build_real,)) and not within(
                real, _compiler_facts(cc).include_dirs):
            raise HostPathRefused(
                "the PoC build reads %s, outside the system include dirs"
                % name.replace(build_dir + os.sep, ""))


def build_poc(source_text: str, builds: Dict[str, PocBuild]) -> PocBuild:
    """Compile C source on the host into a ``PocBuild``.

    ``builds`` maps a build's key, its ``digest``, to the build: a
    session's ``GuestHandle.builds``, or ``{}`` for a one-off build.  The
    key is the sha256 of the resolved compiler path, ``COMPILE_FLAGS`` and
    the source.  A build with the same key is reused, and only a
    successful build is kept, so a failed or timed-out one is built again
    the next time.  A host header that changes in the middle of a session
    is not in the key, so a reuse does not see it.

    The compiler (``-MD``) and the assembler (``--MD``) list every file
    they read.  A build that read a file outside the build dir and the
    compiler's system include dirs raises ``HostPathRefused`` with no log,
    as the log of an ``#include`` or ``.include`` quotes the file.  GNU as
    lists its reads only when it succeeds, so a failed assembly shows no
    log either.  A ``__has_include`` probe reads no file content and is
    not listed.  The log is capped at ``COMPILE_LOG_MAX_CHARS``, and all
    the compiler runs of a build share one ``COMPILE_TIMEOUT_S``.
    """
    cc = shutil.which("gcc") or shutil.which("cc")
    if cc is None:
        raise CompileFailed("no host C compiler available")
    digest = hashlib.sha256(
        json.dumps([cc, *COMPILE_FLAGS, source_text]).encode()).hexdigest()
    if digest in builds:
        return builds[digest]
    deadline = time.monotonic() + COMPILE_TIMEOUT_S
    with tempfile.TemporaryDirectory(prefix="pocbuild-") as tmp:
        with open(os.path.join(tmp, "poc.c"), "w", encoding="utf-8") as fh:
            fh.write(source_text)

        def run(*args):
            return _run_compiler([cc, *COMPILE_FLAGS, *args], tmp, deadline)

        def listed(name):
            return _listed_reads(os.path.join(tmp, name))

        code, log = run("-MD", "-MF", "poc.c.d", "-Wa,--MD,poc.s.d",
                        "-o", "poc", "poc.c")
        as_reads = listed("poc.s.d")
        if as_reads is None and code != 0:
            # cc1 or as failed, and as lists nothing when it fails.  Compiled
            # again to assembly only, a failure is cc1's, and its log is all.
            code_s, log = run("-S", "-MD", "-MF", "poc.c.d", "-o", "poc.s",
                              "poc.c")
            if code_s == 0:
                raise CompileFailed("assembly failed; the assembler lists no "
                                    "files it read, so no log is shown")
            as_reads = []
        reads = listed("poc.c.d")
        if reads is None and code != 0:
            # A fatal preprocessor error (a missing header, say) lists
            # nothing; -MG lists what the source reads without stopping.
            run("-M", "-MG", "-MF", "poc.c.d", "poc.c")
            reads = listed("poc.c.d")
        if reads is None or as_reads is None:
            raise CompileFailed("compilation failed; the compiler did not "
                                "list the files it read, so no log is shown")
        reads += as_reads
        _refuse_host_reads(cc, tmp, reads)
        log = log.replace(tmp + os.sep, "")
        if len(log) > COMPILE_LOG_MAX_CHARS:
            log = (log[:COMPILE_LOG_MAX_CHARS]
                   + "\n[log cut at %d characters]\n" % COMPILE_LOG_MAX_CHARS)
        if code != 0:
            raise CompileFailed("compilation failed", compile_log=log)
        with open(os.path.join(tmp, "poc"), "rb") as fh:
            # The id names the version only once a build has read a host
            # header (gcc reads one for every build): no compiler is run
            # for the id alone.
            facts = _COMPILER_FACTS.get(cc)
            build = PocBuild(digest=digest, binary=fh.read(), compile_log=log,
                             compiler_id=facts.compiler_id if facts else cc)
    builds[digest] = build
    return build


def upload_poc(handle: GuestHandle, build: PocBuild,
               dest_path: str) -> UploadResult:
    """Place a built PoC in the guest at ``dest_path``."""
    handle.mock.state["programs"].append(os.path.basename(dest_path))
    handle.append_transcript(
        ["== uploaded %s (%d bytes) ==" % (dest_path, len(build.binary))],
        origin="lifecycle")
    return UploadResult(guest_path=dest_path, binary_size=len(build.binary),
                        compile_log=build.compile_log,
                        compiler_id=build.compiler_id)


def compile_and_upload(handle: GuestHandle, source_text: str,
                       dest_path: str) -> UploadResult:
    """Build C source (once per session, see ``build_poc``) and place
    the binary in the guest.

    Every call that gets past the gate, a failed, refused or timed-out
    build included, is one PoC iteration (counted by ``trace.fold``).
    """
    if "\n" in dest_path:
        raise InvalidParams("a guest path is one line")
    handle.gate.check()
    if handle.state != "running":
        raise UploadFailed("guest state is %s" % handle.state)
    return upload_poc(handle, build_poc(source_text, handle.builds), dest_path)
