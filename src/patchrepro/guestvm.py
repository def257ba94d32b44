"""Guest lifecycle and console interaction.

The guest is a deterministic mock driven by a scenario file: booted from
an immutable snapshot, answering console commands from the scenario's
rules and a tiny builtin shell, and shelling out only to compile PoCs on
the host.

A snapshot pins its scenario file's content: ``create_snapshot`` records
the file's sha256, and a boot whose scenario bytes no longer match raises
``EnvBootFailed`` rather than answering from the edited file.

``compile_and_upload`` builds a PoC with ``pocbuild.build_poc``, which
keeps one build store per process, and then uploads it.

A single multiplexed channel carries both command output and kernel log
lines.  The guest tags each line with its origin where it makes the line:
``console``, ``kernel`` or ``lifecycle``.  A line ends at ``"\n"`` only.
"""

import copy
import dataclasses
import hashlib
import json
import os
import re
import time
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from .errors import (
    DebuggeeHalted,
    EnvBootFailed,
    GuestUnavailable,
    InvalidParams,
    SnapshotFailed,
    UploadFailed,
)
from .pocbuild import PocBuild, build_poc

DEFAULT_EXEC_TIMEOUT_S = 30.0

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
    """A restorable guest state: the scenario's path and sha256 and the
    guest state every boot starts from.  A boot copies it and never
    changes it."""

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
    def load(cls, path, sha256=None) -> "GuestScenario":
        """The scenario at ``path``.  Raises ``EnvBootFailed`` if ``sha256``
        is given and is not the file's, for a rule that is not an object
        with a ``pattern`` and no keys but ``ScenarioRule``'s, and for a
        rule whose ``post`` is not ``ok``, ``hang`` or ``emit_crash:`` a
        file that exists."""
        name = os.path.basename(path)
        with open(path, "rb") as fh:
            blob = fh.read()
        if sha256 is not None and hashlib.sha256(blob).hexdigest() != sha256:
            raise EnvBootFailed("scenario %s is not the content its snapshot "
                                "pins" % name)
        raw = json.loads(blob.decode("utf-8"))
        base_dir = os.path.dirname(os.path.abspath(path))
        keys = {f.name for f in dataclasses.fields(ScenarioRule)}
        rules = []
        for r in raw.get("rules", []):
            if not (isinstance(r, dict) and "pattern" in r
                    and keys.issuperset(r)):
                raise EnvBootFailed("scenario %s: rule %s is not an object "
                                    "of pattern, response and post"
                                    % (name, json.dumps(r)))
            rule = ScenarioRule(**r)
            kind, _, crash = str(rule.post).partition(":")
            if rule.post not in ("ok", "hang") and not (
                    kind == "emit_crash"
                    and os.path.isfile(os.path.join(base_dir, crash))):
                raise EnvBootFailed("scenario %s: rule %r has post %r"
                                    % (name, rule.pattern, rule.post))
            rules.append(rule)
        return cls(
            boot_banner=raw.get("boot_banner", "fixture kernel booting"),
            prompt=raw.get("prompt", "repro$ "),
            rules=rules,
            base_dir=base_dir,
            scenario_id=name,
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
    guest's debug gate, transcript and debugger."""

    def __init__(self, snapshot_ref: SnapshotRef):
        self.snapshot_ref = snapshot_ref
        self.boots = 0  # guest ids count them
        self.gate = DebugGate()
        self.transcript: List[dict] = []  # {origin, line}

    def _restore(self):
        """Replace the guest with a fresh copy of the snapshot: the next
        guest id, the gate running, no debugger attached.  A snapshot that
        pins no scenario sha256 (one saved before snapshots pinned it) is
        refused."""
        state = self.snapshot_ref.state
        if "scenario_sha256" not in state:
            raise EnvBootFailed(
                "snapshot %s pins no scenario content; prepare the "
                "environment again" % self.snapshot_ref.snapshot_id)
        scenario = GuestScenario.load(state["scenario_path"],
                                      sha256=state["scenario_sha256"])
        self.mock = MockGuest(scenario,
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
    identical boots.  The snapshot's state also pins the scenario file's
    content: its ``scenario_sha256``, read now unless ``state`` has one."""
    if not state.get("guest_state", {}).get("booted"):
        raise SnapshotFailed("guest not booted")
    if "scenario_sha256" not in state:
        with open(state["scenario_path"], "rb") as fh:
            state = dict(state, scenario_sha256=hashlib.sha256(
                fh.read()).hexdigest())
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
    """Build C source (once per process while the host files it read are
    unchanged, see ``pocbuild``) and place the binary in the guest.

    Every call that gets past the gate, a failed, refused or timed-out
    build included, is one PoC iteration (counted by ``trace.fold``).
    """
    if "\n" in dest_path:
        raise InvalidParams("a guest path is one line")
    handle.gate.check()
    if handle.state != "running":
        raise UploadFailed("guest state is %s" % handle.state)
    return upload_poc(handle, build_poc(source_text), dest_path)
