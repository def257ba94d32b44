import json
import os
from decimal import Decimal
from itertools import chain
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from patchrepro import envprep, sessionrunner, toolserver
from patchrepro.envprep import BuilderSpec
from patchrepro.sessionrunner import (
    Budget, ModelAction, PriceTable, ScriptedModelClient,
    account_usage, replay_trace, run_session)
from patchrepro.errors import MalformedModel, MalformedTrace
from patchrepro.trace import fold, read_trace
from tests.conftest import MODELS, SCENARIOS


@pytest.fixture
def env_and_task(kernel_repo, tmp_path):
    task = envprep.resolve_task(kernel_repo["repo"], kernel_repo["fix"],
                                metadata={"case_id": "case-001"})
    builder = BuilderSpec("fixture-kasan", "fixture",
                          {"scenario": os.path.join(SCENARIOS, "crash_uaf.json")})
    env = envprep.prepare_environment(task, builder, str(tmp_path / "env"))
    return env, task


def _run(env_and_task, tmp_path, script="success.json", profile="baseline",
         budget=None):
    env, task = env_and_task
    client = ScriptedModelClient.from_file(os.path.join(MODELS, script))
    out_dir = str(tmp_path / "run")
    budget = budget or Budget(price_table=PriceTable.per_million(2, 8))
    artifacts = run_session(task, env, client, toolserver.PROFILES[profile],
                            budget, out_dir)
    return artifacts, out_dir


_ENDS = ("finalized", "budget_exhausted", "model_gave_up", "fatal_error")


def _end_event(out_dir):
    """The session's one terminating lifecycle event: it is the trace's
    last event and names session.json's termination."""
    events = read_trace(os.path.join(out_dir, sessionrunner.ARTIFACT_TRACE))
    ends = [e for e in events
            if e["kind"] == "lifecycle" and e["event"] in _ENDS]
    session = json.loads(Path(out_dir, sessionrunner.ARTIFACT_SESSION)
                         .read_text())
    assert ends == [events[-1]]
    assert ends[0]["event"] == session["termination"]
    return ends[0]


def test_account_usage_exact():
    prices = PriceTable.per_million(3, 15)
    cost = account_usage([(600_000, 40_000), (200_000, 20_000)], prices)
    assert cost == Decimal("3.3")
    # 1M in at $2 + 100k out at $8 -> 2.80 exactly, no float drift.
    prices = PriceTable.per_million(2, 8)
    assert account_usage([(1_000_000, 100_000)], prices) == Decimal("2.80")


def test_budget_validation():
    with pytest.raises(ValueError):
        Budget(wall_clock_limit_s=0)
    with pytest.raises(ValueError):
        Budget(cost_limit=Decimal("-1"))


def test_scripted_session_finalizes(env_and_task, tmp_path):
    artifacts, out_dir = _run(env_and_task, tmp_path)
    assert artifacts.termination == "finalized"
    for name in (sessionrunner.ARTIFACT_POC, sessionrunner.ARTIFACT_REPORT,
                 sessionrunner.ARTIFACT_TRACE, sessionrunner.ARTIFACT_CONSOLE,
                 sessionrunner.ARTIFACT_SESSION):
        assert os.path.exists(os.path.join(out_dir, name))
    session = json.loads(Path(out_dir, "session.json").read_text())
    assert session["case_id"] == "case-001"
    assert session["termination"] == "finalized"
    assert session["poc_iterations"] >= 1
    assert artifacts.cost > 0
    assert _end_event(out_dir)["event"] == "finalized"


def test_console_log_matches_trace(env_and_task, tmp_path):
    artifacts, out_dir = _run(env_and_task, tmp_path)
    events = read_trace(artifacts.trace_path)
    from_trace = [ln for e in events if e["kind"] == "console"
                  for ln in e["lines"]]
    on_disk = Path(artifacts.console_path).read_text().splitlines()
    assert on_disk == from_trace
    assert any("KASAN" in ln for ln in on_disk)


def test_a_newline_in_a_guest_argument_is_refused(env_and_task, tmp_path):
    """A command or upload path that holds a newline would put one into a
    recorded console line; both are refused, so console.log keeps one line
    per trace line."""
    env, task = env_and_task
    actions = [
        ModelAction("tool_call", "vm.start", {}),
        ModelAction("tool_call", "vm.exec", {"command": "echo a\nBUG: b"}),
        ModelAction("tool_call", "vm.compile_upload",
                    {"source": "int main(void) { return 0; }\n",
                     "dest_path": "/tmp/p\nBUG: c"}),
        ModelAction("give_up", reason="done")]
    artifacts = run_session(task, env, ScriptedModelClient(actions),
                            toolserver.PROFILES["baseline"], Budget(),
                            str(tmp_path / "run"))
    events = read_trace(artifacts.trace_path)
    errors = {e["name"]: (e["error"] or {}).get("name")
              for e in events if e["kind"] == "tool_result"}
    assert errors == {"vm.start": None, "vm.exec": "InvalidParams",
                      "vm.compile_upload": "InvalidParams"}
    from_trace = [ln for e in events if e["kind"] == "console"
                  for ln in e["lines"]]
    on_disk = Path(artifacts.console_path).read_text().split("\n")[:-1]
    assert on_disk == from_trace


def test_trace_is_gapless_and_typed(env_and_task, tmp_path):
    artifacts, _ = _run(env_and_task, tmp_path)
    events = read_trace(artifacts.trace_path)
    seqs = [e["seq"] for e in events]
    assert seqs == list(range(seqs[0], seqs[0] + len(seqs)))
    from patchrepro.trace import EVENT_KINDS
    assert all(e["kind"] in EVENT_KINDS for e in events)


def test_budget_exhaustion(env_and_task, tmp_path):
    env, task = env_and_task
    actions = [ModelAction(kind="tool_call", name="vm.start", args={})] * 50

    class SlowClient(ScriptedModelClient):
        def next_action(self, prompts, history):
            import time
            time.sleep(0.02)
            return super().next_action(prompts, history)

    artifacts = run_session(task, env, SlowClient(actions),
                            toolserver.PROFILES["baseline"],
                            Budget(wall_clock_limit_s=0.05),
                            str(tmp_path / "run"))
    assert artifacts.termination == "budget_exhausted"
    # Artifacts are still flushed.
    assert os.path.exists(artifacts.trace_path)
    assert _end_event(artifacts.out_dir)["event"] == "budget_exhausted"


def test_cost_budget_exhaustion(env_and_task, tmp_path):
    env, task = env_and_task
    actions = [ModelAction(kind="tool_call", name="vm.start", args={},
                           input_tokens=1_000_000, output_tokens=0)] * 10
    budget = Budget(cost_limit=Decimal("4"),
                    price_table=PriceTable.per_million(2, 8))
    artifacts = run_session(task, env, ScriptedModelClient(actions),
                            toolserver.PROFILES["baseline"], budget,
                            str(tmp_path / "run"))
    assert artifacts.termination == "budget_exhausted"
    assert artifacts.cost == Decimal("4")
    assert _end_event(artifacts.out_dir)["event"] == "budget_exhausted"


def test_give_up_and_bad_finalize(env_and_task, tmp_path):
    env, task = env_and_task
    artifacts = run_session(task, env, ScriptedModelClient([]),
                            toolserver.PROFILES["baseline"], Budget(),
                            str(tmp_path / "a"))
    assert artifacts.termination == "model_gave_up"
    end = _end_event(artifacts.out_dir)
    assert (end["event"], end["reason"]) == ("model_gave_up",
                                             "script exhausted")

    bad = [ModelAction(kind="finalize", poc_source="int main;", report=None)]
    artifacts = run_session(task, env, ScriptedModelClient(bad),
                            toolserver.PROFILES["baseline"], Budget(),
                            str(tmp_path / "b"))
    assert artifacts.termination == "fatal_error"
    assert artifacts.poc_path is None
    assert _end_event(artifacts.out_dir)["error"] \
        == "finalize without poc/report"

    class BrokenClient:
        def next_action(self, prompts, history):
            raise RuntimeError("endpoint closed")

    artifacts = run_session(task, env, BrokenClient(),
                            toolserver.PROFILES["baseline"], Budget(),
                            str(tmp_path / "c"))
    assert artifacts.termination == "fatal_error"
    assert _end_event(artifacts.out_dir)["error"] == "endpoint closed"


def test_filtered_tool_reported_not_fatal(env_and_task, tmp_path):
    env, task = env_and_task
    actions = [
        ModelAction(kind="tool_call", name="vm.start", args={}),
        ModelAction(kind="tool_call", name="dbg.raw",
                    args={"command": "info registers"}),
        ModelAction(kind="give_up", reason="done"),
    ]
    artifacts = run_session(task, env, ScriptedModelClient(actions),
                            toolserver.PROFILES["no_gdb"], Budget(),
                            str(tmp_path / "run"))
    # A call to a filtered tool is an answerable error, not a crash.
    assert artifacts.termination == "model_gave_up"


def test_replay_trace_measures(env_and_task, tmp_path):
    artifacts, _ = _run(env_and_task, tmp_path)
    measures = replay_trace(artifacts.trace_path)
    assert measures["poc_iterations"] == 1
    assert measures["tool_counts"]["vm_management"] >= 2
    assert measures["total_tool_calls"] == sum(measures["tool_counts"].values())


def test_replay_counts_utilities_and_procfs(env_and_task, tmp_path):
    env, task = env_and_task
    actions = [
        ModelAction(kind="tool_call", name="vm.start", args={}),
        ModelAction(kind="tool_call", name="vm.exec",
                    args={"command": "nft list ruleset"}),
        ModelAction(kind="tool_call", name="vm.exec",
                    args={"command": "cat /proc/crypto"}),
        ModelAction(kind="tool_call", name="vm.exec",
                    args={"command": "cat /sys/kernel/foo"}),
        ModelAction(kind="give_up"),
    ]
    artifacts = run_session(task, env, ScriptedModelClient(actions),
                            toolserver.PROFILES["baseline"], Budget(),
                            str(tmp_path / "run"))
    measures = replay_trace(artifacts.trace_path)
    assert measures["utility_invocations"] == {"nft": 1}
    assert measures["procfs_accesses"] == 1
    assert measures["sysfs_accesses"] == 1


@pytest.mark.parametrize("script", sorted(os.listdir(MODELS)))
def test_session_json_holds_the_trace_measures(env_and_task, tmp_path,
                                               script):
    artifacts, out_dir = _run(env_and_task, tmp_path, script=script)
    session = json.loads(Path(out_dir, "session.json").read_text())
    measures = replay_trace(artifacts.trace_path)
    assert {k: session[k] for k in measures} == measures


def _console_text(events):
    """The former ``trace.console_text``, kept as an oracle of the fold:
    the console lines, in order, joined by newlines."""
    return "\n".join(chain.from_iterable(
        e["lines"] for e in events if e["kind"] == "console"))


def _kernel_lines(events):
    """The former ``trace.kernel_lines``, kept as an oracle of the fold:
    (seq, line) for each kernel-origin console line, in order."""
    console = [e for e in events if e["kind"] == "console"]
    for e in console:
        lines = e.get("lines")
        try:
            if not isinstance(lines, list):
                raise TypeError
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


@pytest.mark.parametrize("script", sorted(os.listdir(MODELS)))
def test_fold_matches_the_console_and_kernel_oracles(env_and_task, tmp_path,
                                                     script):
    artifacts, _ = _run(env_and_task, tmp_path, script=script)
    events = read_trace(artifacts.trace_path)
    folded = fold(events)
    assert folded.kernel == _kernel_lines(events)
    assert "\n".join(folded.console) == _console_text(events)
    assert folded.mutations == [e for e in events if e["kind"] == "mutation"]
    console = Path(artifacts.console_path).read_text(encoding="utf-8")
    assert console == (_console_text(events) + "\n" if folded.console
                       else "")


def test_a_repeat_session_over_one_env_has_the_same_guest_ids(env_and_task,
                                                             tmp_path):
    """Guest ids count the boots of one session's guest, not of the
    environment's snapshot, so a second session gives the same trace."""
    env, task = env_and_task
    for attempt in ("a", "b"):
        client = ScriptedModelClient.from_file(
            os.path.join(MODELS, "recompile_after_restart.json"))
        artifacts = run_session(task, env, client,
                                toolserver.PROFILES["baseline"], Budget(),
                                str(tmp_path / attempt))
        ids = [e["guest_id"] for e in read_trace(artifacts.trace_path)
               if e["kind"] == "lifecycle" and "guest_id" in e]
        assert ids == ["guest-1", "guest-2"]


def _compile(source="int main(void) { return 0; }", **args):
    return ModelAction(kind="tool_call", name="vm.compile_upload",
                       args={"source": source, **args})


def _poc_iterations(env_and_task, tmp_path, actions):
    env, task = env_and_task
    artifacts = run_session(task, env, ScriptedModelClient(actions),
                            toolserver.PROFILES["baseline"], Budget(),
                            str(tmp_path / "run"))
    session = json.loads(Path(artifacts.out_dir, "session.json").read_text())
    assert session["poc_iterations"] \
        == replay_trace(artifacts.trace_path)["poc_iterations"]
    return session["poc_iterations"]


def test_poc_iterations_count_calls_that_reach_the_compiler(env_and_task,
                                                            tmp_path):
    """A call before the guest starts, or without a destination, is not an
    iteration."""
    actions = [_compile(dest_path="/tmp/poc"),
               ModelAction(kind="tool_call", name="vm.start", args={}),
               _compile(),
               _compile(dest_path="/tmp/poc"),
               ModelAction(kind="give_up")]
    assert _poc_iterations(env_and_task, tmp_path, actions) == 1


def test_poc_iterations_count_failed_compiles_across_restarts(env_and_task,
                                                              tmp_path):
    actions = [ModelAction(kind="tool_call", name="vm.start", args={}),
               _compile("int main(void { broken", dest_path="/tmp/poc"),
               ModelAction(kind="tool_call", name="vm.restart", args={}),
               _compile(dest_path="/tmp/poc"),
               ModelAction(kind="give_up")]
    assert _poc_iterations(env_and_task, tmp_path, actions) == 2


def test_a_repeated_compile_after_restart(env_and_task, tmp_path):
    """The same source compiled before and after a restart gives two equal
    results, and both are PoC iterations."""
    artifacts, out_dir = _run(env_and_task, tmp_path,
                              script="recompile_after_restart.json")
    calls = fold(read_trace(artifacts.trace_path)).calls
    results = [result for call, result in calls
               if call["name"] == "vm.compile_upload"]
    assert len(results) == 2 and results[0]["error"] is None
    assert results[0]["result_digest"] == results[1]["result_digest"]
    session = json.loads(Path(out_dir, "session.json").read_text())
    assert session["poc_iterations"] == 2


def _two_pass_replay(events, utility_watchlist=(
        "nft", "tc", "ip", "ethtool", "iptables")):
    """The two-pass ``replay_trace``, kept as the oracle of the fold's
    measures: a first pass maps each call_seq to its last result's error.
    A compile counts unless that error is other than a failed compile or
    upload."""
    by_category = {}
    result_errors = {}
    for event in events:
        if event["kind"] == "tool_result":
            result_errors[event.get("call_seq")] = event.get("error")
    poc_iterations = breakpoints_set = breakpoints_hit = 0
    utility_counts = {u: 0 for u in utility_watchlist}
    procfs_accesses = sysfs_accesses = 0
    for event in events:
        kind = event["kind"]
        if kind == "tool_call":
            category = event.get("category", "unknown")
            by_category[category] = by_category.get(category, 0) + 1
            name = event.get("name", "")
            args = event.get("args", {}) or {}
            error = result_errors.get(event["seq"])
            if name == "vm.compile_upload" and (
                    error is None
                    or error["name"] in ("CompileFailed", "HostPathRefused",
                                         "UploadFailed")):
                poc_iterations += 1
            if name == "dbg.breakpoint" and args.get("action") == "set" \
                    and error is None:
                breakpoints_set += 1
            if name == "vm.exec":
                command = str(args.get("command", ""))
                head = command.split()[0] if command.split() else ""
                if head in utility_counts:
                    utility_counts[head] += 1
                procfs_accesses += command.count("/proc/")
                sysfs_accesses += command.count("/sys/")
        elif kind == "lifecycle" and event.get("event") == "gate_stopped" \
                and event.get("reason") == "stopped_breakpoint":
            breakpoints_hit += 1
    return {
        "tool_counts": by_category,
        "total_tool_calls": sum(by_category.values()),
        "poc_iterations": poc_iterations,
        "breakpoints_set": breakpoints_set,
        "breakpoints_hit": breakpoints_hit,
        "utility_invocations": {u: c for u, c in utility_counts.items() if c},
        "procfs_accesses": procfs_accesses,
        "sysfs_accesses": sysfs_accesses,
    }


_ERROR = {name: {"name": name, "message": ""}
          for name in ("UnknownBreakpoint", "CompileFailed", "UploadFailed",
                       "HostPathRefused", "GuestUnavailable")}
_COMMANDS = st.one_of(
    st.sampled_from(["nft list ruleset", "ip a", "cat /proc/x /sys/y", "",
                     "  tc qdisc"]),
    st.integers(), st.none(), st.lists(st.text(max_size=3), max_size=2))
_ARGS = st.one_of(
    st.none(), st.just({}),
    st.fixed_dictionaries({"action": st.sampled_from(["set", "delete", None])}),
    st.fixed_dictionaries({"command": _COMMANDS}))
_CALL = st.fixed_dictionaries({
    "kind": st.just("tool_call"),
    "name": st.sampled_from(["dbg.breakpoint", "vm.exec",
                             "vm.compile_upload", "code.read"]),
    "category": st.sampled_from(["debugging", "vm_management"]),
    "args": _ARGS})
_OTHER = st.one_of(
    st.fixed_dictionaries({
        "kind": st.just("lifecycle"),
        "event": st.sampled_from(["gate_stopped", "resumed"]),
        "reason": st.sampled_from(["stopped_breakpoint", "signal"])}),
    st.fixed_dictionaries({"kind": st.just("console"),
                           "lines": st.just(["x"])}))
_RESULT_ERROR = st.fixed_dictionaries({}, optional={"error": st.one_of(
    st.none(), st.sampled_from(list(_ERROR.values())))})


@st.composite
def _paired_events(draw):
    """Events without seqs in which each call has exactly one later result;
    a result may trail other events and other calls."""
    events, waiting = [], []  # waiting: seqs of calls with no result yet
    for event in draw(st.lists(st.one_of(_CALL, _OTHER), max_size=8)):
        events.append(event)
        if event["kind"] == "tool_call":
            waiting.append(len(events))
        while waiting and draw(st.booleans()):
            call_seq = waiting.pop(draw(st.integers(0, len(waiting) - 1)))
            events.append({"kind": "tool_result", "call_seq": call_seq,
                           **draw(_RESULT_ERROR)})
    for call_seq in waiting:
        events.append({"kind": "tool_result", "call_seq": call_seq,
                       **draw(_RESULT_ERROR)})
    return events


_COMPILE = {"kind": "tool_call", "name": "vm.compile_upload",
            "category": "vm_management", "args": {}}


@settings(max_examples=300, deadline=None)
@given(_paired_events())
@example([_COMPILE, {"kind": "tool_result", "call_seq": 1,
                     "error": _ERROR["CompileFailed"]},
          _COMPILE, {"kind": "tool_result", "call_seq": 3,
                     "error": _ERROR["GuestUnavailable"]}])
def test_replay_trace_matches_two_pass_oracle(drawn):
    events = [dict(e, seq=i) for i, e in enumerate(drawn, start=1)]
    assert fold(events).measures == _two_pass_replay(events)


@pytest.mark.parametrize("profile,blocked", [("no_utils", True),
                                             ("baseline", False)])
def test_no_utils_session_guest_lacks_utilities(env_and_task, tmp_path,
                                                profile, blocked):
    env, task = env_and_task
    actions = [
        ModelAction(kind="tool_call", name="vm.start", args={}),
        ModelAction(kind="tool_call", name="vm.exec",
                    args={"command": "nft list ruleset"}),
        ModelAction(kind="give_up"),
    ]
    artifacts = run_session(task, env, ScriptedModelClient(actions),
                            toolserver.PROFILES[profile], Budget(),
                            str(tmp_path / "run"))
    console = Path(artifacts.console_path).read_text(encoding="utf-8")
    assert "nft list ruleset" in console
    assert ("nft: command not found" in console) == blocked


@pytest.mark.parametrize("raw, message", [
    ([{"kind": "tool_call", "name": "vm.start", "args": {}},
      {"kind": "finalize", "poc": "int main;", "report": "r"}],
     "action 1: unknown key 'poc'"),
    ([{"name": "vm.start"}], "action 0: no key 'kind'"),
    ([["tool_call"]], "action 0 is not an object"),
    ({"kind": "give_up"}, "a model file holds a list of actions"),
], ids=["unknown_key", "no_kind", "not_an_object", "not_a_list"])
def test_a_malformed_model_file_names_what_is_wrong(tmp_path, raw, message):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(MalformedModel) as ei:
        ScriptedModelClient.from_file(str(path))
    assert str(ei.value) == message
