import json
import os
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from patchrepro import envprep, sessionrunner, toolserver
from patchrepro.envprep import BuilderSpec
from patchrepro.sessionrunner import (
    Budget, ModelAction, PriceTable, ScriptedModelClient,
    account_usage, replay_trace, run_session)
from patchrepro.trace import read_trace
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


def test_console_log_matches_trace(env_and_task, tmp_path):
    artifacts, out_dir = _run(env_and_task, tmp_path)
    events = read_trace(artifacts.trace_path)
    from_trace = [ln for e in events if e["kind"] == "console"
                  for ln in e["lines"]]
    on_disk = Path(artifacts.console_path).read_text().splitlines()
    assert on_disk == from_trace
    assert any("KASAN" in ln for ln in on_disk)


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


def test_give_up_and_bad_finalize(env_and_task, tmp_path):
    env, task = env_and_task
    artifacts = run_session(task, env, ScriptedModelClient([]),
                            toolserver.PROFILES["baseline"], Budget(),
                            str(tmp_path / "a"))
    assert artifacts.termination == "model_gave_up"

    bad = [ModelAction(kind="finalize", poc_source="int main;", report=None)]
    artifacts = run_session(task, env, ScriptedModelClient(bad),
                            toolserver.PROFILES["baseline"], Budget(),
                            str(tmp_path / "b"))
    assert artifacts.termination == "fatal_error"
    assert artifacts.poc_path is None


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


def _two_pass_replay(events, utility_watchlist=(
        "nft", "tc", "ip", "ethtool", "iptables")):
    """The two-pass ``replay_trace``, kept as the oracle of the one-pass
    walk: a first pass maps each call_seq to its last result's error."""
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
            if name == "vm.compile_upload":
                poc_iterations += 1
            if name == "dbg.breakpoint" and args.get("action") == "set" \
                    and result_errors.get(event["seq"]) is None:
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


_COMMANDS = st.one_of(
    st.sampled_from(["nft list ruleset", "ip a", "cat /proc/x /sys/y", "",
                     "  tc qdisc"]),
    st.integers(), st.none(), st.lists(st.text(max_size=3), max_size=2))
_ARGS = st.one_of(
    st.none(), st.just({}),
    st.fixed_dictionaries({"action": st.sampled_from(["set", "delete", None])}),
    st.fixed_dictionaries({"command": _COMMANDS}))
_EVENT = st.one_of(
    st.fixed_dictionaries({
        "kind": st.just("tool_call"),
        "name": st.sampled_from(["dbg.breakpoint", "vm.exec",
                                 "vm.compile_upload", "code.read"]),
        "category": st.sampled_from(["debugging", "vm_management"]),
        "args": _ARGS}),
    # call_seq may point back, forward, at a non-call or at nothing, and
    # several results may share one.
    st.fixed_dictionaries({
        "kind": st.just("tool_result"), "call_seq": st.integers(0, 6)},
        optional={"error": st.one_of(st.none(), st.just("UnknownBreakpoint"))}),
    st.fixed_dictionaries({
        "kind": st.just("lifecycle"),
        "event": st.sampled_from(["gate_stopped", "resumed"]),
        "reason": st.sampled_from(["stopped_breakpoint", "signal"])}),
    st.fixed_dictionaries({"kind": st.just("console"),
                           "lines": st.just(["x"])}))


_SET = {"kind": "tool_call", "name": "dbg.breakpoint", "category": "debugging",
        "args": {"action": "set"}}


@settings(max_examples=300, deadline=None)
@given(st.lists(_EVENT, max_size=8))
@example([{"kind": "tool_result", "call_seq": 2, "error": "UnknownBreakpoint"},
          _SET, {"kind": "tool_result", "call_seq": 2}])
@example([{"kind": "tool_result", "call_seq": 3}, _SET,
          {"kind": "tool_result", "call_seq": 2, "error": "UnknownBreakpoint"},
          _SET])
def test_replay_trace_matches_two_pass_oracle(drawn):
    events = [dict(e, seq=i) for i, e in enumerate(drawn, start=1)]
    assert replay_trace(events) == _two_pass_replay(events)


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
