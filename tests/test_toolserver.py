import bisect
import dataclasses
import gc
import hashlib
import io
import itertools
import json
import os
import tempfile
import weakref
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from patchrepro import (codebrowse, envprep, guestvm, kdbg, sessionrunner,
                        toolserver)
from patchrepro.envprep import BuilderSpec
from patchrepro.trace import Trace, read_trace
from tests.conftest import SCENARIOS, SENTINEL_MESSAGE
from tests.test_guestvm import _upload
from tests.test_mi import _oracle_parse


@pytest.fixture
def env_and_task(kernel_repo, tmp_path):
    task = envprep.resolve_task(kernel_repo["repo"], kernel_repo["fix"])
    builder = BuilderSpec("fixture-kasan", "fixture",
                          {"scenario": os.path.join(SCENARIOS, "crash_uaf.json")})
    env = envprep.prepare_environment(task, builder, str(tmp_path / "env"))
    return env, task


def _server(env_and_task, profile="baseline"):
    env, task = env_and_task
    return toolserver.ToolServer(env, task, toolserver.PROFILES[profile],
                                 trace=Trace())


def test_registry_has_twelve_unique_tools():
    tools = toolserver.load_registry()
    assert len(tools) == 12
    assert len({t.name for t in tools}) == 12
    cats = {t.category for t in tools}
    assert cats == {"code_browsing", "vm_management", "vm_interaction",
                    "debugging"}


def test_the_registry_is_read_once_per_process(monkeypatch):
    """Two servers and a ``tools/list`` read the registry file once; the
    descriptors they share cannot be changed, and ``tools/list`` gives each
    as the file holds it."""
    reads = []
    real_files = toolserver.resources.files
    monkeypatch.setattr(toolserver, "resources", SimpleNamespace(
        files=lambda package: reads.append(package) or real_files(package)))
    toolserver._registry.cache_clear()
    task = envprep.PatchTask(case_id="c", commit_id="a" * 40,
                             parent_commit_id="b" * 40, diff_text="--- x")
    servers = [toolserver.ToolServer(None, task,
                                     toolserver.PROFILES["baseline"])
               for _ in range(2)]
    listed = servers[1].dispatch({"jsonrpc": "2.0", "id": 1,
                                  "method": "tools/list"})
    assert reads == ["patchrepro"]
    raw = json.loads(real_files("patchrepro").joinpath(
        "data/tool_registry.json").read_text(encoding="utf-8"))
    assert listed["result"]["tools"] == raw["tools"]
    tool = servers[0].tools["code.query"]
    assert tool is servers[1].tools["code.query"]
    with pytest.raises(dataclasses.FrozenInstanceError):
        tool.category = "debugging"
    with pytest.raises(TypeError):
        tool.parameters["extra"] = {"type": "string"}
    with pytest.raises(TypeError):
        tool.parameters["name"]["required"] = False


def test_profile_filters_debugging_tools():
    base = {t.name for t in toolserver.list_tools(toolserver.PROFILES["baseline"])}
    nogdb = {t.name for t in toolserver.list_tools(toolserver.PROFILES["no_gdb"])}
    assert nogdb < base
    assert base - nogdb == {"dbg.breakpoint", "dbg.inspect", "dbg.raw",
                            "dbg.resume"}


def test_prompt_bundle_baseline(env_and_task):
    _, task = env_and_task
    bundle = toolserver.assemble_prompts(task, toolserver.PROFILES["baseline"])
    assert SENTINEL_MESSAGE in bundle.task_text
    assert task.diff_text.strip().splitlines()[0] in bundle.task_text
    assert "hypothes" in bundle.system_text.lower()
    assert bundle.constraints[0] == toolserver.NO_INTERNET_CONSTRAINT


def test_prompt_bundle_degraded_and_no_commit_message(env_and_task):
    _, task = env_and_task
    degraded = toolserver.assemble_prompts(task,
                                           toolserver.PROFILES["degraded_prompt"])
    baseline = toolserver.assemble_prompts(task, toolserver.PROFILES["baseline"])
    assert len(degraded.system_text) < len(baseline.system_text)
    assert degraded.technical_text == baseline.technical_text

    ncm = toolserver.assemble_prompts(task,
                                      toolserver.PROFILES["no_commit_message"])
    assert SENTINEL_MESSAGE not in ncm.task_text
    assert task.diff_text.strip().splitlines()[0] in ncm.task_text


def test_tool_calls_and_trace(env_and_task):
    srv = _server(env_and_task)
    out = srv.dispatch_call("vm.start", {})
    assert "result" in out
    out = srv.dispatch_call("code.query", {"name": "nft_chain_lookup"})
    assert out["result"]["locations"]
    out = srv.dispatch_call("vm.exec", {"command": "echo hi"})
    assert "hi" in out["result"]["text"]
    kinds = [e["kind"] for e in srv.trace.events]
    assert kinds.count("tool_call") == 3
    assert kinds.count("tool_result") == 3
    # Sequence numbers are gapless.
    seqs = [e["seq"] for e in srv.trace.events]
    assert seqs == list(range(seqs[0], seqs[0] + len(seqs)))


def test_harness_error_becomes_tool_error(env_and_task):
    srv = _server(env_and_task)
    out = srv.dispatch_call("vm.exec", {"command": "echo x"})
    assert out["error"]["name"] == "GuestUnavailable"  # guest never started
    srv.dispatch_call("vm.start", {})
    out = srv.dispatch_call("code.read",
                            {"file": "nope.c", "start": 1, "end": 5})
    assert out["error"]["name"] == "FileNotFound"


def test_failed_compile_shows_its_diagnostics(env_and_task):
    """The agent and the trace both get the compile log, which names the
    source ``poc.c``."""
    srv = _server(env_and_task)
    srv.dispatch_call("vm.start", {})
    out = srv.dispatch_call("vm.compile_upload", {
        "source": "int main(void { broken", "dest_path": "/tmp/poc"})
    log = out["error"]["data"]["compile_log"]
    assert out["error"]["name"] == "CompileFailed"
    assert "poc.c:1:" in log and "pocbuild-" not in log
    assert srv.trace.events[-1]["error"] == out["error"]
    resp = srv.dispatch({"jsonrpc": "2.0", "id": 1, "method": "tools/call",
                         "params": {"name": "vm.compile_upload", "arguments": {
                             "source": "int main(void { broken",
                             "dest_path": "/tmp/poc"}}})
    assert resp["error"]["data"] == out["error"]


def test_a_compile_that_reads_a_host_file_shows_none_of_it(env_and_task,
                                                          tmp_path):
    """The log of an ``#include`` of a host file would quote the file; the
    tool error and the trace hold no word of it."""
    host = tmp_path / "answer.txt"
    host.write_text("host_file_marker_58aa is not C\n")
    srv = _server(env_and_task)
    srv.dispatch_call("vm.start", {})
    out = srv.dispatch_call("vm.compile_upload", {
        "source": '#include "%s"\nint main(void) { return 0; }\n' % host,
        "dest_path": "/tmp/poc"})
    assert out["error"]["name"] == "HostPathRefused"
    assert "data" not in out["error"]
    assert "host_file_marker_58aa" not in json.dumps(srv.trace.events)


def test_code_read_outside_source_root_is_refused(env_and_task):
    srv = _server(env_and_task)
    out = srv.dispatch_call("code.read", {"file": "../" * 12 + "etc/hostname",
                                          "start": 1, "end": 5})
    assert out == {"error": {"name": "FileNotIndexed",
                             "message": "../" * 12 + "etc/hostname"}}


def test_code_index_reused_by_the_next_session(env_and_task, monkeypatch):
    """The first code.* call builds the index and saves it in the env dir;
    a later session on the same environment loads it instead."""
    env, _ = env_and_task
    builds = []
    real_build = codebrowse.build_index
    monkeypatch.setattr(codebrowse, "build_index",
                        lambda root: builds.append(root) or real_build(root))
    assert not os.path.exists(env.index_path)
    answers = []
    for _ in range(2):
        srv = _server(env_and_task)
        answers.append([srv.dispatch_call("code.query", {"name": n, "mode": m})
                        for n in ("nft_chain_lookup", "chain")
                        for m in ("definitions", "references")])
    assert builds == [env.source_root]
    assert answers[0] == answers[1]
    assert answers[0][0]["result"]["locations"]


def _spoiled_build(root, build=codebrowse.build_index):
    """A fresh build of ``root`` whose last posting of the word "chain"
    names a file past the last."""
    index = build(root)
    key = codebrowse._word_hash(b"chain")
    end = bisect.bisect_left(index.words, (key + 1) << 32)
    index.words[end - 1] = key << 32 | index.file_count
    return index


def _count_builds(monkeypatch, build=codebrowse.build_index):
    """Every ``codebrowse.build_index`` call from now on, made by
    ``build``, adds its root to the returned list."""
    builds = []
    monkeypatch.setattr(codebrowse, "build_index",
                        lambda root: builds.append(root) or build(root))
    return builds


CHAIN_REFS = {"name": "chain", "mode": "references"}


def test_a_reference_query_without_a_word_is_invalid_params(env_and_task):
    """A reference query's name must hold an ASCII word character; the
    same name still answers a definition query."""
    srv = _server(env_and_task)
    for name in ("(", "", "\u00e9", "\ufffd", "\ud800"):
        out = srv.dispatch_call("code.query", {"name": name,
                                               "mode": "references"})
        assert out["error"]["name"] == "InvalidParams"
        assert srv.dispatch_call("code.query", {"name": name}) == {
            "result": {"locations": [], "truncated": False}}


def test_a_spoiled_posting_is_rebuilt_by_the_query_that_reads_it(
        env_and_task, monkeypatch):
    """A saved index whose postings name a file past the last loads; the
    first code.query that reads that posting is answered from one fresh
    build, saved over the file, which the next session loads."""
    env, _ = env_and_task
    codebrowse.save_index(_spoiled_build(env.source_root), env.index_path,
                          env.content_digest)
    hits, truncated = codebrowse.query_symbol(
        codebrowse.build_index(env.source_root), "chain", "references")
    want = {"result": {"locations": hits, "truncated": truncated}}
    assert hits
    builds = _count_builds(monkeypatch)
    srv = _server(env_and_task)
    assert "result" in srv.dispatch_call("code.query",
                                         {"name": "nft_chain_lookup"})
    assert builds == []  # a definition reads no posting
    assert srv.dispatch_call("code.query", CHAIN_REFS) == want
    assert builds == [env.source_root]
    assert srv.dispatch_call("code.query", CHAIN_REFS) == want
    assert _server(env_and_task).dispatch_call("code.query",
                                               CHAIN_REFS) == want
    assert builds == [env.source_root]


def test_a_store_cut_during_a_session_is_rebuilt(env_and_task, monkeypatch):
    """A saved store cut short after the session loaded it is answered
    from a fresh build, as a spoiled posting is."""
    env, _ = env_and_task
    srv = _server(env_and_task)
    want = srv.dispatch_call("code.query", CHAIN_REFS)
    assert want["result"]["locations"]
    srv = _server(env_and_task)
    srv.dispatch_call("code.query", {"name": "nft_chain_lookup"})
    builds = _count_builds(monkeypatch)
    os.truncate(env.index_path, os.path.getsize(env.index_path) - 1)
    assert srv.dispatch_call("code.query", CHAIN_REFS) == want
    assert builds == [env.source_root]


def test_a_spoiled_index_is_rebuilt_once_per_session(env_and_task,
                                                     monkeypatch):
    """A fresh build that fails its query too is that call's error, and
    the session builds no more."""
    env, _ = env_and_task
    builds = _count_builds(monkeypatch, _spoiled_build)
    srv = _server(env_and_task)
    srv.dispatch_call("code.query", {"name": "nft_chain_lookup"})
    for _ in range(2):
        error = srv.dispatch_call("code.query", CHAIN_REFS)["error"]
        assert "past the last" in error["message"]
    assert builds == [env.source_root] * 2


def test_builder_supplied_tree_is_reindexed_after_prepare(kernel_repo,
                                                          tmp_path):
    """The content digest does not pin a tree the builder supplies, so a
    new preparation does not reuse an index saved from it."""
    task = envprep.resolve_task(kernel_repo["repo"], kernel_repo["fix"])
    own = tmp_path / "own"
    own.mkdir()
    builder = BuilderSpec("fixture-kasan", "fixture",
                          {"scenario": os.path.join(SCENARIOS, "crash_uaf.json"),
                           "source_root": str(own)})
    found = []
    for name in ("first_fn", "second_fn"):
        (own / "x.c").write_text("int %s(void)\n{\n}\n" % name)
        env = envprep.prepare_environment(task, builder, str(tmp_path / "env"))
        srv = toolserver.ToolServer(env, task, toolserver.PROFILES["baseline"])
        found.append(srv.dispatch_call("code.query", {"name": name})
                     ["result"]["locations"])
    assert found == [[{"file": "x.c", "line": 1, "kind": "function"}]] * 2


def test_unknown_tool_raises_before_any_trace_event(env_and_task):
    srv = _server(env_and_task, profile="no_gdb")
    before = len(srv.trace.events)
    with pytest.raises(KeyError):
        srv.dispatch_call("dbg.raw", {"command": "info registers"})
    assert len(srv.trace.events) == before


def test_jsonrpc_list_and_call(env_and_task):
    srv = _server(env_and_task)
    resp = srv.dispatch({"jsonrpc": "2.0", "id": 1, "method": "tools/list"})
    assert len(resp["result"]["tools"]) == 12
    resp = srv.dispatch({"jsonrpc": "2.0", "id": 2, "method": "tools/call",
                         "params": {"name": "vm.start", "arguments": {}}})
    assert "guest_id" in resp["result"]
    resp = srv.dispatch({"jsonrpc": "2.0", "id": 3, "method": "tools/call",
                         "params": {"name": "bogus.tool", "arguments": {}}})
    assert resp["error"]["code"] == -32601
    resp = srv.dispatch({"jsonrpc": "2.0", "id": 4, "method": "no/such"})
    assert resp["error"]["code"] == -32601
    resp = srv.dispatch({"jsonrpc": "2.0", "id": 5, "method": "tools/call",
                         "params": {"name": "vm.exec",
                                    "arguments": {"command": "spin",
                                                  "timeout_s": 0.01}}})
    assert resp["result"]["timed_out"]


def test_jsonrpc_filtered_tool_is_method_not_found(env_and_task):
    srv = _server(env_and_task, profile="no_gdb")
    resp = srv.dispatch({"jsonrpc": "2.0", "id": 1, "method": "tools/call",
                         "params": {"name": "dbg.resume", "arguments": {}}})
    assert resp["error"]["code"] == -32601
    resp = srv.dispatch({"jsonrpc": "2.0", "id": 2, "method": "tools/list"})
    assert len(resp["result"]["tools"]) == 8


def test_serve_newline_delimited(env_and_task):
    srv = _server(env_and_task)
    lines = [
        json.dumps({"jsonrpc": "2.0", "id": 1, "method": "tools/list"}),
        "not json",
        json.dumps({"jsonrpc": "2.0", "id": 2, "method": "tools/call",
                    "params": {"name": "vm.start", "arguments": {}}}),
    ]
    out = io.StringIO()
    srv.serve(stdin=io.StringIO("\n".join(lines) + "\n"), stdout=out)
    responses = [json.loads(l) for l in out.getvalue().splitlines()]
    assert len(responses) == 3
    assert "result" in responses[0]
    assert responses[1]["error"]["code"] == -32602
    assert "guest_id" in responses[2]["result"]


def test_debugger_flow_records_mutations(env_and_task):
    srv = _server(env_and_task)
    srv.dispatch_call("vm.start", {})
    out = srv.dispatch_call("dbg.breakpoint",
                            {"action": "set", "location": "nft_chain_lookup"})
    assert out["result"]["id"] == "1"
    out = srv.dispatch_call("dbg.raw", {"command": "set var obj->len = 64"})
    assert "result" in out
    muts = [e for e in srv.trace.events if e["kind"] == "mutation"]
    assert len(muts) == 1 and muts[0]["category"] == "memory_write"


@pytest.mark.parametrize("reply", [
    "^done,x=" + "[" * 5000 + "]" * 5000,  # past the recursion limit
    "\u00b2^done",  # a digit to str.isdigit(), not to int()
], ids=["deep_nesting", "superscript_token"])
def test_hostile_mi_reply_is_a_malformed_record_error(env_and_task, reply):
    srv = _server(env_and_task)
    srv.dispatch_call("vm.start", {})
    srv.handle.debug_stub = kdbg.ScriptedMiStub(
        scripted={"hostile": [reply, "(gdb)"]})
    out = srv.dispatch_call("dbg.raw", {"command": "hostile"})
    assert list(out) == ["error"]
    assert out["error"]["name"] == "MalformedRecord"
    results = [e for e in srv.trace.events if e["kind"] == "tool_result"
               and e["name"] == "dbg.raw"]
    assert len(results) == 1
    assert results[0]["error"]["name"] == "MalformedRecord"


@pytest.mark.parametrize("length", ["x", "-1"])
def test_a_bad_memory_length_is_the_stubs_mi_error(env_and_task, length):
    """A length that is not a count gets the stub's ``^error`` reply: no
    Python exception text reaches the tool result or the trace."""
    srv = _server(env_and_task)
    srv.dispatch_call("vm.start", {})
    srv.handle.debug_stub = kdbg.ScriptedMiStub(memory={"0x1": "41424344"})
    out = srv.dispatch_call("dbg.raw", {
        "command": "-data-read-memory-bytes 0x1 %s" % length})
    assert out == {"result": {"records": [
        {"kind": "error", "payload": {"msg": "Invalid length: " + length}}]}}
    assert "int()" not in json.dumps(srv.trace.events)


def test_register_dump_matches_the_oracle_payload_and_digest(env_and_task):
    """A 64-register reply reaches the caller and the trace as the
    reference parser reads it, escapes in the last value decoded too."""
    regs = {"r%d" % i: "0x%016x" % (i * 0x9e3779b97f4a7c15 % 2 ** 64)
            for i in range(63)}
    regs["xmm0"] = "{v2_int64 = {0x0, 0x1}}\t\\"
    srv = _server(env_and_task)
    srv.dispatch_call("vm.start", {})
    srv.handle.debug_stub = kdbg.ScriptedMiStub(registers=regs)
    (line, _) = srv.handle.debug_stub.send("-data-list-register-values x")
    want = {"records": [_oracle_parse(line).payload]}
    assert len(want["records"][0]["register-values"]) == 64
    assert srv.dispatch_call("dbg.inspect", {"what": "registers"}) == {
        "result": want}
    (result,) = [e for e in srv.trace.events if e["kind"] == "tool_result"
                 and e["name"] == "dbg.inspect"]
    assert result["result_digest"] == toolserver._digest(want)


def test_location_with_a_quote_is_unresolvable(env_and_task):
    srv = _server(env_and_task)
    srv.dispatch_call("vm.start", {})
    out = srv.dispatch_call("dbg.breakpoint",
                            {"action": "set", "location": 'no"such'})
    assert out["error"]["name"] == "UnresolvableLocation"


def test_server_with_debugger_is_freed_without_a_collection(env_and_task):
    srv = _server(env_and_task)
    srv.dispatch_call("vm.start", {})
    srv.dispatch_call("dbg.raw", {"command": "set var obj->len = 64"})
    assert srv.handle.debug_session is not None
    assert [e["kind"] for e in srv.trace.events].count("mutation") == 1
    ref = weakref.ref(srv)
    gc.disable()
    try:
        del srv
        assert ref() is None
    finally:
        gc.enable()


def test_guest_with_debugger_is_freed_without_a_collection(env_and_task):
    srv = _server(env_and_task)
    srv.dispatch_call("vm.start", {})
    srv.dispatch_call("dbg.breakpoint",
                      {"action": "set", "location": "nft_chain_lookup"})
    assert srv.handle.debug_session is not None
    ref = weakref.ref(srv.handle)
    gc.disable()
    try:
        del srv
        assert ref() is None
    finally:
        gc.enable()


def test_console_trace_mirrors_transcript(env_and_task):
    srv = _server(env_and_task)
    srv.dispatch_call("vm.start", {})
    srv.dispatch_call("vm.exec", {"command": "echo one"})
    srv.dispatch_call("vm.compile_upload", {
        "source": "int main(void) { return 0; }", "dest_path": "/trigger"})
    srv.dispatch_call("vm.exec", {"command": "./trigger"})
    assert srv.handle.state == "unresponsive"
    events = [e for e in srv.trace.events if e["kind"] == "console"]
    assert [ln for e in events for ln in e["lines"]] == srv.handle.transcript
    assert [o for e in events for o in e["origins"]] == srv.handle.origins


def test_a_slow_command_digests_as_a_fast_one(env_and_task, monkeypatch):
    """``./trigger`` takes 0 ms under one clock and 3 ms under another: the
    agent sees each ``duration_ms``, and the trace's ``result_digest`` is
    the same."""
    seen, digests = [], []
    for step in (0.0, 0.003):
        clock = itertools.count(100.0, step)
        monkeypatch.setattr(guestvm, "time",
                            SimpleNamespace(monotonic=lambda: next(clock)))
        srv = _server(env_and_task)
        srv.dispatch_call("vm.start", {})
        srv.dispatch_call("vm.compile_upload", {
            "source": "int main(void) { return 0; }",
            "dest_path": "/trigger"})
        seen.append(srv.dispatch_call("vm.exec", {"command": "./trigger"})
                    ["result"]["duration_ms"])
        digests.append(srv.trace.events[-1]["result_digest"])
    assert seen == [0, 3]
    assert digests[0] == digests[1]


def test_a_second_start_boots_the_one_guest_again(kernel_repo, tmp_path):
    """The debugger, its gate and the console all follow the guest that
    booted last."""
    with open(os.path.join(SCENARIOS, "crash_uaf.json")) as fh:
        scenario = json.load(fh)
    for rule in scenario["rules"]:
        if rule["post"].startswith("emit_crash:"):
            rule["post"] = "emit_crash:" + os.path.join(
                SCENARIOS, rule["post"].split(":", 1)[1])
    scenario["debug"]["scripted"] = {"-exec-next": [
        '*stopped,reason="breakpoint-hit",bkptno="1"', "(gdb)"]}
    path = tmp_path / "stops.json"
    path.write_text(json.dumps(scenario))
    task = envprep.resolve_task(kernel_repo["repo"], kernel_repo["fix"])
    env = envprep.prepare_environment(
        task, BuilderSpec("fixture-kasan", "fixture", {"scenario": str(path)}),
        str(tmp_path / "env"))
    srv = _server((env, task))
    assert srv.dispatch_call("vm.start", {}) == {
        "result": {"guest_id": "guest-1"}}
    handle = srv.handle
    srv.dispatch_call("dbg.breakpoint",
                      {"action": "set", "location": "nft_chain_lookup"})
    assert srv.dispatch_call("vm.start", {}) == {
        "result": {"guest_id": "guest-2"}}
    assert srv.handle is handle
    assert srv.dispatch_call("dbg.breakpoint", {"action": "list"}) == {
        "result": {"breakpoints": []}}
    srv.dispatch_call("dbg.raw", {"command": "-exec-next"})
    out = srv.dispatch_call("vm.exec", {"command": "echo hi"})
    assert out["error"]["name"] == "DebuggeeHalted"
    console = [line for e in srv.trace.events if e["kind"] == "console"
               for line in e["lines"]]
    banner = scenario["boot_banner"].split("\n")
    assert console == (banner + ["repro$ # ready"]) * 2


def test_a_handler_exception_is_recorded_as_the_calls_error(env_and_task,
                                                            tmp_path,
                                                            monkeypatch):
    """It is raised again, and ends the session as a fatal error."""
    def boom(self):
        raise RuntimeError("boom")

    monkeypatch.setattr(toolserver.ToolServer, "_tool_vm_start", boom)
    env, task = env_and_task
    artifacts = sessionrunner.run_session(
        task, env, sessionrunner.ScriptedModelClient(
            [sessionrunner.ModelAction("tool_call", "vm.start", {})]),
        toolserver.PROFILES["baseline"], sessionrunner.Budget(),
        str(tmp_path / "run"))
    assert artifacts.termination == "fatal_error"
    error = {"name": "RuntimeError", "message": "boom"}
    (result,) = [e for e in read_trace(artifacts.trace_path)
                 if e["kind"] == "tool_result"]
    assert result["error"] == error
    assert result["result_digest"] == toolserver._digest(error)


@settings(max_examples=20, deadline=None)
@given(profile_id=st.sampled_from(sorted(toolserver.PROFILES)))
def test_every_profile_prompt_has_no_internet_rule(profile_id):
    task = envprep.PatchTask(case_id="c", commit_id="a" * 40,
                             parent_commit_id="b" * 40, diff_text="--- x",
                             commit_message="msg")
    bundle = toolserver.assemble_prompts(task, toolserver.PROFILES[profile_id])
    assert toolserver.NO_INTERNET_CONSTRAINT in bundle.constraints
    assert bundle.task_text and bundle.technical_text


# --- registry-checked arguments ---------------------------------------------

_VALID = {"string": "x", "integer": 1, "number": 1.5}
_WRONG = {"string": [7], "integer": ["1", True, 1.5], "number": ["1.5", True]}


def _bad_calls():
    """(tool, args) pairs the registry schema rejects: each required
    argument left out, each argument given a wrong JSON type, and an
    argument the tool does not declare."""
    for tool in toolserver.load_registry():
        ok = {k: _VALID[spec["type"]] for k, spec in tool.parameters.items()
              if spec.get("required")}
        for key, spec in tool.parameters.items():
            if spec.get("required"):
                yield pytest.param(
                    tool.name, {k: v for k, v in ok.items() if k != key},
                    id="%s-missing-%s" % (tool.name, key))
            for wrong in _WRONG[spec["type"]]:
                yield pytest.param(tool.name, dict(ok, **{key: wrong}),
                                   id="%s-%s=%r" % (tool.name, key, wrong))
        yield pytest.param(tool.name, dict(ok, bogus="x"),
                           id="%s-unknown" % tool.name)


@pytest.mark.parametrize("name,args", list(_bad_calls()))
def test_schema_violation_is_invalid_params_and_traced(name, args):
    task = envprep.PatchTask(case_id="c", commit_id="a" * 40,
                             parent_commit_id="b" * 40, diff_text="--- x")
    # The check runs before any handler, so no environment is needed.
    srv = toolserver.ToolServer(None, task, toolserver.PROFILES["baseline"])
    out = srv.dispatch_call(name, args)
    assert out["error"]["name"] == "InvalidParams"
    call, result = srv.trace.events
    assert (call["kind"], call["name"], call["args"]) == ("tool_call", name, args)
    assert result["kind"] == "tool_result"
    assert result["call_seq"] == call["seq"]
    assert result["error"] == out["error"]


def test_handlers_match_registry_names():
    handlers = {n for n in vars(toolserver.ToolServer) if n.startswith("_tool_")}
    assert handlers == {"_tool_" + t.name.replace(".", "_")
                        for t in toolserver.load_registry()}


def test_action_arguments_are_required_per_action(env_and_task):
    srv = _server(env_and_task)
    srv.dispatch_call("vm.start", {})
    for name, args in [("dbg.breakpoint", {"action": "set"}),
                       ("dbg.breakpoint", {"action": "delete"}),
                       ("dbg.inspect", {"what": "memory", "address": "0x0"}),
                       ("dbg.inspect", {"what": "expression"})]:
        assert srv.dispatch_call(name, args)["error"]["name"] == "InvalidParams"
    assert srv.dispatch_call("dbg.breakpoint", {"action": "list"}) == {
        "result": {"breakpoints": []}}


@pytest.mark.parametrize("profile_id", sorted(toolserver.PROFILES))
def test_profile_behaviour_follows_its_fields_not_its_id(profile_id):
    """A profile under a new id with another profile's fields offers the same
    tools, the same prompts and the same JSON-RPC answers."""
    task = envprep.PatchTask(case_id="c", commit_id="a" * 40,
                             parent_commit_id="b" * 40, diff_text="--- x",
                             commit_message="msg")
    known = toolserver.PROFILES[profile_id]
    twin = dataclasses.replace(known, id="renamed")
    assert toolserver.list_tools(twin) == toolserver.list_tools(known)
    assert (toolserver.assemble_prompts(task, twin)
            == toolserver.assemble_prompts(task, known))
    requests = [{"jsonrpc": "2.0", "id": 1, "method": "tools/list"},
                {"jsonrpc": "2.0", "id": 2, "method": "tools/call",
                 "params": {"name": "dbg.resume", "arguments": {}}}]
    answers = [[toolserver.ToolServer(None, task, p).dispatch(r)
                for r in requests] for p in (twin, known)]
    assert answers[0] == answers[1]


def test_list_symbols_answer_is_plain_json(env_and_task):
    srv = _server(env_and_task)
    path = "net/netfilter/nf_tables_api.c"
    out = srv.dispatch_call("code.list_symbols", {"file": path})
    entries = codebrowse.list_symbols(srv.code_index, path)
    assert entries
    assert out["result"]["symbols"] == [
        {"name": e.name, "kind": e.kind, "file": e.file, "line": e.line}
        for e in entries]
    assert [list(s) for s in out["result"]["symbols"]] == \
        [["name", "kind", "file", "line"]] * len(entries)


def _keeping(made, fn):
    """``fn``, keeping each value it returns in ``made``."""
    def call(*args, **kwargs):
        made.append(fn(*args, **kwargs))
        return made[-1]
    return call


def test_dataclass_results_equal_asdict_in_value_order_and_digest(
        env_and_task, monkeypatch):
    """``code.read``, ``vm.compile_upload`` and ``dbg.breakpoint list``
    answer with what ``dataclasses.asdict`` gives for the value they
    build, key order and ``result_digest`` included."""
    made = []
    monkeypatch.setattr(codebrowse, "read_range",
                        _keeping(made, codebrowse.read_range))
    monkeypatch.setattr(guestvm, "compile_and_upload",
                        _keeping(made, guestvm.compile_and_upload))
    monkeypatch.setattr(kdbg.DebugSession, "manage_breakpoint",
                        _keeping(made, kdbg.DebugSession.manage_breakpoint))
    srv = _server(env_and_task)
    srv.dispatch_call("vm.start", {})
    srv.dispatch_call("dbg.breakpoint",
                      {"action": "set", "location": "nft_chain_lookup"})
    calls = [
        ("code.read", {"file": "net/netfilter/nf_tables_api.c",
                       "start": 1, "end": 40}, dataclasses.asdict),
        ("vm.compile_upload", {"source": "int main(void) { return 0; }",
                               "dest_path": "/trigger"}, dataclasses.asdict),
        ("dbg.breakpoint", {"action": "list"},
         lambda bps: {"breakpoints": [dataclasses.asdict(b) for b in bps]}),
    ]
    for name, args, want_of in calls:
        got = srv.dispatch_call(name, args)["result"]
        want = want_of(made[-1])
        assert got == want and list(got) == list(want)
        if name == "dbg.breakpoint":
            assert [list(b) for b in got["breakpoints"]] == \
                [["bp_id", "location", "enabled", "hit_count"]]
        result = srv.trace.events[-1]
        assert result["kind"] == "tool_result" and result["name"] == name
        assert result["result_digest"] == toolserver._digest(want)
    assert len(made[1].lines) > 1  # made[0] is the set breakpoint


# --- the transcript's two columns against the per-line dict rule ----------

_PLAIN = st.text(st.characters(blacklist_characters="\n\r",
                               blacklist_categories=("Cs",)), max_size=12)
_STAMPED = st.builds("[{}{}.{:06d}] {}".format,
                     st.sampled_from(["", " ", "    "]),
                     st.integers(0, 99999), st.integers(0, 999999), _PLAIN)
_NEAR_MISS = st.sampled_from(["[1.x] no", " [1.0] indented", "[ 1.0 ] spaced",
                              "[1] no fraction", "1.0] no bracket"])
_LINE = st.one_of(_STAMPED, _PLAIN, st.just(""), _NEAR_MISS)
_REPLY = st.builds(lambda lines, end: "\n".join(lines) + end,
                   st.lists(_LINE, max_size=6), st.sampled_from(["", "\n"]))
_STEP = st.one_of(st.tuples(st.just("say"), st.integers(0, 2)),
                  st.tuples(st.just("echo"),
                            st.text("abc XYZ", min_size=1, max_size=5)),
                  st.sampled_from([("start",), ("restart",), ("upload",),
                                   ("trigger",)]))


def _dict_rows(text, origin=None):
    """The old per-line dict rule: one ``{origin, line}`` per line of
    ``text``; scenario-authored text (``origin`` None) by its printk
    stamps."""
    return [{"origin": origin or ("kernel" if guestvm._PRINTK_TS_RE.match(ln)
                                  else "console"), "line": ln}
            for ln in guestvm.split_lines(text)]


@settings(max_examples=60, deadline=None)
@given(banner=_REPLY, replies=st.lists(_REPLY, min_size=3, max_size=3),
       crash_reply=_REPLY, crash=_REPLY,
       steps=st.lists(_STEP, max_size=12))
def test_console_columns_equal_the_per_line_dict_rule(banner, replies,
                                                      crash_reply, crash,
                                                      steps):
    """Each ``vm.exec`` answer's ``text`` and ``kernel_lines`` and each
    drained console event's ``lines`` and ``origins`` are what rows of
    ``{origin, line}`` dicts, built line by line, give."""
    prompt = "repro$ "
    with tempfile.TemporaryDirectory() as tmp:
        with open(os.path.join(tmp, "crash.txt"), "w", newline="") as fh:
            fh.write(crash)
        path = os.path.join(tmp, "scenario.json")
        with open(path, "w") as fh:
            json.dump({"boot_banner": banner, "prompt": prompt, "rules": [
                {"pattern": "^say%d$" % i, "response": r}
                for i, r in enumerate(replies)] + [
                {"pattern": "^\\./trigger$", "response": crash_reply,
                 "post": "emit_crash:crash.txt"}]}, fh)
        snap = guestvm.create_snapshot({
            "scenario_path": path, "guest_state": guestvm.MockGuest(
                guestvm.GuestScenario.load(path)).state})
        srv = toolserver.ToolServer(SimpleNamespace(snapshot_ref=snap), None,
                                    toolserver.PROFILES["baseline"],
                                    trace=Trace())
        rows, drained, seen = [], 0, 0
        for step in [("start",)] + steps:
            handle = srv.handle
            running = handle is not None and handle.state == "running"
            kind = step[0]
            if kind == "upload":
                if running:
                    _upload(handle)
                    rows += _dict_rows(
                        "== uploaded /root/trigger (4 bytes) ==", "lifecycle")
                continue
            if kind == "start":
                srv.dispatch_call("vm.start", {})
                rows += _dict_rows(banner) + _dict_rows(prompt + "# ready",
                                                        "console")
            elif kind == "restart":
                srv.dispatch_call("vm.restart", {})
                if handle is not None:
                    rows += _dict_rows("== guest restarted ==", "lifecycle")
            else:
                command = {"say": lambda: "say%d" % step[1],
                           "echo": lambda: "echo " + step[1],
                           "trigger": lambda: "./trigger"}[kind]()
                out = srv.dispatch_call("vm.exec", {"command": command})
                if running:
                    rows += _dict_rows(prompt + command, "console")
                    added = len(rows)
                    if kind == "say":
                        rows += _dict_rows(replies[step[1]])
                    elif kind == "echo":
                        rows += _dict_rows(step[1].strip() + "\n", "console")
                    elif "trigger" in handle.mock.state["programs"]:
                        rows += _dict_rows(crash_reply) + _dict_rows(
                            crash, "kernel")
                    else:
                        rows += _dict_rows("sh: ./trigger: command not "
                                           "found\n", "console")
                    output = rows[added:]
                    assert out["result"]["text"] == "".join(
                        r["line"] + "\n" for r in output)
                    assert out["result"]["kernel_lines"] == [
                        r["line"] for r in output if r["origin"] == "kernel"]
                else:
                    assert out["error"]["name"] == "GuestUnavailable"
            events = [e for e in srv.trace.events[seen:]
                      if e["kind"] == "console"]
            seen = len(srv.trace.events)
            new = rows[drained:]
            drained = len(rows)
            assert [(e["lines"], e["origins"]) for e in events] == (
                [([r["line"] for r in new], [r["origin"] for r in new])]
                if new else [])
        assert srv.handle.transcript == [r["line"] for r in rows]
        assert srv.handle.origins == [r["origin"] for r in rows]


# --- one JSON encoder per process -------------------------------------------

_JSON_LEAF = (st.none() | st.booleans() | st.integers()
              | st.floats(allow_nan=True, allow_infinity=True) | st.text())


def json_values(leaf=_JSON_LEAF):
    """Nested JSON-like values over ``leaf``, non-ASCII text and NaN
    included."""
    return st.recursive(leaf, lambda kids: st.lists(kids, max_size=4)
                        | st.dictionaries(st.text(max_size=6), kids,
                                          max_size=4), max_leaves=20)


@settings(max_examples=200, deadline=None)
@given(obj=json_values(_JSON_LEAF | st.decimals()))
def test_digest_equals_a_fresh_dumps(obj):
    """The digest's one encoder writes what ``json.dumps`` with the same
    options writes; a ``Decimal`` goes through ``default=str``."""
    assert toolserver._digest(obj) == hashlib.sha256(
        json.dumps(obj, sort_keys=True, default=str).encode()
    ).hexdigest()[:16]
