import dataclasses
import gc
import io
import json
import os
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from patchrepro import codebrowse, envprep, kdbg, toolserver
from patchrepro.envprep import BuilderSpec
from patchrepro.trace import Trace
from tests.conftest import SCENARIOS, SENTINEL_MESSAGE
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
    assert srv.debug_session is not None
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
    assert srv.handle.debug_session is srv.debug_session is not None
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
    srv.dispatch_call("vm.exec", {"command": "./trigger"})
    mirrored = [ln for e in srv.trace.events if e["kind"] == "console"
                for ln in e["lines"]]
    assert mirrored == [rec["line"] for rec in srv.handle.transcript]


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
