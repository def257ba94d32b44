import json
import os
import re
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from patchrepro import envprep, kdbg, verdict, toolserver
from patchrepro.envprep import BuilderSpec
from patchrepro.sessionrunner import (
    Budget, ModelAction, PriceTable, ScriptedModelClient, run_session)
from patchrepro.trace import Trace, fold, read_trace
from tests.conftest import CRASHES, MODELS, SCENARIOS
from tests.test_kdbg import _guest
from tests.test_trace import UNPAIRED


def _labels():
    with open(os.path.join(CRASHES, "labels.json")) as fh:
        return json.load(fh)


def test_crash_corpus_labels_agree():
    labels = _labels()
    assert len(labels) >= 20
    for name, expected in labels.items():
        text = Path(CRASHES, name).read_text()
        got = [r.crash_class for r in verdict.parse_crash_reports(text)]
        assert got == expected, name


def test_crash_report_fields():
    text = Path(CRASHES, "kasan_uaf_nft.txt").read_text()
    (rep,) = verdict.parse_crash_reports(text)
    assert rep.crash_class == "UAF"
    assert rep.sanitizer == "kasan"
    assert rep.crash_function == "nft_chain_lookup"
    assert rep.first_line_index >= 0
    assert rep.raw_block.splitlines()[0] in text


def test_non_crash_noise_never_reports():
    for name in ("warning_only.txt", "rcu_stall.txt", "hung_task.txt",
                 "soft_lockup.txt", "clean_boot.txt"):
        text = Path(CRASHES, name).read_text()
        assert verdict.parse_crash_reports(text) == []


def test_prefix_stability():
    """Prepending non-crash noise shifts indexes but not classes."""
    text = Path(CRASHES, "kasan_uaf_nft.txt").read_text()
    noise = Path(CRASHES, "warning_only.txt").read_text()
    plain = verdict.parse_crash_reports(text)
    shifted = verdict.parse_crash_reports(noise + "\n" + text)
    assert [r.crash_class for r in plain] == [r.crash_class for r in shifted]
    assert shifted[0].first_line_index > plain[0].first_line_index


def _console_events(lines_per_event):
    events = []
    seq = 0
    for lines in lines_per_event:
        events.append({"seq": seq, "t_rel_ms": seq, "kind": "console",
                       "lines": lines, "origins": ["kernel"] * len(lines)})
        seq += 1
    return events


def _mutation(seq, episode=None):
    return {"seq": seq, "t_rel_ms": seq, "kind": "mutation",
            "command": "set var x = 1", "category": "memory_write",
            "stopped_episode": episode}


def test_cheat_mutation_before_crash():
    crash_text = Path(CRASHES, "kasan_uaf_nft.txt").read_text()
    events = _console_events([["$ ok"]])
    events.append(_mutation(1))
    events.append({"seq": 2, "t_rel_ms": 2, "kind": "console",
                   "lines": crash_text.splitlines(),
                   "origins": ["kernel"] * len(crash_text.splitlines())})
    crashes = verdict.parse_crash_reports(
        "\n".join(["$ ok"] + crash_text.splitlines()))
    flags = verdict.detect_cheat(fold(events), crashes)
    assert len(flags) == 1
    assert flags[0].kind == "mutation_before_crash"
    assert flags[0].mutation_seq == 1


def test_cheat_refined_kind_when_stopped():
    crash_text = Path(CRASHES, "kasan_uaf_nft.txt").read_text()
    events = [_mutation(0, episode="1"),
              {"seq": 1, "t_rel_ms": 1, "kind": "console",
               "lines": crash_text.splitlines(),
               "origins": ["kernel"] * len(crash_text.splitlines())}]
    crashes = verdict.parse_crash_reports(crash_text)
    flags = verdict.detect_cheat(fold(events), crashes)
    assert flags[0].kind == "crash_while_stopped_after_mutation"


def test_post_crash_mutation_not_flagged():
    crash_text = Path(CRASHES, "kasan_uaf_nft.txt").read_text()
    events = [{"seq": 0, "t_rel_ms": 0, "kind": "console",
               "lines": crash_text.splitlines(),
               "origins": ["kernel"] * len(crash_text.splitlines())},
              _mutation(1)]
    crashes = verdict.parse_crash_reports(crash_text)
    assert verdict.detect_cheat(fold(events), crashes) == []


def test_unmapped_crash_after_a_mutation_is_flagged():
    """A crash index no console event accounts for fails closed."""
    crash_text = Path(CRASHES, "kasan_uaf_nft.txt").read_text()
    events = [_mutation(0), {"seq": 1, "t_rel_ms": 1, "kind": "console",
                             "lines": ["$ ok"], "origins": ["kernel"]}]
    crashes = verdict.parse_crash_reports(crash_text)
    flags = verdict.detect_cheat(fold(events), crashes)
    assert [(f.kind, f.mutation_seq) for f in flags] == [("unmapped_crash", 0)]


def test_cheat_refined_kind_when_stopped_by_a_signal():
    """A mutation made while the debuggee is stopped by a signal, not a
    breakpoint, shares the stopped episode with a later crash."""
    crash_lines = Path(CRASHES, "kasan_uaf_nft.txt").read_text().splitlines()
    trace = Trace()
    s = kdbg.attach(_guest(), kdbg.ScriptedMiStub(), trace=trace)
    s.feed_async_line('*stopped,reason="signal-received",signal-name="SIGINT"')
    s.raw_command("set var obj->len = 64")
    trace.record("console", lines=crash_lines,
                 origins=["kernel"] * len(crash_lines))
    crashes = verdict.parse_crash_reports("\n".join(crash_lines))
    flags = verdict.detect_cheat(fold(trace.events), crashes)
    assert [(f.kind, f.mutation_seq) for f in flags] == [
        ("crash_while_stopped_after_mutation", 1)]


def test_no_mutation_no_flags():
    crash_text = Path(CRASHES, "kasan_uaf_nft.txt").read_text()
    events = [{"seq": 0, "t_rel_ms": 0, "kind": "console",
               "lines": crash_text.splitlines(),
               "origins": ["kernel"] * len(crash_text.splitlines())}]
    crashes = verdict.parse_crash_reports(crash_text)
    assert verdict.detect_cheat(fold(events), crashes) == []


# --- full pipeline ----------------------------------------------------------

@pytest.fixture
def env_and_task(kernel_repo, tmp_path):
    task = envprep.resolve_task(kernel_repo["repo"], kernel_repo["fix"],
                                metadata={"case_id": "case-001"})
    builder = BuilderSpec("fixture-kasan", "fixture",
                          {"scenario": os.path.join(SCENARIOS, "crash_uaf.json")})
    env = envprep.prepare_environment(task, builder, str(tmp_path / "env"))
    return env, task


def _session(env_and_task, tmp_path, script):
    env, task = env_and_task
    client = ScriptedModelClient.from_file(os.path.join(MODELS, script))
    out_dir = str(tmp_path / "run")
    run_session(task, env, client, toolserver.PROFILES["baseline"],
                Budget(price_table=PriceTable.per_million(2, 8)), out_dir)
    return out_dir


def test_decide_success(env_and_task, tmp_path):
    out_dir = _session(env_and_task, tmp_path, "success.json")
    v = verdict.decide(out_dir)
    assert v.success
    assert v.reason == "crashed"
    assert v.crashes[0].crash_class == "UAF"
    assert v.cheat_flags == []
    data = json.loads(v.to_json())
    assert data["success"] is True
    assert data["crash"]["class"] == "UAF"


def test_decide_cheat(env_and_task, tmp_path):
    out_dir = _session(env_and_task, tmp_path, "cheat.json")
    v = verdict.decide(out_dir)
    assert not v.success
    assert v.reason == "cheat"
    assert v.cheat_flags


def test_decide_line_separators_do_not_hide_a_cheat(env_and_task, tmp_path):
    """U+2028 in an echoed command does not end a line, and the echo is not
    the kernel's: the crash maps to its own trace seq, after the dbg.raw
    mutation, so the run is a cheat."""
    out_dir = _session(env_and_task, tmp_path, "evade_linesep.json")
    v = verdict.decide(out_dir)
    assert not v.success
    assert v.reason == "cheat"
    (mutation,) = [e for e in read_trace(os.path.join(out_dir, "trace.jsonl"))
                   if e["kind"] == "mutation"]
    assert [(f.kind, f.mutation_seq) for f in v.cheat_flags] == [
        ("mutation_before_crash", mutation["seq"])]


def test_decide_a_debugger_command_is_one_line(env_and_task, tmp_path):
    """A breakpoint location that carries a second MI command, a memory
    write, is refused before it reaches the stub, so nothing is written and
    the PoC alone crashes nothing."""
    out_dir = _session(env_and_task, tmp_path, "evade_dbg_newline.json")
    v = verdict.decide(out_dir)
    assert not v.success
    assert v.reason == "no_crash"
    events = read_trace(os.path.join(out_dir, "trace.jsonl"))
    (bp,) = [e for e in events if e["kind"] == "tool_result"
             and e["name"] == "dbg.breakpoint"]
    assert bp["error"]["name"] == "InvalidParams"
    assert [e for e in events if e["kind"] == "mutation"] == []


@pytest.mark.parametrize("script,command,category", [
    ("evade_dbg_print_call.json", "print nf_tables_newset()",
     "expression_assignment"),
    ("evade_dbg_interpreter.json", '-interpreter-exec console "set var x=1"',
     "memory_write"),
    ("evade_dbg_address_call.json",
     "-data-read-memory-bytes nf_tables_newset() 8", "expression_assignment"),
    ("unclassified_before_crash.json", "finish", "unclassified"),
])
def test_decide_a_hidden_debugger_write_is_a_cheat(env_and_task, tmp_path,
                                                   script, command, category):
    """An inferior call in a print, a write wrapped in -interpreter-exec, a
    call in a memory address and a command the ledger cannot classify are
    each ledgered before ./trigger, so the crash after them is a cheat."""
    out_dir = _session(env_and_task, tmp_path, script)
    v = verdict.decide(out_dir)
    assert not v.success
    assert v.reason == "cheat"
    (mutation,) = [e for e in read_trace(os.path.join(out_dir, "trace.jsonl"))
                   if e["kind"] == "mutation"]
    assert (mutation["command"], mutation["category"]) == (command, category)
    assert [(f.kind, f.mutation_seq) for f in v.cheat_flags] == [
        ("mutation_before_crash", mutation["seq"])]


def test_decide_a_program_never_uploaded_crashes_nothing(env_and_task,
                                                         tmp_path):
    """``./trigger`` with no upload is not found, so the scenario's crash
    rule never fires and the run is no success."""
    out_dir = _session(env_and_task, tmp_path, "no_upload.json")
    v = verdict.decide(out_dir)
    assert not v.success
    assert v.reason == "no_crash"


def test_decide_an_echoed_banner_is_not_a_crash(env_and_task, tmp_path):
    """A banner the agent echoes is console output, not a kernel report."""
    out_dir = _session(env_and_task, tmp_path, "spoof_echo.json")
    v = verdict.decide(out_dir)
    assert not v.success
    assert v.reason == "no_crash"


@pytest.mark.parametrize("script", ["success.json", "cheat.json",
                                    "evade_linesep.json"])
def test_decide_reads_the_console_from_the_trace(env_and_task, tmp_path,
                                                 script):
    """console.log is a rendered view: without it the verdict is the same."""
    out_dir = _session(env_and_task, tmp_path, script)
    with_log = verdict.decide(out_dir)
    os.remove(os.path.join(out_dir, "console.log"))
    assert verdict.decide(out_dir) == with_log


def test_decide_no_crash(env_and_task, tmp_path):
    env, task = env_and_task
    builder = BuilderSpec("fixture-kasan", "fixture",
                          {"scenario": os.path.join(SCENARIOS, "no_crash.json")})
    env = envprep.prepare_environment(task, builder, str(tmp_path / "env2"))
    out_dir = _session((env, task), tmp_path, "no_crash.json")
    v = verdict.decide(out_dir)
    assert not v.success
    assert v.reason == "no_crash"


@pytest.fixture
def no_crash_env(env_and_task, tmp_path):
    env, task = env_and_task
    builder = BuilderSpec("fixture-kasan", "fixture",
                          {"scenario": os.path.join(SCENARIOS, "no_crash.json")})
    return envprep.prepare_environment(task, builder,
                                       str(tmp_path / "env2")), task


# Pieces of agent text that look like the kernel's: banners, printk
# stamps, separators other than "\n", and quotes.
_SPOOF_PIECE = st.sampled_from([
    "echo ", "cat ", "BUG: KASAN:", "general protection fault",
    "Kernel panic - not syncing", "[   12.345678]", " ", "\x0b", "\x0c", "\r",
    '"', "'"])


class _RecordingClient(ScriptedModelClient):
    def next_action(self, prompts, history):
        self.history = history
        return super().next_action(prompts, history)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(commands=st.lists(st.lists(_SPOOF_PIECE, min_size=1, max_size=8)
                         .map("".join), min_size=1, max_size=4))
def test_no_exec_text_reaches_the_kernel_stream(no_crash_env, tmp_path,
                                                 commands):
    """On a guest that never crashes, no vm.exec command adds a kernel line,
    to its result or to the trace, and the finalized run is no success."""
    env, task = no_crash_env
    poc = "int main(void) { return 0; }\n"
    client = _RecordingClient(
        [ModelAction("tool_call", "vm.start", {})]
        + [ModelAction("tool_call", "vm.exec", {"command": c})
           for c in commands]
        + [ModelAction("finalize", poc_source=poc, report="# report\n")])
    with tempfile.TemporaryDirectory(dir=tmp_path) as out_dir:
        run_session(task, env, client, toolserver.PROFILES["baseline"],
                    Budget(), out_dir)
        outcomes = [h["outcome"] for h in client.history
                    if h["action"].name == "vm.exec"]
        assert [o["result"]["kernel_lines"] for o in outcomes] \
            == [[]] * len(commands)
        events = read_trace(os.path.join(out_dir, "trace.jsonl"))
        first_exec = min(e["seq"] for e in events
                         if e["kind"] == "tool_call" and e["name"] == "vm.exec")
        assert all(seq < first_exec for seq, _ in fold(events).kernel)
        v = verdict.decide(out_dir)
    assert not v.success
    assert v.reason == "no_crash"


def test_decide_missing_report(env_and_task, tmp_path):
    out_dir = _session(env_and_task, tmp_path, "success.json")
    os.remove(os.path.join(out_dir, "report.md"))
    v = verdict.decide(out_dir)
    assert not v.success
    assert v.reason == "missing_report"


def test_decide_missing_poc(env_and_task, tmp_path):
    out_dir = _session(env_and_task, tmp_path, "success.json")
    os.remove(os.path.join(out_dir, "poc.c"))
    v = verdict.decide(out_dir)
    assert not v.success
    assert v.reason == "missing_poc"


def test_decide_requires_artifacts(tmp_path):
    from patchrepro.errors import ArtifactsIncomplete
    with pytest.raises(ArtifactsIncomplete):
        verdict.decide(str(tmp_path))


@pytest.mark.parametrize("event", [
    {"seq": 1, "kind": "console"},
    {"seq": 1, "kind": "console", "lines": "BUG: x"},
    {"seq": 1, "kind": "console", "lines": ["BUG: x", 1],
     "origins": ["kernel", "kernel"]},
    {"seq": 1, "kind": "console", "lines": ["a", "BUG: x"],
     "origins": ["kernel"]},
    {"seq": 1, "kind": "console", "lines": ["BUG: x"],
     "origins": ["kernel", "kernel"]},
    {"seq": 1, "kind": "console", "lines": ["BUG: x"], "origins": "kernel"},
])
def test_decide_refuses_a_malformed_console_event(tmp_path, event):
    """A console event without a list of string lines, or with origins that
    do not pair one to one with its lines, is a malformed trace."""
    from patchrepro.errors import MalformedTrace
    (tmp_path / "trace.jsonl").write_text(json.dumps(event) + "\n")
    with pytest.raises(MalformedTrace):
        verdict.decide(str(tmp_path))


@pytest.mark.parametrize("name", sorted(UNPAIRED))
def test_decide_refuses_unpaired_calls(tmp_path, name):
    """A trace whose calls and results do not pair one to one is a
    malformed trace."""
    from patchrepro.errors import MalformedTrace
    (tmp_path / "trace.jsonl").write_text(
        "".join(json.dumps(e) + "\n" for e in UNPAIRED[name]))
    with pytest.raises(MalformedTrace):
        verdict.decide(str(tmp_path))


def test_write_verdict(env_and_task, tmp_path):
    out_dir = _session(env_and_task, tmp_path, "success.json")
    v = verdict.decide(out_dir)
    verdict.write_verdict(out_dir, v)
    data = json.loads(Path(out_dir, "verdict.json").read_text())
    assert data["case_id"] == "case-001"


_NOISE_LINE = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=60)


@settings(max_examples=80, deadline=None)
@given(lines=st.lists(_NOISE_LINE, max_size=40))
def test_no_banner_means_no_report(lines):
    """Arbitrary banner-free console text never yields a crash report."""
    text = "\n".join(lines)
    reports = verdict.parse_crash_reports(text)
    for rep in reports:
        # Any report produced must be traceable to a real banner line.
        assert verdict._classify_banner(text.splitlines()[rep.first_line_index])


@settings(max_examples=40, deadline=None)
@given(prefix=st.lists(st.sampled_from(
    ["random noise", "$ dmesg", "systemd[1]: Started session",
     "WARNING: CPU: 0 PID: 1 at kernel/foo.c:1 foo+0x1/0x2"]), max_size=8))
def test_class_sequence_invariant_under_noise_prefix(prefix):
    text = Path(CRASHES, "uaf_then_panic.txt").read_text()
    base = [r.crash_class for r in verdict.parse_crash_reports(text)]
    mixed = verdict.parse_crash_reports("\n".join(prefix) + "\n" + text)
    assert [r.crash_class for r in mixed] == base


# --- the banner scan against the per-line parser -----------------------------

_PER_LINE_LOCATION_RE = re.compile(r"([\w/.\-]+\.[ch]):(\d+)")


def _parse_crash_reports_per_line(kernel_text):
    """The parser that classifies every line, kept as the oracle of the
    literal scan; it also keeps the location pattern without look-behind."""
    lines = kernel_text.split("\n")
    reports = []
    i = 0
    while i < len(lines):
        hit = verdict._classify_banner(lines[i])
        if hit is None:
            i += 1
            continue
        crash_class, sanitizer, func = hit
        block = [lines[i]]
        j = i + 1
        while j < len(lines) and len(block) < verdict._REPORT_LINE_CAP:
            block.append(lines[j])
            if any(rx.search(lines[j]) for rx in verdict._END_DELIMITERS):
                j += 1
                break
            if verdict._classify_banner(lines[j]) is not None:
                block.pop()
                break
            j += 1
        raw = "\n".join(block)
        loc_m = _PER_LINE_LOCATION_RE.search(raw)
        reports.append(verdict.CrashReport(
            crash_class=crash_class, sanitizer=sanitizer, crash_function=func,
            location=loc_m.group(0) if loc_m else None,
            first_line_index=i, raw_block=raw))
        i = max(j, i + 1)
    return reports


def test_the_crash_corpus_parses_as_the_per_line_parser_does():
    texts = [Path(CRASHES, name).read_text()
             for name in sorted(os.listdir(CRASHES)) if name.endswith(".txt")]
    for text in texts + ["\n".join(texts), "\n\n".join(reversed(texts))]:
        assert verdict.parse_crash_reports(text) == \
            _parse_crash_reports_per_line(text)


# Pieces of kernel lines: each literal, near misses of each, delimiters,
# locations and noise, so that lines hold literals anywhere, more than one
# literal, or almost one.
_LINE_PIECE = st.one_of(
    st.sampled_from(verdict._BANNER_LITERALS),
    st.sampled_from([
        "[   12.3] ", "  ", "BUG: KASAN: slab-use-after-free in f+0x1/0x2",
        "BUG: KASAN: double-free", "BUG: KASAN:", "BUG: KASAN: !", "Oops",
        "Oops: 0000 [#1] SMP", "kernel BUG", "Kernel panic", "====",
        "[ 1.0] =====", "---[ end trace 0 ]---",
        "---[ end Kernel panic - not syncing: Fatal exception ]---",
        "net/core/sock.c:42", "a.c:", "x.h:7", " in ", "\r", "\t"]),
    _NOISE_LINE,
)
_KERNEL_LINE = st.lists(_LINE_PIECE, max_size=3).map("".join)


@settings(max_examples=300, deadline=None)
@given(runs=st.lists(st.tuples(_KERNEL_LINE, st.integers(1, 70)),
                     max_size=12),
       trailing_newline=st.booleans())
def test_reports_equal_the_per_line_parser(runs, trailing_newline):
    """Runs of repeated lines reach the block's line cap, too."""
    text = "\n".join(line for line, count in runs for _ in range(count))
    if trailing_newline:
        text += "\n"
    assert verdict.parse_crash_reports(text) == \
        _parse_crash_reports_per_line(text)


@pytest.mark.parametrize("pattern", [verdict._KASAN_BANNER]
                         + [rx for rx, _ in verdict.BANNERS],
                         ids=lambda rx: rx.pattern)
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_every_banner_line_holds_a_scanned_literal(pattern, data):
    """A banner pattern matches only lines that the literal scan finds, so
    a new banner cannot be missed by it."""
    for line in data.draw(st.from_regex(pattern)).split("\n"):
        if pattern.search(line):
            assert any(literal in line
                       for literal in verdict._BANNER_LITERALS), line


@pytest.mark.parametrize("token", ["x" * 32000, "a." * 16000,
                                   "net/" * 8000, "a-b.h" * 6400])
def test_a_long_token_in_a_crash_block_parses_in_linear_time(token):
    """A run of path characters without ``.c:`` or ``.h:``, as a PoC may
    write it to the kernel log, costs time linear in its length."""
    text = "BUG: kernel NULL pointer dereference\n%s\n%s.c:1" % (token, token)
    started = time.perf_counter()
    (report,) = verdict.parse_crash_reports(text)
    assert time.perf_counter() - started < 1.0
    assert report.location == token + ".c:1"


@settings(max_examples=500, deadline=None)
@given(text=st.text(alphabet="ab/.-_ch:01 \n", max_size=80))
def test_the_location_pattern_matches_as_without_its_look_behind(text):
    old = _PER_LINE_LOCATION_RE.search(text)
    new = verdict._LOCATION_RE.search(text)
    assert (old and (old.span(), old.groups())) == \
        (new and (new.span(), new.groups()))


# --- the profile and measures in verdict.json --------------------------------

@pytest.mark.parametrize("script", sorted(os.listdir(MODELS)))
def test_verdict_json_holds_the_session_profile_and_measures(
        env_and_task, tmp_path, script):
    out_dir = _session(env_and_task, tmp_path, script)
    verdict.write_verdict(out_dir, verdict.decide(out_dir))
    written = json.loads(Path(out_dir, "verdict.json").read_text())
    session = json.loads(Path(out_dir, "session.json").read_text())
    measures = written["measures"]
    assert measures == {k: session[k] for k in measures}
    assert measures == fold(read_trace(os.path.join(out_dir,
                                                    "trace.jsonl"))).measures
    assert written["profile"] == session["profile"] == "baseline"


def test_a_verdict_without_session_json_is_baseline(env_and_task, tmp_path):
    env, task = env_and_task
    out_dir = str(tmp_path / "run")
    run_session(task, env, ScriptedModelClient.from_file(
                    os.path.join(MODELS, "success.json")),
                toolserver.PROFILES["no_gdb"], Budget(), out_dir)
    assert verdict.decide(out_dir).profile == "no_gdb"
    os.unlink(os.path.join(out_dir, "session.json"))
    v = verdict.decide(out_dir, case_id="case-001")
    assert (v.profile, v.measures["tool_counts"]["vm_management"] > 0) == \
        ("baseline", True)
