import copy
import dataclasses
import hashlib
import json
import os
import re
import shutil
import time
from types import SimpleNamespace

import pytest

from patchrepro import envprep, errors, guestvm, pocbuild
from tests.conftest import SCENARIOS


def _boot(name="crash_uaf.json"):
    path = os.path.join(SCENARIOS, name)
    guest = guestvm.MockGuest(guestvm.GuestScenario.load(path))
    return guestvm.restore_from_snapshot(guestvm.create_snapshot(
        {"scenario_path": path, "guest_state": guest.state}))


def _upload(handle, name="trigger"):
    """Place a program in the guest without a compile."""
    guestvm.upload_poc(handle, pocbuild.PocBuild("0", b"stub", "", "cc"),
                       "/root/" + name)


@pytest.mark.parametrize("post", ["emit-crash:x", "emit_crash:no_such.txt",
                                  "interruptible", 1])
def test_a_scenario_rule_with_a_bad_post_is_refused(tmp_path, post):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"rules": [
        {"pattern": "^ok$", "post": "ok"},
        {"pattern": "^go$", "post": post}]}))
    with pytest.raises(errors.EnvBootFailed,
                       match=r"bad.json: rule '\^go\$' has post"):
        guestvm.GuestScenario.load(str(path))


def test_a_crash_file_that_is_not_utf8_is_refused_at_load(tmp_path):
    (tmp_path / "crash.txt").write_bytes(b"[    1.0] BUG: \xff\n")
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"rules": [
        {"pattern": "^go$", "post": "emit_crash:crash.txt"}]}))
    with pytest.raises(errors.EnvBootFailed,
                       match=r"bad.json: rule '\^go\$' has post"):
        guestvm.GuestScenario.load(str(path))


@pytest.mark.parametrize("rule", [{"pattern": "^x$", "posts": "ok"},
                                  {"response": "no pattern"}, ["^x$", "ok"]],
                         ids=["unknown_key", "no_pattern", "not_an_object"])
def test_a_scenario_rule_of_other_keys_is_refused_by_name(tmp_path, rule):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"rules": [rule]}))
    with pytest.raises(errors.EnvBootFailed) as ei:
        guestvm.GuestScenario.load(str(path))
    assert str(ei.value) == ("scenario bad.json: rule %s is not an object of "
                             "pattern, response and post" % json.dumps(rule))


_UNUSABLE_RULES = [
    pytest.param({"pattern": "("}, "has a pattern that does not compile: "
                 "missing \\), unterminated subpattern at position 0",
                 id="unbalanced"),
    pytest.param({"pattern": "a{4294967296}"}, "has a pattern that does not "
                 "compile: the repetition number is too large",
                 id="huge_repeat"),
    pytest.param({"pattern": "(" * 5000 + ")" * 5000}, "has a pattern that "
                 "does not compile: maximum recursion depth exceeded.*",
                 id="deep_nesting"),
    pytest.param({"pattern": 5}, "has a pattern that is not a string",
                 id="number"),
    pytest.param({"pattern": "^x$", "response": 5},
                 "has a response that is not a string", id="numeric_response"),
]


@pytest.mark.parametrize("rule, why", _UNUSABLE_RULES)
def test_a_rule_that_cannot_answer_is_refused_at_load(tmp_path, rule, why):
    """A rule is checked when its scenario loads, not when a command first
    reaches it."""
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"rules": [{"pattern": "^ok$"}, rule]}))
    with pytest.raises(errors.EnvBootFailed,
                       match="^scenario bad.json: rule %s %s$"
                             % (re.escape(json.dumps(rule)), why)):
        guestvm.GuestScenario.load(str(path))


@pytest.mark.parametrize("rule, why", _UNUSABLE_RULES)
def test_a_rule_that_cannot_answer_fails_the_preparation(kernel_repo,
                                                         tmp_path, rule, why):
    """The boot smoke test never meets such a rule: the preparation fails
    first, naming it."""
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"rules": [rule]}))
    task = envprep.resolve_task(kernel_repo["repo"], kernel_repo["fix"])
    with pytest.raises(errors.EnvBootFailed,
                       match=re.escape(json.dumps(rule)) + " " + why):
        envprep.prepare_environment(
            task, envprep.BuilderSpec("fixture-kasan", "fixture",
                                      {"scenario": str(path)}),
            str(tmp_path / "env"))


@pytest.mark.parametrize("scenario, why", [
    ("[]", "is not a JSON object"),
    ('"rules"', "is not a JSON object"),
    ('{"rules": 5}', "rules is 5, not a list"),
    ('{"rules": {"pattern": "x"}}', 'rules is {"pattern": "x"}, not a list'),
    ('{"rules": null}', "rules is null, not a list"),
    ('{"boot_banner": 5}', "boot_banner is 5, not a string"),
    ('{"prompt": 7}', "prompt is 7, not a string"),
    ('{"prompt": null}', "prompt is null, not a string"),
    ('{"debug": 5}', "debug is 5, not an object or null"),
    ('{"debug": []}', "debug is \\[\\], not an object or null"),
    ('{"debug": false}', "debug is false, not an object or null"),
])
def test_a_malformed_scenario_is_refused_at_load(kernel_repo, tmp_path,
                                                 monkeypatch, scenario, why):
    """A scenario whose top level is not an object, or holds a key of the
    wrong kind, is refused by name when it loads, and so before the
    preparation's boot smoke test sends a command."""
    path = tmp_path / "bad.json"
    path.write_text(scenario)
    with pytest.raises(errors.EnvBootFailed, match="^scenario bad.json:? "
                                                   + why + "$"):
        guestvm.GuestScenario.load(str(path))
    commands = []
    monkeypatch.setattr(guestvm, "exec_console",
                        lambda handle, command, **kw: commands.append(command))
    task = envprep.resolve_task(kernel_repo["repo"], kernel_repo["fix"])
    with pytest.raises(errors.EnvBootFailed, match=why):
        envprep.prepare_environment(
            task, envprep.BuilderSpec("fixture-kasan", "fixture",
                                      {"scenario": str(path)}),
            str(tmp_path / "env"))
    assert commands == []


@pytest.mark.parametrize("scenario", ['{}', '{"debug": null}',
                                      '{"debug": {}, "rules": []}'])
def test_a_scenario_may_leave_keys_out_and_debug_null(tmp_path, scenario):
    """Each checked key may be left out, and ``debug`` may be null."""
    path = tmp_path / "ok.json"
    path.write_text(scenario)
    loaded = guestvm.GuestScenario.load(str(path))
    assert (loaded.rules, loaded.debug, loaded.prompt) == ([], {}, "repro$ ")


def test_a_rule_keeps_its_compiled_pattern_out_of_its_fields(tmp_path):
    """The compiled pattern is no scenario key: a rule naming ``regex`` is
    refused like any other unknown key."""
    assert [f.name for f in dataclasses.fields(guestvm.ScenarioRule)] == [
        "pattern", "response", "post"]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"rules": [{"pattern": "^x$",
                                           "regex": "^x$"}]}))
    with pytest.raises(errors.EnvBootFailed, match="is not an object of"):
        guestvm.GuestScenario.load(str(path))


def test_a_snapshot_boots_only_the_scenario_content_it_pins(kernel_repo,
                                                            tmp_path):
    """A scenario edited after ``prepare_environment`` is refused by every
    later boot of that environment, rather than answered from."""
    path = tmp_path / "no_crash.json"
    shutil.copy(os.path.join(SCENARIOS, "no_crash.json"), path)
    task = envprep.resolve_task(kernel_repo["repo"], kernel_repo["fix"])
    env = envprep.prepare_environment(
        task, envprep.BuilderSpec("fixture-kasan", "fixture",
                                  {"scenario": str(path)}),
        str(tmp_path / "env"))
    h = guestvm.start_guest(env)
    _upload(h)
    assert "without incident" in guestvm.exec_console(h, "./trigger").text
    path.write_text(path.read_text().replace(
        "trigger: completed without incident", "EDITED"))
    _, loaded = envprep.load_environment(env.env_dir)
    for boot in (lambda: guestvm.restart_guest(h),
                 lambda: guestvm.start_guest(env),
                 lambda: guestvm.start_guest(loaded)):
        with pytest.raises(errors.EnvBootFailed,
                           match="no_crash.json is not the content its "
                                 "snapshot pins"):
            boot()
    state = dict(env.snapshot_ref.state)
    del state["scenario_sha256"]
    assert guestvm.create_snapshot(state).snapshot_id != \
        env.snapshot_ref.snapshot_id


def test_an_env_whose_snapshot_pins_no_scenario_content_is_refused(
        kernel_repo, tmp_path):
    """An env dir saved before snapshots pinned their scenario's sha256
    fails to boot, and says to prepare it again."""
    task = envprep.resolve_task(kernel_repo["repo"], kernel_repo["fix"])
    env = envprep.prepare_environment(
        task, envprep.BuilderSpec("fixture-kasan", "fixture",
                                  {"scenario": os.path.join(
                                      SCENARIOS, "no_crash.json")}),
        str(tmp_path / "env"))
    manifest_path = os.path.join(env.env_dir, "manifest.json")
    with open(manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    del manifest["snapshot"]["state"]["scenario_sha256"]
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)
    _, loaded = envprep.load_environment(env.env_dir)
    with pytest.raises(errors.EnvBootFailed,
                       match="snapshot %s pins no scenario content; prepare "
                             "the environment again"
                             % loaded.snapshot_ref.snapshot_id):
        guestvm.start_guest(loaded)


def _crash_env(kernel_repo, tmp_path):
    """An environment of a copy of crash_uaf.json and its crash file."""
    (tmp_path / "scenarios").mkdir()
    path = tmp_path / "scenarios" / "crash_uaf.json"
    shutil.copy(os.path.join(SCENARIOS, "crash_uaf.json"), path)
    name = json.loads(path.read_text())["rules"][0]["post"].split(":", 1)[1]
    crash = tmp_path / "scenarios" / name
    crash.parent.mkdir(exist_ok=True)
    shutil.copy(os.path.join(SCENARIOS, name), crash)
    task = envprep.resolve_task(kernel_repo["repo"], kernel_repo["fix"])
    env = envprep.prepare_environment(
        task, envprep.BuilderSpec("fixture-kasan", "fixture",
                                  {"scenario": str(path)}),
        str(tmp_path / "env"))
    return env, name, crash


def test_a_snapshot_boots_only_the_crash_content_it_pins(kernel_repo,
                                                         tmp_path):
    """A crash file edited after ``prepare_environment`` is refused by every
    later boot of that environment, rather than emitted."""
    env, name, crash = _crash_env(kernel_repo, tmp_path)
    assert env.snapshot_ref.state["crash_sha256"] == {
        name: hashlib.sha256(crash.read_bytes()).hexdigest()}
    h = guestvm.start_guest(env)
    _upload(h)
    kasan = guestvm.exec_console(h, "./trigger").kernel_lines
    assert any("KASAN" in line for line in kasan)
    crash.write_text("EDITED CRASH TEXT\n")
    _, loaded = envprep.load_environment(env.env_dir)
    for boot in (lambda: guestvm.restart_guest(h),
                 lambda: guestvm.start_guest(env),
                 lambda: guestvm.start_guest(loaded)):
        with pytest.raises(errors.EnvBootFailed,
                           match="crash file %s is not the content its "
                                 "snapshot pins" % re.escape(name)):
            boot()


def test_a_boot_keeps_the_crash_text_it_checked(kernel_repo, tmp_path):
    """A crash file edited after the boot does not change what that guest
    emits: the boot read it once."""
    env, _, crash = _crash_env(kernel_repo, tmp_path)
    h = guestvm.start_guest(env)
    want = crash.read_text()
    crash.write_text("EDITED CRASH TEXT\n")
    _upload(h)
    out = guestvm.exec_console(h, "./trigger")
    assert out.kernel_lines == guestvm.split_lines(want)


def test_an_env_whose_snapshot_pins_no_crash_content_is_refused(
        kernel_repo, tmp_path):
    """An env dir saved before snapshots pinned their crash files fails to
    boot, and says to prepare it again."""
    env = _crash_env(kernel_repo, tmp_path)[0]
    manifest_path = os.path.join(env.env_dir, "manifest.json")
    with open(manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    del manifest["snapshot"]["state"]["crash_sha256"]
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)
    _, loaded = envprep.load_environment(env.env_dir)
    with pytest.raises(errors.EnvBootFailed,
                       match="snapshot %s pins no crash file content; "
                             "prepare the environment again"
                             % loaded.snapshot_ref.snapshot_id):
        guestvm.start_guest(loaded)


def test_a_program_runs_only_once_uploaded_since_the_last_boot():
    """A scenario rule answers ``./trigger`` only after an upload of
    ``trigger`` to the guest booted last."""
    h = _boot()
    out = guestvm.exec_console(h, "./trigger")
    assert out.text == "sh: ./trigger: command not found\n"
    assert not out.kernel_lines and h.state == "running"
    _upload(h)
    guestvm.restart_guest(h)
    assert "not found" in guestvm.exec_console(h, "./trigger").text
    _upload(h)
    assert guestvm.exec_console(h, "./trigger").kernel_lines


def test_builtin_echo():
    h = _boot()
    out = guestvm.exec_console(h, "echo hello")
    assert "hello" in out.text
    assert not out.timed_out


def test_scenario_rule_and_crash_transition():
    h = _boot()
    _upload(h)
    out = guestvm.exec_console(h, "./trigger")
    assert any("KASAN" in ln for ln in out.kernel_lines)
    assert h.state == "unresponsive"
    with pytest.raises(errors.GuestUnavailable):
        guestvm.exec_console(h, "echo again")


def test_hang_then_signal_regains_prompt():
    h = _boot()
    out = guestvm.exec_console(h, "spin", timeout_s=0.01)
    assert out.timed_out
    res = guestvm.send_signal(h, "interrupt")
    assert res["prompt_regained"]
    out = guestvm.exec_console(h, "echo back")
    assert "back" in out.text


def test_blocked_utilities_command_not_found():
    h = _boot()
    h.mock.state["blocked_utilities"] = ["nft"]
    out = guestvm.exec_console(h, "nft list ruleset")
    assert "command not found" in out.text


def test_snapshot_restore_isolation():
    """Files created after the snapshot are gone after a restore."""
    h = _boot()
    baseline = h.state_digest()
    guestvm.exec_console(h, "touch /tmp/mark")
    assert "exists" in guestvm.exec_console(h, "cat /tmp/mark").text \
        or h.state_digest() != baseline
    fresh = guestvm.restore_from_snapshot(h.snapshot_ref)
    assert fresh.state_digest() == baseline
    out = guestvm.exec_console(fresh, "cat /tmp/mark")
    assert "No such file" in out.text


def test_a_snapshot_is_an_immutable_value():
    """Boots copy the snapshot's state; none writes to the snapshot."""
    h = _boot()
    snap = h.snapshot_ref
    before = copy.deepcopy(snap)
    guestvm.exec_console(h, "touch /tmp/mark")
    guestvm.restart_guest(h)
    guestvm.restore_from_snapshot(snap)
    assert snap == before
    with pytest.raises(dataclasses.FrozenInstanceError):
        snap.state = {}


def test_restart_preserves_gate_and_transcript():
    h = _boot()
    gate, transcript, origins = h.gate, h.transcript, h.origins
    _upload(h)
    guestvm.exec_console(h, "./trigger")
    assert h.state == "unresponsive"
    before = len(h.transcript)
    assert guestvm.restart_guest(h) is h
    assert h.state == "running" and h.guest_id == "guest-2"
    assert h.gate is gate and h.transcript is transcript \
        and h.origins is origins
    assert h.transcript[before:] == ["== guest restarted =="]
    assert h.origins[before:] == ["lifecycle"]
    guestvm.exec_console(h, "echo ok")


def test_snapshot_requires_booted_guest():
    h = _boot()
    h.mock.state["booted"] = False
    with pytest.raises(errors.SnapshotFailed):
        guestvm.create_snapshot(
            {"scenario_path": h.snapshot_ref.state["scenario_path"],
             "guest_state": h.mock.state})


def test_gate_blocks_interaction():
    h = _boot()
    h.gate.stop_breakpoint("1")
    with pytest.raises(errors.DebuggeeHalted):
        guestvm.exec_console(h, "echo x")
    with pytest.raises(errors.DebuggeeHalted):
        guestvm.send_signal(h, "interrupt")
    with pytest.raises(errors.DebuggeeHalted):
        guestvm.compile_and_upload(h, "int main(void){return 0;}", "/p")
    h.gate.resume()
    assert "x" in guestvm.exec_console(h, "echo x").text


def test_compile_upload_success_and_failure():
    h = _boot()
    res = guestvm.compile_and_upload(
        h, "int main(void) { return 0; }", "/tmp/poc")
    assert res.binary_size > 0
    with pytest.raises(errors.CompileFailed) as ei:
        guestvm.compile_and_upload(h, "int main(void { broken", "/tmp/poc")
    assert ei.value.compile_log  # diagnostics surfaced
    out = guestvm.exec_console(h, "/tmp/poc")
    assert not out.timed_out


def _stand_in_compiler(directory, body):
    """A ``gcc`` shell script in ``directory``, which then leads PATH."""
    script = directory / "gcc"
    script.write_text("#!/bin/sh\n" + body)
    script.chmod(0o755)


def _lead_path(monkeypatch, directory):
    monkeypatch.setenv("PATH", "%s%s%s" % (directory, os.pathsep,
                                           os.environ["PATH"]))


def _counting_compiler(directory, monkeypatch, body=""):
    """A stand-in ``gcc`` leading PATH that adds a line to ``runs`` each
    time it runs and lists its last argument, the file it reads, where
    ``-MF`` and ``-Wa,--MD,`` say; then it runs ``body``, which by default
    writes a 4-byte "binary" where ``-o`` says.  Returns a function giving
    the run count."""
    directory.mkdir(exist_ok=True)
    runs = directory / "runs"
    _stand_in_compiler(directory, (
        'echo run >> "%s"\n'
        'for arg; do src=$arg; done\n'
        'for arg; do\n'
        '  case $prev in -o) out=$arg;; -MF) echo "out: $src" > "$arg";; esac\n'
        '  case $arg in -Wa,--MD,*) echo "out: $src" > "${arg#-Wa,--MD,}";; esac\n'
        '  prev=$arg\n'
        'done\n' % runs) + (body or 'printf stub > "$out"\n'))
    _lead_path(monkeypatch, directory)
    return lambda: len(runs.read_text().splitlines()) if runs.exists() else 0


def _uploads(handle):
    return [line for line, origin in zip(handle.transcript, handle.origins)
            if origin == "lifecycle" and line.startswith("== uploaded")]


def _alive(pid):
    """Whether process ``pid`` exists and is not a zombie."""
    try:
        with open("/proc/%d/stat" % pid) as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def test_compile_reads_no_stdin(tmp_path, monkeypatch):
    stdin = tmp_path / "stdin"
    _counting_compiler(tmp_path / "cc", monkeypatch, body=(
        'readlink /proc/self/fd/0 >> "%s"\nprintf stub > "$out"\n' % stdin))
    guestvm.compile_and_upload(_boot(), "int main;", "/tmp/poc")
    assert stdin.read_text() == "/dev/null\n"


def test_compile_timeout_ends_the_whole_compiler(tmp_path, monkeypatch):
    """A compiler that hangs is stopped at the timeout, with the processes
    it started, and the call fails saying so."""
    child = tmp_path / "child.pid"
    _stand_in_compiler(tmp_path, 'sleep 120 &\necho $! > "%s"\nwait\n' % child)
    _lead_path(monkeypatch, tmp_path)
    monkeypatch.setattr(pocbuild, "COMPILE_TIMEOUT_S", 0.5)
    h = _boot()
    started = time.monotonic()
    with pytest.raises(errors.CompileFailed, match="timed out after 0.5 s"):
        guestvm.compile_and_upload(h, "int main;", "/tmp/poc")
    # A child left running would hold the log pipe open until it ended.
    assert time.monotonic() - started < 60
    assert not _alive(int(child.read_text()))
    assert "poc" not in h.mock.state["programs"]


SOURCE = "int main(void) { return 0; }"


def test_a_source_is_built_once_per_session(tmp_path, monkeypatch):
    """After a restart the same source is uploaded again, from the first
    build."""
    runs = _counting_compiler(tmp_path, monkeypatch)
    h = _boot()
    first = guestvm.compile_and_upload(h, SOURCE, "/tmp/poc")
    guestvm.restart_guest(h)
    again = guestvm.compile_and_upload(h, SOURCE, "/tmp/poc")
    assert runs() == 1
    assert again == first and first.binary_size == len("stub")
    assert _uploads(h) == ["== uploaded /tmp/poc (4 bytes) =="] * 2
    assert "poc" in h.mock.state["programs"]


def test_a_new_source_or_compiler_is_built_again(tmp_path, monkeypatch,
                                                 build_store):
    runs = _counting_compiler(tmp_path / "a", monkeypatch)
    h = _boot()
    guestvm.compile_and_upload(h, SOURCE, "/tmp/poc")
    guestvm.compile_and_upload(h, SOURCE + "\n", "/tmp/poc")
    assert runs() == 2
    other = _counting_compiler(tmp_path / "b", monkeypatch)
    guestvm.compile_and_upload(h, SOURCE, "/tmp/poc")
    assert (runs(), other()) == (2, 1)
    assert len(build_store) == 3


def test_an_upload_names_the_compiler_that_ran(tmp_path, monkeypatch):
    """The upload's ``compiler_id`` is the compiler found on PATH with the
    target and version lines of its own ``-E -v`` log, which the check of
    the host header that the build read ran."""
    include = tmp_path / "include"
    include.mkdir()
    _stand_in_compiler(tmp_path, (
        'for arg; do\n'
        '  case $prev in -o) out=$arg;; -MF) dep=$arg;; esac\n'
        '  case $arg in -Wa,--MD,*) echo "poc.o: poc.s" > "${arg#-Wa,--MD,}";;'
        ' esac\n'
        '  prev=$arg\n'
        'done\n'
        'if [ "$1" = -E ]; then\n'
        '  printf "Target: toy-elf\\ngcc version 0.1 (stand-in) \\n'
        '#include <...> search starts here:\\n %s\\nEnd of search list.\\n"'
        ' >&2\n'
        '  exit 0\n'
        'fi\n'
        'echo "poc: poc.c %s/toy.h" > "$dep"\n'
        'printf stub > "$out"\n') % (include, include))
    _lead_path(monkeypatch, tmp_path)
    res = guestvm.compile_and_upload(_boot(), SOURCE, "/tmp/poc")
    assert res.binary_size == len("stub")
    assert res.compiler_id == ("%s; Target: toy-elf; gcc version 0.1 "
                               "(stand-in)" % (tmp_path / "gcc"))


# A stand-in compile that fails, naming the source file it was given.
FAILS = 'echo "$src:1:1: error: no" >&2\nexit 1\n'


@pytest.mark.parametrize("body,timeout_s,message", [
    (FAILS, 60, "compilation failed"),
    ("sleep 30\n", 0.3, "timed out after 0.3 s")])
def test_a_failed_or_timed_out_compile_is_built_again(tmp_path, monkeypatch,
                                                      body, timeout_s,
                                                      message, build_store):
    runs = _counting_compiler(tmp_path, monkeypatch, body=body)
    monkeypatch.setattr(pocbuild, "COMPILE_TIMEOUT_S", timeout_s)
    h = _boot()
    for attempt in (1, 2):
        with pytest.raises(errors.CompileFailed, match=message):
            guestvm.compile_and_upload(h, SOURCE, "/tmp/poc")
        assert runs() == attempt
    assert not build_store and _uploads(h) == []


def test_a_failed_compile_log_names_the_source_poc_c(tmp_path, monkeypatch):
    _counting_compiler(tmp_path, monkeypatch, body=FAILS)
    with pytest.raises(errors.CompileFailed) as ei:
        guestvm.compile_and_upload(_boot(), SOURCE, "/tmp/poc")
    assert ei.value.compile_log == "poc.c:1:1: error: no\n"
    assert ei.value.data == {"kind": "compile",
                             "compile_log": ei.value.compile_log}


def test_a_long_compile_log_is_cut(tmp_path, monkeypatch):
    _counting_compiler(tmp_path, monkeypatch, body=(
        "printf '%0300d' 0 >&2\nexit 1\n"))
    monkeypatch.setattr(pocbuild, "COMPILE_LOG_MAX_CHARS", 100)
    with pytest.raises(errors.CompileFailed) as ei:
        guestvm.compile_and_upload(_boot(), SOURCE, "/tmp/poc")
    assert ei.value.compile_log == "0" * 100 + "\n[log cut at 100 characters]\n"


MARKER = "host_file_marker_7c1e"


NOT_C = "%s is not C\n" % MARKER
WARNS = "#warning %s\nint %s;\n" % (MARKER, MARKER)
REFUSED = (errors.HostPathRefused, "outside the system include dirs", None)


@pytest.mark.parametrize("host_text,reads,refusal", [
    (NOT_C, '#include "%s"\n', REFUSED),
    (WARNS, '#include "%s"\n', REFUSED),
    (NOT_C, 'asm(".incbin \\"%s\\"");\n', REFUSED),
    (NOT_C, 'asm(".include \\"%s\\"");\n',
     (errors.CompileFailed, "assembly failed", {"kind": "assembly"}))],
    ids=["include_fails", "include_builds", "incbin_builds",
         "asm_include_fails"])
def test_a_build_that_reads_a_host_file_shows_none_of_it(tmp_path, host_text,
                                                         reads, refusal,
                                                         build_store):
    """The file's text would be in the log; the build is refused, or fails
    with no log, and nothing is uploaded or kept."""
    host = tmp_path / "host.h"
    host.write_text(host_text)
    h = _boot()
    with pytest.raises(refusal[0], match=refusal[1]) as ei:
        guestvm.compile_and_upload(h, reads % host + SOURCE, "/tmp/poc")
    assert MARKER not in str(ei.value)
    assert ei.value.data == refusal[2]
    assert not build_store and _uploads(h) == []


@pytest.mark.parametrize("directive", ['#line 1 "%s"\n', '# 1 "%s"\n'],
                         ids=["line", "linemarker"])
def test_a_line_directive_naming_a_host_file_shows_none_of_it(tmp_path,
                                                             directive):
    """The file is named, not read, so no dependency list holds it; the
    diagnostic names it, but quotes none of its text."""
    host = tmp_path / "host.h"
    host.write_text(NOT_C)
    with pytest.raises(errors.CompileFailed) as ei:
        guestvm.compile_and_upload(
            _boot(), directive % host + "int main(void) { return x; }\n",
            "/tmp/poc")
    assert "host.h:1:25: error:" in ei.value.data["compile_log"]
    assert MARKER not in ei.value.data["compile_log"]


@pytest.mark.parametrize("source,diagnostic", [
    ("#include <no_such_header_9f2.h>\n" + SOURCE,
     "poc.c:1:10: fatal error: no_such_header_9f2.h"),
    ("int main(void { broken", "poc.c:1:15: error:"),
    ("void f(void);\nint main(void) { f(); return 0; }\n",
     "undefined reference to `f'")],
    ids=["preprocessor", "compiler", "linker"])
def test_a_failed_build_shows_its_diagnostics(source, diagnostic):
    with pytest.raises(errors.CompileFailed) as ei:
        guestvm.compile_and_upload(_boot(), source, "/tmp/poc")
    assert diagnostic in ei.value.data["compile_log"]
    assert "pocbuild-" not in ei.value.data["compile_log"]


def test_a_built_source_still_waits_for_the_gate(tmp_path, monkeypatch):
    runs = _counting_compiler(tmp_path, monkeypatch)
    h = _boot()
    guestvm.compile_and_upload(h, SOURCE, "/tmp/poc")
    h.gate.stop_breakpoint("1")
    with pytest.raises(errors.DebuggeeHalted):
        guestvm.compile_and_upload(h, SOURCE, "/tmp/other")
    assert runs() == 1
    assert "other" not in h.mock.state["programs"]
    assert len(_uploads(h)) == 1


def test_a_later_session_over_one_env_compiles_nothing(tmp_path,
                                                       monkeypatch):
    runs = _counting_compiler(tmp_path, monkeypatch)
    env = SimpleNamespace(snapshot_ref=_boot().snapshot_ref)
    for _session in (1, 2):
        h = guestvm.start_guest(env)
        guestvm.compile_and_upload(h, SOURCE, "/tmp/poc")
        assert _uploads(h) == ["== uploaded /tmp/poc (4 bytes) =="]
    assert runs() == 1


def test_kernel_lines_multiplexed_with_output():
    h = _boot()
    _upload(h)
    out = guestvm.exec_console(h, "./trigger")
    # Command output and kernel lines share the stream; kernel ones are
    # additionally collected.
    assert out.kernel_lines
    assert all(ln in out.text for ln in out.kernel_lines)
    assert "arming netfilter state" not in out.kernel_lines
    out = guestvm.exec_console(_boot(), "echo BUG: KASAN: use-after-free")
    assert "BUG: KASAN" in out.text
    assert out.kernel_lines == []
