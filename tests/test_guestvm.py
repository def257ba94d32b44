import os
import time
from types import SimpleNamespace

import pytest

from patchrepro import guestvm, errors
from tests.conftest import SCENARIOS


def _boot(name="crash_uaf.json"):
    path = os.path.join(SCENARIOS, name)
    scn = guestvm.GuestScenario.load(path)
    guest = guestvm.MockGuest(scn)
    handle = guestvm.GuestHandle(
        guestvm.SnapshotRef("boot",
                            state={"scenario_path": path,
                                   "guest_state": guest.state}),
        mock_guest=guest)
    return handle


def test_builtin_echo():
    h = _boot()
    out = guestvm.exec_console(h, "echo hello")
    assert "hello" in out.text
    assert not out.timed_out


def test_scenario_rule_and_crash_transition():
    h = _boot()
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
    snap = guestvm.create_snapshot(
        h, scenario_path=h.snapshot_ref.state["scenario_path"])
    baseline = h.state_digest()
    guestvm.exec_console(h, "touch /tmp/mark")
    assert "exists" in guestvm.exec_console(h, "cat /tmp/mark").text \
        or h.state_digest() != baseline
    fresh = guestvm.restore_from_snapshot(snap)
    assert fresh.state_digest() == baseline
    out = guestvm.exec_console(fresh, "cat /tmp/mark")
    assert "No such file" in out.text


def test_restart_preserves_gate_and_transcript():
    h = _boot()
    guestvm.exec_console(h, "./trigger")
    assert h.state == "unresponsive"
    before = len(h.transcript)
    fresh = guestvm.restart_guest(h)
    assert fresh.state == "running"
    assert fresh.gate is h.gate
    assert len(fresh.transcript) > before
    assert any("restarted" in rec["line"] for rec in fresh.transcript)
    guestvm.exec_console(fresh, "echo ok")


def test_snapshot_requires_booted_guest():
    h = _boot()
    h.mock.state["booted"] = False
    with pytest.raises(errors.SnapshotFailed):
        guestvm.create_snapshot(
            h, scenario_path=h.snapshot_ref.state["scenario_path"])


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
    return [r["line"] for r in handle.transcript if r["origin"] == "lifecycle"
            and r["line"].startswith("== uploaded")]


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
    monkeypatch.setattr(guestvm, "COMPILE_TIMEOUT_S", 0.5)
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
    fresh = guestvm.restart_guest(h)
    assert fresh.builds is h.builds
    again = guestvm.compile_and_upload(fresh, SOURCE, "/tmp/poc")
    assert runs() == 1
    assert again == first and first.binary_size == len("stub")
    assert _uploads(fresh) == ["== uploaded /tmp/poc (4 bytes) =="] * 2
    assert "poc" in fresh.mock.state["programs"]


def test_a_one_off_build_compiles_each_time(tmp_path, monkeypatch):
    runs = _counting_compiler(tmp_path, monkeypatch)
    builds = {}
    kept = guestvm.build_poc(SOURCE, builds)
    assert builds == {kept.digest: kept}
    assert guestvm.build_poc(SOURCE, {}) == guestvm.build_poc(SOURCE, {}) == kept
    assert runs() == 3


def test_a_new_source_or_compiler_is_built_again(tmp_path, monkeypatch):
    runs = _counting_compiler(tmp_path / "a", monkeypatch)
    h = _boot()
    guestvm.compile_and_upload(h, SOURCE, "/tmp/poc")
    guestvm.compile_and_upload(h, SOURCE + "\n", "/tmp/poc")
    assert runs() == 2
    other = _counting_compiler(tmp_path / "b", monkeypatch)
    guestvm.compile_and_upload(h, SOURCE, "/tmp/poc")
    assert (runs(), other()) == (2, 1)
    assert len(h.builds) == 3


# A stand-in compile that fails, naming the source file it was given.
FAILS = 'echo "$src:1:1: error: no" >&2\nexit 1\n'


@pytest.mark.parametrize("body,timeout_s,message", [
    (FAILS, 60, "compilation failed"),
    ("sleep 30\n", 0.3, "timed out after 0.3 s")])
def test_a_failed_or_timed_out_compile_is_built_again(tmp_path, monkeypatch,
                                                      body, timeout_s,
                                                      message):
    runs = _counting_compiler(tmp_path, monkeypatch, body=body)
    monkeypatch.setattr(guestvm, "COMPILE_TIMEOUT_S", timeout_s)
    h = _boot()
    for attempt in (1, 2):
        with pytest.raises(errors.CompileFailed, match=message):
            guestvm.compile_and_upload(h, SOURCE, "/tmp/poc")
        assert runs() == attempt
    assert h.builds == {} and _uploads(h) == []


def test_a_failed_compile_log_names_the_source_poc_c(tmp_path, monkeypatch):
    _counting_compiler(tmp_path, monkeypatch, body=FAILS)
    with pytest.raises(errors.CompileFailed) as ei:
        guestvm.compile_and_upload(_boot(), SOURCE, "/tmp/poc")
    assert ei.value.compile_log == "poc.c:1:1: error: no\n"
    assert ei.value.data == {"compile_log": ei.value.compile_log}


def test_a_long_compile_log_is_cut(tmp_path, monkeypatch):
    _counting_compiler(tmp_path, monkeypatch, body=(
        "printf '%0300d' 0 >&2\nexit 1\n"))
    monkeypatch.setattr(guestvm, "COMPILE_LOG_MAX_CHARS", 100)
    with pytest.raises(errors.CompileFailed) as ei:
        guestvm.compile_and_upload(_boot(), SOURCE, "/tmp/poc")
    assert ei.value.compile_log == "0" * 100 + "\n[log cut at 100 characters]\n"


MARKER = "host_file_marker_7c1e"


NOT_C = "%s is not C\n" % MARKER
WARNS = "#warning %s\nint %s;\n" % (MARKER, MARKER)
REFUSED = (errors.HostPathRefused, "outside the system include dirs")


@pytest.mark.parametrize("host_text,reads,refusal", [
    (NOT_C, '#include "%s"\n', REFUSED),
    (WARNS, '#include "%s"\n', REFUSED),
    (NOT_C, 'asm(".incbin \\"%s\\"");\n', REFUSED),
    (NOT_C, 'asm(".include \\"%s\\"");\n',
     (errors.CompileFailed, "assembly failed"))],
    ids=["include_fails", "include_builds", "incbin_builds",
         "asm_include_fails"])
def test_a_build_that_reads_a_host_file_shows_none_of_it(tmp_path, host_text,
                                                         reads, refusal):
    """The file's text would be in the log; the build is refused, or fails
    with no log, and nothing is uploaded or kept."""
    host = tmp_path / "host.h"
    host.write_text(host_text)
    h = _boot()
    with pytest.raises(refusal[0], match=refusal[1]) as ei:
        guestvm.compile_and_upload(h, reads % host + SOURCE, "/tmp/poc")
    assert MARKER not in str(ei.value) and ei.value.data is None
    assert h.builds == {} and _uploads(h) == []


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


def test_each_session_over_one_env_builds_again(tmp_path, monkeypatch):
    runs = _counting_compiler(tmp_path, monkeypatch)
    env = SimpleNamespace(snapshot_ref=guestvm.create_snapshot(_boot()))
    for session in (1, 2):
        guestvm.compile_and_upload(guestvm.start_guest(env), SOURCE, "/tmp/poc")
        assert runs() == session


def test_kernel_lines_multiplexed_with_output():
    h = _boot()
    out = guestvm.exec_console(h, "./trigger")
    # Command output and kernel lines share the stream; kernel ones are
    # additionally collected.
    assert out.kernel_lines
    assert all(ln in out.text for ln in out.kernel_lines)
    assert "arming netfilter state" not in out.kernel_lines
    out = guestvm.exec_console(_boot(), "echo BUG: KASAN: use-after-free")
    assert "BUG: KASAN" in out.text
    assert out.kernel_lines == []
