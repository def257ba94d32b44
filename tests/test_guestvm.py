import os
import time

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


def _alive(pid):
    """Whether process ``pid`` exists and is not a zombie."""
    try:
        with open("/proc/%d/stat" % pid) as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def test_compile_reads_no_stdin(tmp_path, monkeypatch):
    _stand_in_compiler(tmp_path, 'readlink /proc/self/fd/0 >&2\nexit 1\n')
    monkeypatch.setenv("PATH", "%s%s%s" % (tmp_path, os.pathsep,
                                           os.environ["PATH"]))
    with pytest.raises(errors.CompileFailed) as ei:
        guestvm.compile_and_upload(_boot(), "int main;", "/tmp/poc")
    assert ei.value.compile_log == "/dev/null\n"


def test_compile_timeout_ends_the_whole_compiler(tmp_path, monkeypatch):
    """A compiler that hangs is stopped at the timeout, with the processes
    it started, and the call fails saying so."""
    child = tmp_path / "child.pid"
    _stand_in_compiler(tmp_path, 'sleep 120 &\necho $! > "%s"\nwait\n' % child)
    monkeypatch.setenv("PATH", "%s%s%s" % (tmp_path, os.pathsep,
                                           os.environ["PATH"]))
    monkeypatch.setattr(guestvm, "COMPILE_TIMEOUT_S", 0.5)
    h = _boot()
    started = time.monotonic()
    with pytest.raises(errors.CompileFailed, match="timed out after 0.5 s"):
        guestvm.compile_and_upload(h, "int main;", "/tmp/poc")
    # A child left running would hold the log pipe open until it ended.
    assert time.monotonic() - started < 60
    assert not _alive(int(child.read_text()))
    assert "poc" not in h.mock.state["programs"]


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
