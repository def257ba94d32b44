import os

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
