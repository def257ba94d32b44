import os

import pytest
from hypothesis import given, settings, strategies as st

from patchrepro import guestvm, kdbg, errors, mi
from patchrepro.trace import Trace
from tests.conftest import SCENARIOS


@pytest.mark.parametrize("command,expected", [
    ("call nf_tables_newset()", "function_call"),
    ("-exec-call free(obj)", "function_call"),
    ("-data-write-memory-bytes 0xffff8880 41", "memory_write"),
    ("-data-write-register-values x 16 0xdead", "register_write"),
    ("-exec-return", "register_write"),
    ("-exec-jump *0xffffffff81000000", "register_write"),
    ("set $rip = 0xffffffff81000000", "register_write"),
    ("set var obj->len = 64", "memory_write"),
    ("p obj->len = 64", "expression_assignment"),
    ("print count = 3", "expression_assignment"),
    ("-data-evaluate-expression obj->use = 0", "expression_assignment"),
    # Default-deny: every command off the read-only allowlist is a mutation,
    # and a read whose arguments assign, step a value or call is one too.
    ("print f()", "expression_assignment"),
    ("p x++", "expression_assignment"),
    ("p x--", "expression_assignment"),
    ("p --x", "expression_assignment"),
    ("p x <<= 1", "expression_assignment"),
    ("p x >>= 1", "expression_assignment"),
    ("p x += 1", "expression_assignment"),
    ("print/x x=1", "expression_assignment"),
    ("output x=1", "expression_assignment"),
    ("x/4x f()", "expression_assignment"),
    ("p (*fp)(1)", "expression_assignment"),
    ("-data-read-memory-bytes f() 8", "expression_assignment"),
    ("-break-insert -c f() f", "expression_assignment"),
    # MI options are skipped only as listed, with numeric values.
    ("-data-evaluate-expression --thread f() x", "expression_assignment"),
    ("-data-evaluate-expression --thread 1 --x", "expression_assignment"),
    ("-data-evaluate-expression --thread 1x --x", "expression_assignment"),
    ("-data-evaluate-expression --thread 1 f()", "expression_assignment"),
    ("-stack-list-locals --simple-values--", "expression_assignment"),
    ("-stack-list-locals --print-values x--", "expression_assignment"),
    ("123-data-write-memory-bytes 0x1 41", "memory_write"),
    ('-interpreter-exec console "set var x=1"', "memory_write"),
    ('-interpreter-exec mi "-exec-call f()"', "function_call"),
    ("-interpreter-exec console kill", "unclassified"),
    ('-interpreter-exec console "info frame" "kill"', "unclassified"),
    ('-interpreter-exec console "info frame\\nkill"', "unclassified"),
    ("-var-assign var1 1", "memory_write"),
    ("-gdb-set var x=1", "memory_write"),
    ("set pagination off", "memory_write"),
    ("return", "register_write"),
    ("signal SIGSEGV", "unclassified"),
    ("restore f binary 0x0", "unclassified"),
    ("finish", "unclassified"),
    ("kill", "unclassified"),
    ("monitor reset", "unclassified"),
    ("compile code x = 1;", "unclassified"),
    ("python gdb.execute('set var x=1')", "unclassified"),
    ("source cmds.gdb", "unclassified"),
    ("pipe p x | cat", "unclassified"),
    ("with print pretty -- p x", "unclassified"),
    ('eval "p %d", 1', "unclassified"),
    ("cal f()", "unclassified"),  # a CLI abbreviation of call
    ("frame apply all return", "unclassified"),  # runs a command per frame
    ("", "unclassified"),  # an empty CLI line repeats the last command
    # Non-mutating commands.
    ("p obj->len", None),
    ("p obj->len == 64", None),
    ("p a != b", None),
    ("p a <= b", None),
    ("-data-evaluate-expression obj->use", None),
    ("-data-read-memory-bytes 0x1 8", None),
    ("-break-insert nft_chain_lookup", None),
    ("info registers", None),
    ("p a >= b", None),
    ("p sizeof(int)", None),
    ("p/x (int)x", None),
    ("12-exec-next", None),
    ('-interpreter-exec console "info frame"', None),
    ('-data-evaluate-expression "ctx->use"', None),
    ("-data-list-register-values x", None),
    ("-break-delete 1", None),
    ("-break-list", None),
    ("-stack-list-frames", None),
    ("-exec-next", None),
    ("-exec-continue", None),
    ("info frame", None),
    ("-stack-list-locals --simple-values", None),
    ("-stack-list-arguments --all-values 0", None),
    ("-data-evaluate-expression --thread 1 x", None),
    ("-data-evaluate-expression --thread 2 --frame 0 x", None),
    ("-stack-list-locals --no-values --skip-unavailable", None),
])
def test_classify_mutation(command, expected):
    assert kdbg.classify_mutation(command) == expected


def _guest():
    path = os.path.join(SCENARIOS, "crash_uaf.json")
    scn = guestvm.GuestScenario.load(path)
    guest = guestvm.MockGuest(scn)
    return guestvm.GuestHandle(
        guestvm.SnapshotRef("boot",
                            state={"scenario_path": path,
                                   "guest_state": guest.state}),
        mock_guest=guest)


def _stub(**kw):
    defaults = dict(symbols=["nft_chain_lookup", "nft_set_destroy"],
                    memory={"0xffff888004a1c000": "00" * 64},
                    expressions={"size": "128", "set->use": "<optimized out>"})
    defaults.update(kw)
    return kdbg.ScriptedMiStub(**defaults)


def test_attach_once():
    h = _guest()
    session = kdbg.attach(h, _stub())
    assert session is not None
    with pytest.raises(errors.AlreadyAttached):
        kdbg.attach(h, _stub())


def test_attach_requires_stub_and_live_guest():
    h = _guest()
    with pytest.raises(errors.StubUnavailable):
        kdbg.attach(h)
    h2 = _guest()
    h2.state = "dead"
    with pytest.raises(errors.StubUnavailable):
        kdbg.attach(h2, _stub())


def test_breakpoint_lifecycle_and_gate():
    h = _guest()
    s = kdbg.attach(h, _stub())
    bp = s.manage_breakpoint("set", "nft_chain_lookup")
    assert bp.bp_id == "1"
    assert [b.bp_id for b in s.manage_breakpoint("list")] == ["1"]

    assert not h.gate.is_stopped
    s.feed_async_line('*stopped,reason="breakpoint-hit",bkptno="1",'
                      'frame={func="nft_chain_lookup"}')
    assert h.gate.state == "stopped_breakpoint"
    with pytest.raises(errors.DebuggeeHalted):
        guestvm.exec_console(h, "echo x")

    s.resume()
    assert not h.gate.is_stopped
    guestvm.exec_console(h, "echo x")

    s.manage_breakpoint("delete", "1")
    assert s.manage_breakpoint("list") == []
    with pytest.raises(errors.UnknownBreakpoint):
        s.manage_breakpoint("delete", "9")


def test_breakpoint_unresolvable():
    s = kdbg.attach(_guest(), _stub())
    with pytest.raises(errors.UnresolvableLocation):
        s.manage_breakpoint("set", "no_such_symbol")


def test_inspect_registers_memory_expression():
    s = kdbg.attach(_guest(), _stub())
    recs = s.inspect_state("registers")
    assert any(r.get("register-values") for r in recs)
    recs = s.inspect_state("memory", "0xffff888004a1c000", 16)
    assert any(r.get("memory") for r in recs)
    recs = s.inspect_state("expression", "size")
    assert any(r.get("value") == "128" for r in recs)
    with pytest.raises(errors.StubError):
        s.inspect_state("expression", "set->use")  # optimized out
    with pytest.raises(errors.StubError):
        s.inspect_state("memory", "0xdeadbeef", 8)


@pytest.mark.parametrize("location", ['no"such', "no\\such", 'a\\"b'])
def test_unresolvable_location_with_quote_or_backslash(location):
    """The stub's error names the location as it was given; it is an
    unresolvable location, not a malformed reply."""
    s = kdbg.attach(_guest(), _stub())
    with pytest.raises(errors.UnresolvableLocation) as info:
        s.manage_breakpoint("set", location)
    assert str(info.value) == 'Function "%s" not defined.' % location


def test_values_with_quotes_and_backslashes_read_back():
    value = '0xffff "hi\\n"'  # how the debugger prints a char *
    regs = {"rip": "0x1", "xmm0": '{v16_int8 = "a\tb\\c"}'}
    s = kdbg.attach(_guest(), _stub(expressions={"name": value},
                                    registers=regs,
                                    memory={'0x"2': "4142"}))
    (rec,) = s.inspect_state("expression", "name")
    assert rec.get("value") == value
    (rec,) = s.inspect_state("registers")
    assert rec.get("register-values") == [
        {"number": "0", "value": "0x1"},
        {"number": "1", "value": regs["xmm0"]}]
    (rec,) = s.inspect_state("memory", '0x"2', 1)
    assert rec.get("memory") == [{"begin": '0x"2', "offset": "0x0",
                                  "end": '0x"2', "contents": "41"}]
    with pytest.raises(errors.StubError) as info:
        s.inspect_state("memory", '0x"1', 8)
    assert str(info.value) == 'Cannot access memory at address 0x"1'


@pytest.mark.parametrize("address", ["a b", "f (x)"])
def test_memory_address_with_a_space_is_the_stubs_own_error(address):
    """The length is the command's last field and the address all before
    it, so an address holding a space is one the stub cannot read."""
    s = kdbg.attach(_guest(), _stub())
    with pytest.raises(errors.StubError) as info:
        s.inspect_state("memory", address, 8)
    assert str(info.value) == "Cannot access memory at address " + address


def test_memory_address_with_a_space_reads_back():
    s = kdbg.attach(_guest(), _stub(memory={"buf + 8": "41424344"}))
    (rec,) = s.inspect_state("memory", "buf + 8", 1)
    assert rec.get("memory")[0]["contents"] == "41"


def test_replies_for_plain_inputs_are_unchanged():
    stub = _stub(registers={"rip": "0x1", "rsp": "0x2"})
    assert [stub.send(c)[0] for c in (
        "-break-insert nft_chain_lookup", "-break-insert nope",
        "-data-list-register-values x",
        "-data-read-memory-bytes 0xffff888004a1c000 2",
        "-data-read-memory-bytes 0x1 2", '-data-evaluate-expression "size"',
        '-data-evaluate-expression "size = 3"')] == [
        '^done,bkpt={number="1",type="breakpoint",func="nft_chain_lookup",'
        'addr="0xffffffff81100001"}',
        '^error,msg="Function \\"nope\\" not defined."',
        '^done,register-values=[{number="0",value="0x1"},'
        '{number="1",value="0x2"}]',
        '^done,memory=[{begin="0xffff888004a1c000",offset="0x0",'
        'end="0xffff888004a1c000",contents="0000"}]',
        '^error,msg="Cannot access memory at address 0x1"',
        '^done,value="128"', '^done,value="128"']


class _RecordingStub(kdbg.ScriptedMiStub):
    def __init__(self, **kw):
        super().__init__(**kw)
        self.sent = []

    def send(self, command):
        self.sent.append(command)
        return super().send(command)


def test_expression_is_sent_as_one_mi_cstring():
    expr = 'buf[0] == "a\\"\n-gdb-exit\tx\r'
    stub = _RecordingStub(expressions={expr: "1"})
    s = kdbg.attach(_guest(), stub)
    recs = s.inspect_state("expression", expr)
    assert any(r.get("value") == "1" for r in recs)
    (command,) = stub.sent
    assert "\n" not in command and "\r" not in command
    op, arg = command.split(None, 1)
    assert op == "-data-evaluate-expression"
    assert mi.parse_cstring(arg) == expr


@pytest.mark.parametrize("brk", ["\n", "\r", "\r\n"])
def test_a_line_break_never_reaches_the_stub(brk):
    """A location, address or raw command holding a line break would send
    the stub a second command; each is refused, and nothing is sent."""
    smuggled = brk + "-data-write-memory-bytes 0x1 41"
    stub = _RecordingStub(symbols=["f"], memory={"0x1": "00"})
    s = kdbg.attach(_guest(), stub)
    calls = [lambda: s.manage_breakpoint("set", "f" + smuggled),
             lambda: s.inspect_state("memory", "0x1" + smuggled, 1),
             lambda: s.raw_command("info registers" + smuggled),
             lambda: s.raw_command("set var x=1" + brk + "info registers")]
    for call in calls:
        with pytest.raises(errors.InvalidParams):
            call()
    assert stub.sent == [] and _mutations(s) == []


def test_plain_expression_is_sent_unchanged():
    stub = _RecordingStub(expressions={"set->use": "3"})
    s = kdbg.attach(_guest(), stub)
    s.inspect_state("expression", "set->use")
    assert stub.sent == ['-data-evaluate-expression "set->use"']
    # An unterminated c-string from a raw command is an MI error reply.
    (rec,) = s.raw_command('-data-evaluate-expression "set->use')
    assert rec.kind == "error" and "unterminated" in rec.get("msg")


def _mutations(session):
    return [e for e in session.trace.events if e["kind"] == "mutation"]


class _DeadStub(kdbg.ScriptedMiStub):
    def send(self, command):
        raise OSError("connection reset")


def test_mutation_ledger_orders_before_stub():
    """A mutating command is ledgered in the session trace before it
    reaches the stub, so it is there even when the stub then fails."""
    trace = Trace()
    trace.record("lifecycle", event="guest_started")
    s = kdbg.attach(_guest(), _DeadStub(), trace=trace)
    with pytest.raises(errors.StubError):
        s.raw_command("set var obj->len = 64")
    with pytest.raises(errors.StubError):
        s.inspect_state("expression", "size = 4")
    # A call in a memory address or a breakpoint location takes the same
    # path.
    with pytest.raises(errors.StubError):
        s.inspect_state("memory", "f()", 8)
    with pytest.raises(errors.StubError):
        s.manage_breakpoint("set", "-c f() f")
    assert [(e["seq"], e["command"], e["category"]) for e in _mutations(s)] \
        == [(2, "set var obj->len = 64", "memory_write"),
            (3, "expression: size = 4", "expression_assignment"),
            (4, "-data-read-memory-bytes f() 8", "expression_assignment"),
            (5, "-break-insert -c f() f", "expression_assignment")]
    # Inspection-only traffic never ledgers.
    s.stub = _stub()
    s.inspect_state("expression", "size")
    s.inspect_state("memory", "0xffff888004a1c000", 8)
    s.manage_breakpoint("set", "nft_chain_lookup")
    s.raw_command("info registers")
    assert len(trace.events) == 5


def test_mutation_during_stop_records_episode():
    s = kdbg.attach(_guest(), _stub())
    s.manage_breakpoint("set", "nft_chain_lookup")
    s.feed_async_line('*stopped,reason="breakpoint-hit",bkptno="1"')
    s.raw_command("set var obj->len = 64")
    assert _mutations(s)[-1]["stopped_episode"] == "1"
    s.resume()
    s.raw_command("set var obj->len = 65")
    assert _mutations(s)[-1]["stopped_episode"] is None
    # With no trace given, the session ledgers into one of its own.
    assert [e["kind"] for e in s.trace.events] == ["mutation", "mutation"]


def test_mutation_during_any_stop_records_an_episode():
    """A stop that is no breakpoint hit is an episode too: the mutation
    records its reason, and a breakpoint stop without a number records
    its reason as well."""
    s = kdbg.attach(_guest(), _stub())
    s.feed_async_line('*stopped,reason="signal-received",signal-name="SIGINT"')
    assert s.gate.state == "stopped_other"
    s.raw_command("set var obj->len = 64")
    assert _mutations(s)[-1]["stopped_episode"] == "signal-received"
    s.resume()
    s.feed_async_line('*stopped,reason="breakpoint-hit"')
    s.raw_command("set var obj->len = 65")
    assert _mutations(s)[-1]["stopped_episode"] == "breakpoint-hit"
    s.resume()
    s.raw_command("set var obj->len = 66")
    assert _mutations(s)[-1]["stopped_episode"] is None


def test_resume_requires_stop():
    s = kdbg.attach(_guest(), _stub())
    with pytest.raises(errors.NotStopped):
        s.resume()


def test_signal_stop_sets_other_reason():
    s = kdbg.attach(_guest(), _stub())
    s.feed_async_line('*stopped,reason="signal-received",signal-name="SIGINT"')
    assert s.gate.state == "stopped_other"
    s.resume()
    assert s.gate.state == "running"


@settings(max_examples=60, deadline=None)
@given(expr=st.from_regex(r"[a-z_][a-z0-9_>\-\.\[\]]{0,12}", fullmatch=True))
def test_pure_reads_never_classified(expr):
    """Plain expression prints with no '=' and no '--' are never
    mutations."""
    if "=" in expr or "--" in expr:  # a--: a post-decrement
        return
    assert kdbg.classify_mutation("p %s" % expr) is None
    assert kdbg.classify_mutation("-data-evaluate-expression %s" % expr) is None
