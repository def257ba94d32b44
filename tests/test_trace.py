import json
import os
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from patchrepro import verdict
from patchrepro.errors import MalformedTrace
from patchrepro.trace import Trace, fold, read_trace
from tests.test_toolserver import json_values


def test_record_and_round_trip(tmp_path):
    tr = Trace()
    tr.record("lifecycle", event="guest_started")
    tr.record("console", lines=["a", "b"])
    tr.record("console", lines=["c"])
    path = str(tmp_path / "trace.jsonl")
    tr.write(path)
    events = read_trace(path)
    assert [e["seq"] for e in events] == [1, 2, 3]
    assert events == tr.events


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        Trace().record("bogus")


def test_read_trace_rejects_gaps(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_text('{"seq": 1, "kind": "console", "lines": []}\n'
                    '{"seq": 3, "kind": "console", "lines": []}\n')
    with pytest.raises(MalformedTrace):
        read_trace(str(path))
    path.write_text("not json\n")
    with pytest.raises(MalformedTrace):
        read_trace(str(path))
    path.write_text('{"kind": "console"}\n')
    with pytest.raises(MalformedTrace):
        read_trace(str(path))


def _oracle_read_trace(path):
    """The reader as it was before the scanner fast path: ``json.loads``
    on every line that is not blank."""
    events = []
    last_seq = 0
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    event = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise MalformedTrace("line %d: %s" % (lineno, exc))
                if not isinstance(event, dict) or "seq" not in event \
                        or "kind" not in event:
                    raise MalformedTrace("line %d: not a trace event" % lineno)
                if event["seq"] != last_seq + 1:
                    raise MalformedTrace(
                        "line %d: sequence gap (%d after %d)"
                        % (lineno, event["seq"], last_seq))
                last_seq = event["seq"]
                events.append(event)
    except OSError as exc:
        raise MalformedTrace(str(exc))
    return events


def _outcome(reader, path):
    try:
        return ("events", reader(path))
    except MalformedTrace as exc:
        return ("malformed", str(exc))


def _assert_same_as_oracle(path):
    got = _outcome(read_trace, path)
    assert got == _outcome(_oracle_read_trace, path)
    return got


_PAD = st.text(alphabet=" \t\x0c\xa0", max_size=3)
_BLANK = st.text(alphabet=" \t\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u3000",
                 max_size=4)
_ODD = st.sampled_from([
    "[1, 2]", "3", "-0.5", "NaN", "-Infinity", "null", '"text"', "{}",
    '{"kind": "console"}', '{"seq": 1}', "not json", "{", "\ufeff",
    "[]", "1 2"])
_SEPARATORS = st.sampled_from([(", ", ": "), (",", ":")])


@st.composite
def _trace_file(draw):
    """Text of a trace file mixing valid events with lines a reader must
    skip or reject."""
    seq = 0
    lines = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(
            ["event", "event", "event", "blank", "padded", "two", "tail",
             "bom", "odd", "gap"]))
        if kind == "blank":
            lines.append(draw(_BLANK))
            continue
        if kind == "odd":
            lines.append(draw(_ODD))
            continue
        seq += 1
        if kind == "gap":
            seq += draw(st.sampled_from([-2, -1, 1, 5]))
        event = json.dumps(
            {"seq": seq, "kind": "console",
             "lines": draw(st.lists(st.text(max_size=4), max_size=2))},
            sort_keys=draw(st.booleans()), separators=draw(_SEPARATORS))
        if kind == "padded":
            event = draw(_PAD) + event + draw(_PAD)
        elif kind == "two":
            seq += 1
            second = json.dumps({"seq": seq, "kind": "lifecycle"})
            event += draw(st.sampled_from(["", ",", " ", ", "])) + second
        elif kind == "tail":
            event += draw(st.sampled_from([",", " ,", "x", " //", "}", "]"]))
        elif kind == "bom":
            event = "\ufeff" + event
        lines.append(event)
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    text = newline.join(lines)
    if lines and draw(st.booleans()):
        text += newline
    return text


@settings(max_examples=200, deadline=None)
@given(text=_trace_file())
def test_read_trace_matches_json_loads_reader(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("trace") / "trace.jsonl"
    path.write_bytes(text.encode("utf-8"))
    _assert_same_as_oracle(str(path))


@pytest.mark.parametrize("line", [
    '{"seq": 2, "kind": "a"}{"seq": 3, "kind": "b"}',
    '{"seq": 2, "kind": "a"},{"seq": 3, "kind": "b"}',
    '{"seq": 2, "kind": "a"} {"seq": 3, "kind": "b"}',
    '{"seq": 2, "kind": "a"},',
])
def test_read_trace_rejects_more_than_one_value_on_a_line(tmp_path, line):
    path = tmp_path / "t.jsonl"
    path.write_text('{"seq": 1, "kind": "a"}\n\n' + line + "\n")
    kind, message = _assert_same_as_oracle(str(path))
    assert kind == "malformed" and message.startswith("line 3: Extra data")


def test_read_trace_accepts_json_whitespace_and_skips_blank_lines(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_text(' \t{"seq": 1, "kind": "a"}\t \n\x0c\n\xa0 \n'
                    '{"seq": 2, "kind": "b"}')
    kind, events = _assert_same_as_oracle(str(path))
    assert kind == "events" and [e["seq"] for e in events] == [1, 2]


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
@pytest.mark.parametrize("before", [1, 400], ids=["early", "past_a_buffer"])
def test_a_line_that_is_not_utf8_is_a_malformed_trace(tmp_path, newline,
                                                      before):
    """A non-UTF-8 line fails like any other malformed line, by number, in
    ``read_trace`` and so in ``decide``; the lines before it are valid."""
    lines = [json.dumps({"seq": i, "kind": "console", "lines": ["x" * 40]})
             .encode() for i in range(1, before + 1)]
    lines.append(b'{"seq": %d, "kind": "console", "lines": ["\xff"]}'
                 % (before + 1))
    path = tmp_path / "trace.jsonl"
    path.write_bytes(newline.encode().join(lines) + newline.encode())
    want = "line %d: byte 0xff at column %d is not UTF-8" % (
        before + 1, lines[-1].index(b"\xff") + 1)
    with pytest.raises(MalformedTrace) as ei:
        read_trace(str(path))
    assert str(ei.value) == want
    with pytest.raises(MalformedTrace) as ei:
        verdict.decide(str(tmp_path))
    assert str(ei.value) == want


def test_kernel_lines_filters_by_origin_across_events():
    """Kernel-origin lines in trace order, each with its event's seq; a
    console event without origins gives none."""
    events = [
        {"seq": 1, "kind": "lifecycle"},
        {"seq": 2, "kind": "console", "lines": ["a", "b", "c"],
         "origins": ["kernel", "console", "kernel"]},
        {"seq": 3, "kind": "tool_call"},
        {"seq": 4, "kind": "console", "lines": ["BUG: d"]},
        {"seq": 5, "kind": "console", "lines": ["e", "f"],
         "origins": ["lifecycle", "kernel"]},
        {"seq": 6, "kind": "tool_result", "call_seq": 3},
    ]
    folded = fold(events)
    assert folded.kernel == [(2, "a"), (2, "c"), (5, "f")]
    assert folded.console == ["a", "b", "c", "BUG: d", "e", "f"]


def _call(seq):
    return {"seq": seq, "kind": "tool_call", "name": "vm.start",
            "category": "vm_management", "args": {}}


def _result(seq, call_seq, error=None):
    return {"seq": seq, "kind": "tool_result", "call_seq": call_seq,
            "error": error}


# Each trace breaks the pairing: every call has exactly one later result
# that names it.
UNPAIRED = {
    "call_without_result": [_call(1), _call(2), _result(3, 2)],
    "call_with_two_results": [_call(1), _result(2, 1), _result(3, 1)],
    "result_before_its_call": [_result(1, 2), _call(2)],
    "result_names_a_console_event": [
        {"seq": 1, "kind": "console", "lines": ["$ ok"],
         "origins": ["console"]},
        _call(2), _result(3, 1), _result(4, 2)],
    # Traces the two-pass replay oracle reads by each call's last result.
    "early_result_then_a_second": [
        _result(1, 2, {"name": "UnknownBreakpoint", "message": ""}),
        _call(2), _result(3, 2)],
    "early_result_and_a_call_without_one": [
        _result(1, 3), _call(2),
        _result(3, 2, {"name": "UnknownBreakpoint", "message": ""}),
        _call(4)],
    # A call_seq that is not a seq at all names no call.
    "call_seq_is_a_list": [_call(1), _result(2, [1])],
    "call_seq_is_an_object": [_call(1), _result(2, {"seq": 1})],
}


@pytest.mark.parametrize("name", sorted(UNPAIRED))
def test_fold_refuses_unpaired_calls(name):
    with pytest.raises(MalformedTrace):
        fold(UNPAIRED[name])


# Each trace pairs its calls, but a field the measures read has the wrong
# JSON type.
MALFORMED_MEASURES = {
    "exec_args_is_a_list": [
        {"seq": 1, "kind": "tool_call", "name": "vm.exec",
         "category": "vm_interaction", "args": ["./trigger"]},
        _result(2, 1)],
    "breakpoint_args_is_a_string": [
        {"seq": 1, "kind": "tool_call", "name": "dbg.breakpoint",
         "category": "debugging", "args": "set"},
        _result(2, 1)],
    "compile_error_is_a_string": [
        {"seq": 1, "kind": "tool_call", "name": "vm.compile_upload",
         "category": "vm_management", "args": {}},
        _result(2, 1, "CompileFailed")],
    "breakpoint_error_is_a_list": [
        {"seq": 1, "kind": "tool_call", "name": "dbg.breakpoint",
         "category": "debugging", "args": {"action": "set"}},
        _result(2, 1, ["UnresolvableLocation"])],
}


@pytest.mark.parametrize("name", sorted(MALFORMED_MEASURES))
def test_measures_refuse_malformed_args_and_errors(name):
    folded = fold(MALFORMED_MEASURES[name])
    with pytest.raises(MalformedTrace):
        folded.measures


@settings(max_examples=200, deadline=None)
@given(values=st.lists(json_values(), max_size=5))
def test_each_written_line_equals_a_fresh_dumps(values):
    """``Trace.write``'s one encoder writes each event as ``json.dumps``
    with ``sort_keys`` does: nested, non-ASCII and NaN values included."""
    tr = Trace()
    for value in values:
        tr.record("lifecycle", event="probe", value=value)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "trace.jsonl")
        tr.write(path)
        with open(path, encoding="utf-8") as fh:
            written = fh.read()
    assert written.split("\n") == [
        json.dumps(event, sort_keys=True) for event in tr.events] + [""]
