"""``analytics.load_run_records`` against a serial reader that replays every
trace, over a corpus that mixes run dirs written with and without the trace
measures in verdict.json and in session.json."""

import codecs
import json
import os
import signal
from types import SimpleNamespace

import pytest

from patchrepro import analytics, sessionrunner
from patchrepro.analytics import RunRecord
from patchrepro.errors import MalformedTrace
from patchrepro.sessionrunner import replay_trace
from tests.test_cli import _run_cli


def _serial_load(runs_dirs, metadata=None):
    """The reader that replays each trace.jsonl and takes the profile from
    session.json, kept as the oracle."""
    records = []
    for runs_dir in runs_dirs:
        for name in sorted(os.listdir(runs_dir)):
            case_dir = os.path.join(runs_dir, name)
            verdict_path = os.path.join(case_dir, "verdict.json")
            if not os.path.isfile(verdict_path):
                continue
            with open(verdict_path, "r", encoding="utf-8") as fh:
                v = json.load(fh)
            profile = "baseline"
            session_path = os.path.join(case_dir, "session.json")
            if os.path.isfile(session_path):
                with open(session_path, "r", encoding="utf-8") as fh:
                    session = json.load(fh)
                if isinstance(session, dict):
                    profile = session.get("profile", profile)
            measures = {}
            trace_path = os.path.join(case_dir, "trace.jsonl")
            if os.path.isfile(trace_path):
                measures = replay_trace(trace_path)
            meta = (metadata or {}).get(v["case_id"], {})
            records.append(RunRecord(
                case_id=v["case_id"], success=v["success"], profile=profile,
                elapsed_min=float(v.get("elapsed_min", 0.0)),
                cost=float(v.get("cost_usd", 0.0)),
                tool_counts=measures.get("tool_counts", {}),
                poc_iterations=measures.get("poc_iterations", 0),
                breakpoints_set=measures.get("breakpoints_set", 0),
                breakpoints_hit=measures.get("breakpoints_hit", 0),
                subsystem=meta.get("subsystem"), is_race=meta.get("is_race"),
                vuln_type=meta.get("vuln_type"),
                commit_msg_level=meta.get("commit_msg_level"),
                submit_time=meta.get("submit_time"), runs_dir=runs_dir))
    return records


def _template_trace(k):
    """A gapless trace whose measures differ with ``k``; each call's result
    is the event after it."""
    compile_call = {"kind": "tool_call", "name": "vm.compile_upload",
                    "category": "vm_management", "args": {}}
    set_call = {"kind": "tool_call", "name": "dbg.breakpoint",
                "category": "debugging", "args": {"action": "set"}}
    hit = {"kind": "lifecycle", "event": "gate_stopped",
           "reason": "stopped_breakpoint"}
    result = {"kind": "tool_result"}
    events = [compile_call, result] * (k + 1) + [set_call, result, hit] * k
    lines = []
    for seq, event in enumerate(events, start=1):
        event = dict(event, seq=seq)
        if event["kind"] == "tool_result":
            event["call_seq"] = seq - 1
        lines.append(json.dumps(event, sort_keys=True) + "\n")
    return "".join(lines)


# How each dir's session.json is written, by case number mod 3.
MEASURED, OLD_SESSION, NO_SESSION = range(3)


def in_verdict(i):
    """Whether case ``i``'s verdict.json holds its profile and measures, as
    one decided since verdicts record them does; with each session.json
    kind."""
    return i % 4 == 1
# Run dirs in each of the two runs dirs.
COUNTS = (40, 35)


@pytest.fixture
def corpus(tmp_path):
    """Two runs dirs of hard-linked traces with, in turn, a session.json
    that holds the trace measures, one written before sessions recorded
    them, and none, and some verdicts that hold the measures; also a dir
    without a verdict, a run without a trace and an empty runs dir."""
    templates = []
    for k in range(3):
        path = tmp_path / "templates" / ("trace-%d.jsonl" % k)
        path.parent.mkdir(exist_ok=True)
        path.write_text(_template_trace(k))
        templates.append(path)
    runs_dirs, metadata = [], {}
    for r, count in enumerate(COUNTS):
        runs_dir = tmp_path / ("attempt-%d" % r)
        for i in range(count):
            case_id = "case-%03d" % i
            case_dir = runs_dir / case_id
            case_dir.mkdir(parents=True)
            verdict = {"case_id": case_id, "success": (i + r) % 3 == 0,
                       "elapsed_min": i / 7.0, "cost_usd": "0.%02d" % i}
            session = {"case_id": case_id, "termination": "finalized",
                       "profile": "no_gdb" if i % 2 else "baseline"}
            template = templates[(i // 3 + r) % 3]
            if (i, r) != (5, 1):
                os.link(template, case_dir / "trace.jsonl")
                if in_verdict(i):
                    verdict.update(measures=replay_trace(str(template)),
                                   profile=(session["profile"]
                                            if i % 3 != NO_SESSION
                                            else "baseline"))
            (case_dir / "verdict.json").write_text(json.dumps(verdict))
            if i % 3 == MEASURED:
                session.update(replay_trace(str(template)))
            if i % 3 == OLD_SESSION:
                # What the session handle counted; replay gives the count.
                session["poc_iterations"] = 99
            if i % 3 != NO_SESSION:
                (case_dir / "session.json").write_text(json.dumps(session))
            metadata[case_id] = {"subsystem": "net" if i % 2 else "fs",
                                 "is_race": i % 4 == 0}
        runs_dirs.append(str(runs_dir))
    (tmp_path / "attempt-0" / "notes").mkdir()
    (tmp_path / "empty").mkdir()
    runs_dirs.insert(1, str(tmp_path / "empty"))
    return runs_dirs, metadata


def _case_dirs(runs_dirs):
    """The run dirs with a verdict, in the order they load."""
    return [os.path.join(runs_dir, name) for runs_dir in runs_dirs
            for name in sorted(os.listdir(runs_dir))
            if os.path.isfile(os.path.join(runs_dir, name, "verdict.json"))]


def _decided_since(case_dir):
    """Whether the corpus dir's verdict holds its measures."""
    i = int(os.path.basename(case_dir)[-3:])
    return in_verdict(i) and not case_dir.endswith(
        os.path.join("attempt-1", "case-005"))


def test_records_equal_the_serial_reader_in_order(corpus, monkeypatch):
    runs_dirs, metadata = corpus
    replayed, sessions_read = [], []
    read_json = analytics._read_json

    def recording_replay(path):
        replayed.append(os.path.dirname(path))
        return replay_trace(path)

    def recording_read(path):
        if path.endswith("session.json"):
            sessions_read.append(os.path.dirname(path))
        return read_json(path)

    monkeypatch.setattr(sessionrunner, "replay_trace", recording_replay)
    monkeypatch.setattr(analytics, "_read_json", recording_read)
    records = analytics.load_run_records(runs_dirs, metadata=metadata)
    monkeypatch.undo()
    assert records == _serial_load(runs_dirs, metadata)
    assert len(records) == sum(COUNTS)
    assert {r.breakpoints_set for r in records} == {0, 1, 2}
    assert {r.poc_iterations for r in records} == {0, 1, 2, 3}
    assert {r.profile for r in records} == {"baseline", "no_gdb"}
    # A dir whose verdict holds the measures is read from verdict.json
    # alone; only the dirs without measures in either file are replayed.
    decided = [d for d in _case_dirs(runs_dirs) if _decided_since(d)]
    assert len(decided) == sum(1 for count in COUNTS for i in range(count)
                               if in_verdict(i)) - 1  # one lacks a trace
    assert sessions_read == [d for d in _case_dirs(runs_dirs)
                             if d not in decided]
    assert replayed and replayed == [
        d for d in sessions_read if int(d[-3:]) % 3 != MEASURED
        and os.path.isfile(os.path.join(d, "trace.jsonl"))]


def test_measures_come_from_session_json(corpus, tmp_path):
    """A dir whose session.json holds the measures is not replayed: its
    trace may be gone."""
    runs_dirs, _ = corpus
    case_dir = tmp_path / "attempt-0" / "case-003"
    session = json.loads((case_dir / "session.json").read_text())
    assert session["tool_counts"]
    os.unlink(case_dir / "trace.jsonl")
    record = [r for r in analytics.load_run_records(runs_dirs)
              if r.case_id == "case-003" and r.runs_dir.endswith("attempt-0")]
    assert record[0].tool_counts == session["tool_counts"]
    assert record[0].poc_iterations == session["poc_iterations"]


def test_a_verdict_with_measures_needs_no_other_file(corpus, tmp_path):
    """case-001's verdict holds the profile and measures, so its record is
    the same with session.json and trace.jsonl gone."""
    runs_dirs, metadata = corpus
    before = analytics.load_run_records(runs_dirs, metadata=metadata)
    case_dir = tmp_path / "attempt-0" / "case-001"
    assert json.loads((case_dir / "session.json").read_text())["profile"] \
        == "no_gdb"
    os.unlink(case_dir / "session.json")
    os.unlink(case_dir / "trace.jsonl")
    after = analytics.load_run_records(runs_dirs, metadata=metadata)
    assert after == before
    record, = [r for r in after if r.case_id == "case-001"
               and r.runs_dir.endswith("attempt-0")]
    assert (record.profile, record.poc_iterations) == ("no_gdb", 1)


@pytest.mark.parametrize("measures", [None, [], "x"])
def test_a_verdict_whose_measures_are_no_object_is_read_as_an_old_one(
        corpus, tmp_path, measures):
    """Such a verdict takes the profile from session.json and the measures
    from it or from the trace, as the oracle does."""
    runs_dirs, metadata = corpus
    path = tmp_path / "attempt-1" / "case-009" / "verdict.json"
    verdict = json.loads(path.read_text())
    path.write_text(json.dumps(dict(verdict, measures=measures,
                                    profile="forged")))
    records = analytics.load_run_records(runs_dirs, metadata=metadata)
    assert records == _serial_load(runs_dirs, metadata)


def _error_of(load, runs_dirs):
    with pytest.raises(Exception) as info:
        load(runs_dirs)
    return type(info.value), str(info.value)


@pytest.mark.parametrize("case", ["case-020", "case-022"])
def test_malformed_trace_raises_the_serial_error(corpus, tmp_path, case):
    """Without measures in session.json (case-020 has no session.json,
    case-022 an old one) the trace is replayed, and its error is the
    oracle's."""
    runs_dirs, _ = corpus
    case_dir = tmp_path / "attempt-0" / case
    os.unlink(case_dir / "trace.jsonl")
    (case_dir / "trace.jsonl").write_text(
        '{"kind": "tool_call", "seq": 1}\n{"kind": "tool_call", "seq": 3}\n')
    expected = _error_of(_serial_load, runs_dirs)
    assert expected == (MalformedTrace, "line 2: sequence gap (3 after 1)")
    assert _error_of(analytics.load_run_records, runs_dirs) == expected


@pytest.mark.parametrize("content, error", [
    (b'{"case_id": ', json.JSONDecodeError),
    (b"\xff{}", UnicodeDecodeError),
    (b'{"success": true}', KeyError),
])
def test_corrupt_verdict_raises_the_serial_error(corpus, tmp_path,
                                                 content, error):
    runs_dirs, _ = corpus
    (tmp_path / "attempt-1" / "case-030" / "verdict.json").write_bytes(content)
    expected = _error_of(_serial_load, runs_dirs)
    assert expected[0] is error
    assert _error_of(analytics.load_run_records, runs_dirs) == expected


@pytest.fixture
def alarm():
    """Fail a test that blocks, instead of hanging the run."""
    def expire(signum, frame):
        pytest.fail("the loader blocked")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(10)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def _replace(path, make):
    os.unlink(path)
    make(path)


def _symlink_loop(path):
    os.symlink(os.path.basename(path), path)


@pytest.mark.parametrize("make", [
    os.mkfifo,
    lambda path: os.symlink(os.devnull, path),
    os.mkdir,
    _symlink_loop,
], ids=["fifo", "devnull_symlink", "directory", "symlink_loop"])
def test_a_verdict_that_is_not_a_regular_file_is_skipped(corpus, tmp_path,
                                                         alarm, make):
    """A FIFO (no writer, so a blocking open or read would wait), a device
    and a directory named verdict.json are skipped unread, as the oracle's
    ``isfile`` skips them, and so is a name that cannot be resolved."""
    runs_dirs, metadata = corpus
    _replace(str(tmp_path / "attempt-0" / "case-004" / "verdict.json"), make)
    records = analytics.load_run_records(runs_dirs, metadata=metadata)
    assert records == _serial_load(runs_dirs, metadata)
    assert len(records) == sum(COUNTS) - 1


def test_a_session_fifo_falls_back_to_the_trace(corpus, tmp_path, alarm,
                                                monkeypatch):
    """case-003's session.json holds the measures; as a FIFO it is not read
    and the trace is replayed."""
    runs_dirs, metadata = corpus
    case_dir = tmp_path / "attempt-0" / "case-003"
    _replace(str(case_dir / "session.json"), os.mkfifo)
    replayed = []

    def recording_replay(path):
        replayed.append(path)
        return replay_trace(path)

    monkeypatch.setattr(sessionrunner, "replay_trace", recording_replay)
    records = analytics.load_run_records(runs_dirs, metadata=metadata)
    monkeypatch.undo()
    assert records == _serial_load(runs_dirs, metadata)
    assert str(case_dir / "trace.jsonl") in replayed


def test_a_stray_file_in_a_runs_dir_is_skipped(corpus, tmp_path):
    runs_dirs, metadata = corpus
    (tmp_path / "attempt-1" / "README.txt").write_text("not a run dir\n")
    records = analytics.load_run_records(runs_dirs, metadata=metadata)
    assert records == _serial_load(runs_dirs, metadata)
    assert len(records) == sum(COUNTS)


def test_each_file_is_read_with_one_read(corpus, monkeypatch):
    """One ``os.read`` per file read: each verdict, and each session.json
    of a dir whose verdict holds no measures."""
    runs_dirs, metadata = corpus
    reads, files = [], []
    real_read, read_json = os.read, analytics._read_json

    def counting_read(fd, n):
        reads.append(fd)
        return real_read(fd, n)

    def recording_read(path):
        value = read_json(path)
        if value is not analytics._MISSING:
            files.append(path)
        return value

    monkeypatch.setattr(os, "read", counting_read)
    monkeypatch.setattr(analytics, "_read_json", recording_read)
    records = analytics.load_run_records(runs_dirs, metadata=metadata)
    monkeypatch.undo()
    assert records == _serial_load(runs_dirs, metadata)
    assert sum(p.endswith("verdict.json") for p in files) == len(records)
    assert len(files) > len(records)  # some session.json files too
    assert len(reads) == len(files)


@pytest.mark.parametrize("delta", [-1, -200, None, 7],
                         ids=["grew_1", "grew_200", "size_0", "shrank"])
def test_a_file_whose_size_changed_after_the_fstat_is_read_whole(
        corpus, monkeypatch, delta):
    """An fstat that reports less than the file holds (it grew since, or
    it is a file whose size reads 0) or more (it shrank) still gives the
    whole file."""
    runs_dirs, metadata = corpus
    real_fstat = os.fstat

    def fstat(fd):
        st = real_fstat(fd)
        size = 0 if delta is None else max(0, st.st_size + delta)
        return SimpleNamespace(st_mode=st.st_mode, st_size=size)

    monkeypatch.setattr(os, "fstat", fstat)
    records = analytics.load_run_records(runs_dirs, metadata=metadata)
    monkeypatch.undo()
    assert records == _serial_load(runs_dirs, metadata)


_VERDICT = '{"case_id": "case-030", "success": true}'


@pytest.mark.parametrize("name, content, error", [
    ("verdict.json", codecs.BOM_UTF8 + _VERDICT.encode(), json.JSONDecodeError),
    ("verdict.json", _VERDICT.encode("utf-16"), UnicodeDecodeError),
    ("session.json", codecs.BOM_UTF8 + b"{}", json.JSONDecodeError),
    ("session.json", "{}".encode("utf-16"), UnicodeDecodeError),
    # A text-mode read turns CRLF into one newline before the decoder
    # counts the position.
    ("verdict.json", b'{\r\n"case_id":\r\n\r\n}', json.JSONDecodeError),
    ("verdict.json", b"\r\rnull", TypeError),
], ids=["verdict_bom", "verdict_utf16", "session_bom", "session_utf16",
        "crlf_position", "null"])
def test_an_undecodable_file_raises_the_serial_error(corpus, tmp_path, name,
                                                     content, error):
    runs_dirs, _ = corpus
    (tmp_path / "attempt-1" / "case-030" / name).write_bytes(content)
    expected = _error_of(_serial_load, runs_dirs)
    assert expected[0] is error
    assert _error_of(analytics.load_run_records, runs_dirs) == expected


def test_the_profile_comes_from_session_json(kernel_repo, tmp_path):
    """A no_gdb session's record says so, from its verdict.  For a verdict
    decided before verdicts recorded the profile, so does an old
    session.json without the trace measures; with no session.json it is
    baseline."""
    for i, profile in enumerate(("no_gdb", "baseline", "no_gdb")):
        code, out = _run_cli(kernel_repo, tmp_path, profile=profile,
                             subdir=os.path.join("runs", "case-%d" % i))
        assert code == 0
    for i in (1, 2):
        path = tmp_path / "runs" / ("case-%d" % i) / "verdict.json"
        decided = json.loads(path.read_text())
        del decided["profile"], decided["measures"]
        path.write_text(json.dumps(decided))
    old = tmp_path / "runs" / "case-2" / "session.json"
    session = json.loads(old.read_text())
    old.write_text(json.dumps({"case_id": session["case_id"],
                               "profile": session["profile"]}))
    os.unlink(tmp_path / "runs" / "case-1" / "session.json")
    runs_dirs = [str(tmp_path / "runs")]
    records = analytics.load_run_records(runs_dirs)
    assert records == _serial_load(runs_dirs)
    assert [r.profile for r in records] == ["no_gdb", "baseline", "no_gdb"]
    assert records[2].tool_counts == session["tool_counts"]
