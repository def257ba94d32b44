"""``analytics.load_run_records`` over a corpus large enough for the forked
workers, against the serial reader it replaces."""

import json
import multiprocessing
import os
import time

import pytest

from patchrepro import analytics, sessionrunner
from patchrepro.analytics import RUNS_PER_TASK, RunRecord
from patchrepro.errors import MalformedTrace
from patchrepro.sessionrunner import replay_trace


def _serial_load(runs_dirs, metadata=None):
    """The one-process reader, kept as the oracle of the parallel one."""
    records = []
    for runs_dir in runs_dirs:
        for name in sorted(os.listdir(runs_dir)):
            case_dir = os.path.join(runs_dir, name)
            verdict_path = os.path.join(case_dir, "verdict.json")
            if not os.path.isfile(verdict_path):
                continue
            with open(verdict_path, "r", encoding="utf-8") as fh:
                v = json.load(fh)
            measures = {}
            trace_path = os.path.join(case_dir, "trace.jsonl")
            if os.path.isfile(trace_path):
                measures = replay_trace(trace_path)
            meta = (metadata or {}).get(v["case_id"], {})
            records.append(RunRecord(
                case_id=v["case_id"], success=v["success"],
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
    """A gapless trace whose measures differ with ``k``."""
    events = [{"kind": "tool_call", "name": "vm.compile_upload",
               "category": "vm_management", "args": {}}] * (k + 1)
    events += [{"kind": "tool_call", "name": "dbg.breakpoint",
                "category": "debugging", "args": {"action": "set"}},
               {"kind": "tool_result", "call_seq": len(events) + 1},
               {"kind": "lifecycle", "event": "gate_stopped",
                "reason": "stopped_breakpoint"}] * k
    return "".join(json.dumps(dict(e, seq=i), sort_keys=True) + "\n"
                   for i, e in enumerate(events, start=1))


@pytest.fixture
def corpus(tmp_path):
    """Two runs dirs of hard-linked traces, more than two tasks in all, with
    a dir without a verdict, a run without a trace and an empty runs dir."""
    templates = []
    for k in range(3):
        path = tmp_path / "templates" / ("trace-%d.jsonl" % k)
        path.parent.mkdir(exist_ok=True)
        path.write_text(_template_trace(k))
        templates.append(path)
    runs_dirs, metadata = [], {}
    for r, count in enumerate((RUNS_PER_TASK + 40, RUNS_PER_TASK + 10)):
        runs_dir = tmp_path / ("attempt-%d" % r)
        for i in range(count):
            case_id = "case-%03d" % i
            case_dir = runs_dir / case_id
            case_dir.mkdir(parents=True)
            (case_dir / "verdict.json").write_text(json.dumps(
                {"case_id": case_id, "success": (i + r) % 3 == 0,
                 "elapsed_min": i / 7.0, "cost_usd": "0.%02d" % i}))
            if (i, r) != (5, 1):
                os.link(templates[(i + r) % 3], case_dir / "trace.jsonl")
            metadata[case_id] = {"subsystem": "net" if i % 2 else "fs",
                                 "is_race": i % 4 == 0}
        runs_dirs.append(str(runs_dir))
    (tmp_path / "attempt-0" / "notes").mkdir()
    (tmp_path / "empty").mkdir()
    runs_dirs.insert(1, str(tmp_path / "empty"))
    return runs_dirs, metadata


@pytest.fixture
def two_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


def _no_pool(*args, **kwargs):
    raise AssertionError("a pool was started")


def test_records_equal_the_serial_reader_in_order(corpus, two_cpus,
                                                  monkeypatch):
    runs_dirs, metadata = corpus
    pools = []
    get_context = multiprocessing.get_context
    monkeypatch.setattr(multiprocessing, "get_context",
                        lambda method: pools.append(method)
                        or get_context(method))

    def first_task_last(path):
        # The first task finishes after the others, in its worker.
        if path.endswith(os.path.join("attempt-0", "case-000", "trace.jsonl")):
            time.sleep(0.3)
        return replay_trace(path)

    monkeypatch.setattr(sessionrunner, "replay_trace", first_task_last)
    records = analytics.load_run_records(runs_dirs, metadata=metadata)
    assert pools == ["fork"]
    assert records == _serial_load(runs_dirs, metadata)
    assert len(records) == 2 * RUNS_PER_TASK + 50
    assert {r.breakpoints_set for r in records} == {0, 1, 2}
    assert multiprocessing.active_children() == []


def _error_of(load, runs_dirs):
    with pytest.raises(Exception) as info:
        load(runs_dirs)
    return type(info.value), str(info.value)


def test_malformed_trace_in_the_second_task(corpus, two_cpus, tmp_path):
    runs_dirs, _ = corpus
    # Dir RUNS_PER_TASK + 20 of the first runs dir: inside the second task.
    case_dir = tmp_path / "attempt-0" / ("case-%03d" % (RUNS_PER_TASK + 20))
    os.unlink(case_dir / "trace.jsonl")
    (case_dir / "trace.jsonl").write_text(
        '{"kind": "tool_call", "seq": 1}\n{"kind": "tool_call", "seq": 3}\n')
    expected = _error_of(_serial_load, runs_dirs)
    assert expected == (MalformedTrace, "line 2: sequence gap (3 after 1)")
    assert _error_of(analytics.load_run_records, runs_dirs) == expected
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("content, error", [
    (b'{"case_id": ', json.JSONDecodeError),
    (b"\xff{}", UnicodeDecodeError),
    (b'{"success": true}', KeyError),  # raised in the parent
])
def test_corrupt_verdict_raises_the_serial_error(corpus, two_cpus, tmp_path,
                                                 content, error):
    runs_dirs, _ = corpus
    (tmp_path / "attempt-1" / "case-030" / "verdict.json").write_bytes(content)
    expected = _error_of(_serial_load, runs_dirs)
    assert expected[0] is error
    assert _error_of(analytics.load_run_records, runs_dirs) == expected
    assert multiprocessing.active_children() == []


def test_one_cpu_reads_in_process(corpus, monkeypatch):
    runs_dirs, metadata = corpus
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(multiprocessing, "get_context", _no_pool)
    monkeypatch.setattr(multiprocessing.pool, "Pool", _no_pool)
    assert analytics.load_run_records(runs_dirs, metadata=metadata) \
        == _serial_load(runs_dirs, metadata)


def test_one_task_reads_in_process(tmp_path, two_cpus, monkeypatch):
    case_dir = tmp_path / "runs" / "case-000"
    case_dir.mkdir(parents=True)
    (case_dir / "verdict.json").write_text(
        json.dumps({"case_id": "case-000", "success": True}))
    (case_dir / "trace.jsonl").write_text(_template_trace(2))
    monkeypatch.setattr(multiprocessing, "get_context", _no_pool)
    runs_dirs = [str(tmp_path / "runs")]
    assert analytics.load_run_records(runs_dirs) == _serial_load(runs_dirs)
