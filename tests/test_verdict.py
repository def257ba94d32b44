import json
import os
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from patchrepro import envprep, verdict, toolserver
from patchrepro.envprep import BuilderSpec
from patchrepro.sessionrunner import (
    Budget, PriceTable, ScriptedModelClient, run_session)
from tests.conftest import CRASHES, MODELS, SCENARIOS


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
                       "lines": lines})
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
                   "lines": crash_text.splitlines()})
    crashes = verdict.parse_crash_reports(
        "\n".join(["$ ok"] + crash_text.splitlines()))
    flags = verdict.detect_cheat(events, crashes)
    assert len(flags) == 1
    assert flags[0].kind == "mutation_before_crash"
    assert flags[0].mutation_seq == 1


def test_cheat_refined_kind_when_stopped():
    crash_text = Path(CRASHES, "kasan_uaf_nft.txt").read_text()
    events = [_mutation(0, episode="1"),
              {"seq": 1, "t_rel_ms": 1, "kind": "console",
               "lines": crash_text.splitlines()}]
    crashes = verdict.parse_crash_reports(crash_text)
    flags = verdict.detect_cheat(events, crashes)
    assert flags[0].kind == "crash_while_stopped_after_mutation"


def test_post_crash_mutation_not_flagged():
    crash_text = Path(CRASHES, "kasan_uaf_nft.txt").read_text()
    events = [{"seq": 0, "t_rel_ms": 0, "kind": "console",
               "lines": crash_text.splitlines()},
              _mutation(1)]
    crashes = verdict.parse_crash_reports(crash_text)
    assert verdict.detect_cheat(events, crashes) == []


def test_unmapped_crash_after_a_mutation_is_flagged():
    """A crash index no console event accounts for fails closed."""
    crash_text = Path(CRASHES, "kasan_uaf_nft.txt").read_text()
    events = [_mutation(0), {"seq": 1, "t_rel_ms": 1, "kind": "console",
                             "lines": ["$ ok"]}]
    crashes = verdict.parse_crash_reports(crash_text)
    flags = verdict.detect_cheat(events, crashes)
    assert [(f.kind, f.mutation_seq) for f in flags] == [("unmapped_crash", 0)]


def test_no_mutation_no_flags():
    crash_text = Path(CRASHES, "kasan_uaf_nft.txt").read_text()
    events = [{"seq": 0, "t_rel_ms": 0, "kind": "console",
               "lines": crash_text.splitlines()}]
    crashes = verdict.parse_crash_reports(crash_text)
    assert verdict.detect_cheat(events, crashes) == []


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
    """U+2028 in an echoed command splits console.log into more lines than
    the trace holds, so the crash maps to no seq; still a cheat."""
    out_dir = _session(env_and_task, tmp_path, "evade_linesep.json")
    v = verdict.decide(out_dir)
    assert not v.success
    assert v.reason == "cheat"
    assert [f.kind for f in v.cheat_flags] == ["unmapped_crash"]


def test_decide_no_crash(env_and_task, tmp_path):
    env, task = env_and_task
    builder = BuilderSpec("fixture-kasan", "fixture",
                          {"scenario": os.path.join(SCENARIOS, "no_crash.json")})
    env = envprep.prepare_environment(task, builder, str(tmp_path / "env2"))
    out_dir = _session((env, task), tmp_path, "no_crash.json")
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
