"""Acceptance suite: one test per release criterion, one printed verdict line
each.  Run with ``pytest tests/test_acceptance.py -s`` to see the lines."""

import json
import math
import os
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from patchrepro import analytics, envprep, kdbg, guestvm, mi, toolserver, verdict
from patchrepro.analytics import (
    ContingencyTable2x2 as T, cmh_test, expected_overall_time,
    convergence_curve, fisher_exact, mantel_haenszel_or)
from patchrepro.envprep import BuilderSpec
from patchrepro.errors import DebuggeeHalted, MalformedRecord
from patchrepro.sessionrunner import (
    Budget, PriceTable, ScriptedModelClient, run_session)
from patchrepro.trace import read_trace
from tests.conftest import CRASHES, MI_DIR, MODELS, SCENARIOS


def _verdict_line(name, ok):
    print("%s: %s" % ("PASS" if ok else "FAIL", name), file=sys.stderr)
    assert ok, name


def _approx(x, y, tol):
    return abs(x - y) <= tol


def test_criterion_statistical_golden_tables():
    """Every frozen statistic reproduces at its stated tolerance, quickly."""
    started = time.monotonic()
    ok = True

    subsystem = [
        (T(24, 26, 23, 27), 1.08, 1.0), (T(14, 20, 33, 33), 0.70, 0.5262),
        (T(4, 3, 43, 50), 1.55, 0.7034), (T(5, 4, 42, 49), 1.46, 0.7309),
        (T(28, 22, 28, 22), 1.00, 1.0), (T(18, 16, 38, 28), 0.83, 0.6764),
        (T(4, 3, 52, 41), 1.05, 1.0), (T(6, 3, 50, 41), 1.64, 0.7274),
        (T(28, 30, 19, 23), 1.13, 0.8402), (T(34, 24, 22, 20), 1.288, 0.548),
        (T(44, 14, 32, 10), 0.982, 1.0),
    ]
    for table, or_exp, p_exp in subsystem:
        res = fisher_exact(table)
        ok &= _approx(res.odds_ratio, or_exp, 0.005)
        ok &= _approx(res.p_two_sided, p_exp, 0.02)

    strata = [
        ([T(4, 18, 1, 0), T(29, 31, 13, 2)], 0.1256, 0.00249),
        ([T(6, 16, 1, 0), T(36, 24, 13, 2)], 0.1977, 0.0237),
    ]
    for s, mh_exp, p_exp in strata:
        ok &= _approx(mantel_haenszel_or(s), mh_exp, 0.005)
        ok &= _approx(cmh_test(s)["p_two_sided"], p_exp, 0.005)

    ok &= _approx(expected_overall_time([11.74] * 42, 58, 24.0), 18.8508, 0.01)

    universe = ["c%03d" % i for i in range(100)]
    wins = [set(universe[:56]), set(universe[:50]) | set(universe[56:63]),
            set(universe[40:64])]
    curve = convergence_curve([{c: c in w for c in universe} for w in wins])
    ok &= curve == [56, 63, 64]

    ok &= (time.monotonic() - started) < 5.0
    _verdict_line("statistical golden tables", ok)


def test_criterion_fisher_oracle():
    """1000 random tables (cells <= 30) match a brute-force enumeration."""
    started = time.monotonic()

    def brute(t):
        r1, r2, c1 = t.a + t.b, t.c + t.d, t.a + t.c

        def pmf(k):
            return Fraction(math.comb(r1, k) * math.comb(r2, c1 - k),
                            math.comb(t.n, c1))

        cutoff = pmf(t.a) * (1 + analytics.FISHER_REL_TOL)
        total = sum((pmf(k) for k in range(min(r1, c1) + 1)
                     if c1 - k <= r2 and pmf(k) <= cutoff), Fraction(0))
        return float(min(total, Fraction(1)))

    rng = random.Random(1234)
    ok = True
    checked = 0
    while checked < 1000:
        t = T(rng.randint(0, 30), rng.randint(0, 30),
              rng.randint(0, 30), rng.randint(0, 30)) \
            if rng.random() > 0 else None
        if t.n == 0:
            continue
        res = fisher_exact(t)
        if res.degenerate:
            ok &= res.p_two_sided == 1.0
        else:
            ok &= res.p_two_sided == brute(t)
        checked += 1
    ok &= (time.monotonic() - started) < 60.0
    _verdict_line("exact-test brute-force oracle (1000 random tables)", ok)


def _pipeline(kernel_repo, tmp_path, script, scenario, subdir):
    task = envprep.resolve_task(kernel_repo["repo"], kernel_repo["fix"],
                                metadata={"case_id": subdir})
    builder = BuilderSpec("fixture", "fixture",
                          {"scenario": os.path.join(SCENARIOS, scenario)})
    env = envprep.prepare_environment(task, builder,
                                      str(tmp_path / subdir / "env"))
    client = ScriptedModelClient.from_file(os.path.join(MODELS, script))
    out = str(tmp_path / subdir / "run")
    run_session(task, env, client, toolserver.PROFILES["baseline"],
                Budget(price_table=PriceTable.per_million(2, 8)), out)
    return out


def test_criterion_end_to_end_pipeline(kernel_repo, tmp_path):
    """Scripted sessions produce the expected verdicts, fast."""
    started = time.monotonic()
    ok = True

    out = _pipeline(kernel_repo, tmp_path, "success.json", "crash_uaf.json", "s")
    v = verdict.decide(out)
    ok &= v.success and v.reason == "crashed" \
        and v.crashes[0].crash_class == "UAF"

    out = _pipeline(kernel_repo, tmp_path, "cheat.json", "crash_uaf.json", "c")
    v = verdict.decide(out)
    ok &= (not v.success) and v.reason == "cheat"

    out = _pipeline(kernel_repo, tmp_path, "no_crash.json", "no_crash.json", "n")
    v = verdict.decide(out)
    ok &= (not v.success) and v.reason == "no_crash"

    out = _pipeline(kernel_repo, tmp_path, "success.json", "crash_uaf.json", "m")
    os.remove(os.path.join(out, "report.md"))
    v = verdict.decide(out)
    ok &= (not v.success) and v.reason == "missing_report"

    ok &= (time.monotonic() - started) < 10.0
    _verdict_line("end-to-end mock pipeline verdicts", ok)


def test_criterion_gate_invariant():
    """Interaction tools fail iff the debuggee is stopped: no false admits,
    no false denies, across every stop/resume interleaving."""
    path = os.path.join(SCENARIOS, "crash_uaf.json")
    ok = True

    def fresh():
        scn = guestvm.GuestScenario.load(path)
        guest = guestvm.MockGuest(scn)
        h = guestvm.GuestHandle(
            guestvm.SnapshotRef("boot",
                                state={"scenario_path": path,
                                       "guest_state": guest.state}),
            mock_guest=guest)
        s = kdbg.attach(h, kdbg.ScriptedMiStub(symbols=["nft_chain_lookup"]))
        return h, s

    ops = {
        "exec": lambda h: guestvm.exec_console(h, "echo probe"),
        "signal": lambda h: guestvm.send_signal(h, "interrupt"),
        "upload": lambda h: guestvm.compile_and_upload(
            h, "int main(void){return 0;}", "/t"),
    }
    stops = [
        '*stopped,reason="breakpoint-hit",bkptno="1"',
        '*stopped,reason="signal-received",signal-name="SIGINT"',
        '*stopped,reason="watchpoint-trigger"',
    ]
    for stop_line in stops:
        for op_name, op in ops.items():
            h, s = fresh()
            # Running: every op must be admitted.
            try:
                op(h)
            except DebuggeeHalted:
                ok = False
            # Stopped: every op must be denied.
            s.feed_async_line(stop_line)
            try:
                op(h)
                ok = False
            except DebuggeeHalted:
                pass
            # Resumed: admitted again.
            s.resume()
            try:
                op(h)
            except DebuggeeHalted:
                ok = False
    _verdict_line("debug-gate admit/deny invariant", ok)


def test_criterion_mi_corpus():
    """Whole corpus parses and serializes to a fixpoint; malformed inputs
    are rejected."""
    ok = True
    n = 0
    with open(os.path.join(MI_DIR, "transcript.txt")) as fh:
        for line in fh.read().splitlines():
            if not line or mi.is_terminator(line):
                continue
            try:
                rec = mi.parse_mi_record(line)
                once = mi.serialize_mi_record(rec)
                ok &= once == line
                ok &= mi.serialize_mi_record(mi.parse_mi_record(once)) == once
            except MalformedRecord:
                ok = False
            n += 1
    ok &= n >= 20

    with open(os.path.join(MI_DIR, "malformed.txt")) as fh:
        bad = [ln for ln in fh.read().splitlines() if ln]
    ok &= len(bad) == 3
    for line in bad:
        try:
            mi.parse_mi_record(line)
            ok = False
        except MalformedRecord:
            pass
    _verdict_line("debugger-protocol corpus round trip", ok)


def test_criterion_crash_corpus():
    """Every labelled console block classifies exactly as labelled."""
    with open(os.path.join(CRASHES, "labels.json")) as fh:
        labels = json.load(fh)
    ok = len(labels) >= 20
    for name, expected in sorted(labels.items()):
        text = Path(CRASHES, name).read_text()
        got = [r.crash_class for r in verdict.parse_crash_reports(text)]
        ok &= got == expected
    _verdict_line("crash-banner corpus label agreement", ok)


def test_criterion_ablation_soundness(kernel_repo, tmp_path):
    """Each capability profile actually removes what it claims to remove."""
    ok = True
    task = envprep.resolve_task(kernel_repo["repo"], kernel_repo["fix"])
    builder = BuilderSpec("fixture", "fixture",
                          {"scenario": os.path.join(SCENARIOS, "crash_uaf.json")})
    env = envprep.prepare_environment(task, builder, str(tmp_path / "env"))

    # no_gdb: debugging tools absent and unroutable.
    srv = toolserver.ToolServer(env, task, toolserver.PROFILES["no_gdb"])
    names = {t.name for t in toolserver.list_tools(toolserver.PROFILES["no_gdb"])}
    ok &= not any(n.startswith("dbg.") for n in names)
    resp = srv.dispatch({"jsonrpc": "2.0", "id": 1, "method": "tools/call",
                         "params": {"name": "dbg.resume", "arguments": {}}})
    ok &= resp.get("error", {}).get("code") == -32601

    # no_utils: utility binaries unavailable in the reshaped guest image.
    shaped = envprep.apply_capability_profile(env, "no_utils")
    handle = guestvm.start_guest(shaped)
    out = guestvm.exec_console(handle, "nft list ruleset")
    ok &= "command not found" in out.text
    plain = guestvm.start_guest(env)
    out = guestvm.exec_console(plain, "nft list ruleset")
    ok &= "command not found" not in out.text

    # no_commit_message: the message text reaches no prompt.
    bundle = toolserver.assemble_prompts(
        task, toolserver.PROFILES["no_commit_message"])
    blob = "\n".join([bundle.system_text, bundle.technical_text,
                      bundle.task_text] + bundle.constraints)
    ok &= task.commit_message not in blob
    baseline = toolserver.assemble_prompts(task, toolserver.PROFILES["baseline"])
    ok &= task.commit_message in baseline.task_text
    _verdict_line("capability-profile soundness", ok)


def test_criterion_determinism(kernel_repo, tmp_path):
    """Two identical scripted sessions agree event-for-event modulo
    timestamps, and the environment digest is reproducible."""
    ok = True

    def strip(events):
        cleaned = []
        for e in events:
            d = {k: v for k, v in e.items()
                 if k not in ("t_rel_ms", "duration_ms")}
            cleaned.append(d)
        return cleaned

    outs = []
    digests = []
    for label in ("one", "two"):
        task = envprep.resolve_task(kernel_repo["repo"], kernel_repo["fix"],
                                    metadata={"case_id": "det"})
        builder = BuilderSpec("fixture", "fixture",
                              {"scenario": os.path.join(SCENARIOS,
                                                        "crash_uaf.json")})
        env = envprep.prepare_environment(task, builder,
                                          str(tmp_path / label / "env"))
        digests.append(env.content_digest)
        client = ScriptedModelClient.from_file(
            os.path.join(MODELS, "success.json"))
        out = str(tmp_path / label / "run")
        run_session(task, env, client, toolserver.PROFILES["baseline"],
                    Budget(price_table=PriceTable.per_million(2, 8)), out)
        outs.append(out)

    ok &= digests[0] == digests[1]
    t1 = strip(read_trace(os.path.join(outs[0], "trace.jsonl")))
    t2 = strip(read_trace(os.path.join(outs[1], "trace.jsonl")))
    ok &= t1 == t2
    c1 = Path(outs[0], "console.log").read_text()
    c2 = Path(outs[1], "console.log").read_text()
    ok &= c1 == c2
    ok &= Path(outs[0], "poc.c").read_text() == \
        Path(outs[1], "poc.c").read_text()
    _verdict_line("repeat-run determinism", ok)
