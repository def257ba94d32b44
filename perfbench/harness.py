"""Shared machinery: the timing model client, the case and analyze runners,
answer-key checks and metric assembly.

Every workload is a closed loop with one scripted agent: each tool call
waits for its reply before the next is handed out, and no threads are
started.  Outputs are compared with the answer key the workload generator
wrote; a mismatch, an unexpected tool error, a missing expected error or an
exception counts as one failed operation.
"""

import contextlib
import io
import json
import math
import os
import platform
import random
import re
import resource
import statistics
import subprocess
import time

import scipy
import scipy.stats

from patchrepro import cli, envprep, sessionrunner, verdict
from patchrepro.sessionrunner import (Budget, ModelAction, PriceTable,
                                      ScriptedModelClient)
from patchrepro.toolserver import PROFILES

import spans as spanlib

clock = time.perf_counter
CUTOFF = "2024-09-30"
BUILDER = envprep.BuilderSpec("bench-fixture", "fixture", {})
BUDGET = Budget(wall_clock_limit_s=3600.0,
                price_table=PriceTable.per_million(3, 15))
DECIDE_REPEATS = 12
# In a traced run, consecutive cases are traced and untraced in alternate
# blocks of this many.  Four is a multiple of the workloads' periods (two
# attempts per commit on browse, four outcomes on debug_console) and is
# coprime with the three template outcomes on corpus_analyze, so both sides
# of the tracing overhead, and the per-layer spans, see every attempt
# position and outcome class.
TRACE_BLOCK = 4


class TimingModelClient(ScriptedModelClient):
    """Scripted client that times each tool call as the agent sees it: from
    handing the action out to being asked for the next one."""

    def __init__(self, actions):
        super().__init__(actions)
        self.latencies = []  # (tool name, seconds)
        self.history = []
        self._handed = None

    def next_action(self, prompts, history):
        now = clock()
        if self._handed is not None:
            self.latencies.append((self._handed[0], now - self._handed[1]))
            self._handed = None
        self.history = history
        action = super().next_action(prompts, history)
        if action.kind == "tool_call":
            self._handed = (action.name, clock())
        return action


# --- host speed -----------------------------------------------------------------

# The shared host's speed changes by up to a factor of two within seconds and
# drifts over minutes, with the load of its other tenants; CPU time moves
# with it, so timing the process instead of the wall does not remove it.  A
# fixed calibration chunk shaped like the program's hot paths (decoding a
# few MB of trace-shaped JSON lines, and a regex pass over C-shaped source
# lines), run between operations for a tenth of the run's time, measures
# that speed over the same stretch of time.  Every end-to-end timing is
# reported in reference seconds: the wall-clock figure times CAL_REF_S over
# the run's mean chunk time, i.e. what it would read on a host where one
# chunk takes CAL_REF_S.  The chunk calls nothing of the package, so a
# change to the program moves the wall figure and never the probe.
CAL_SHARE = 0.1
CAL_REF_S = 0.08
CAL_JSON_LINES = 12000
CAL_SOURCE_LINES = 8000


def _calibration_text():
    """Trace-shaped JSON lines and C-shaped source lines, the same on
    every run."""
    rng = random.Random("perfbench-calibration")
    names = ["vm.exec", "code.query", "dbg.inspect", "dbg.raw"]
    words = ["kernel", "console", "BUG:", "KASAN:", "use-after-free", "in",
             "skb_release", "[", "12.345678]", "ready", "=="]
    events = []
    for seq in range(CAL_JSON_LINES):
        events.append(json.dumps({
            "seq": seq, "t": round(rng.uniform(0, 600), 6),
            "kind": rng.choice(("tool_call", "tool_result")),
            "name": rng.choice(names),
            "text": " ".join(rng.choice(words)
                             for _ in range(rng.randint(2, 24))),
            "digest": "%032x" % rng.getrandbits(128)}, sort_keys=True))
    source = []
    for i in range(CAL_SOURCE_LINES):
        shape = i % 4
        if shape == 0:
            source.append("static int calib_fn_%d(struct sk_buff *skb, int len)"
                          % rng.getrandbits(20))
        elif shape == 1:
            source.append("#define CALIB_LIMIT_%d %d" % (i, rng.getrandbits(12)))
        else:
            source.append("\tret = helper_%d(skb, len + %d);  /* step */"
                          % (rng.getrandbits(10), i))
    return events, source


class SpeedProbe:
    """Calibration chunks interleaved with the run's operations."""

    JSON_NAME = re.compile(r'"name": "([a-z]+)\.([a-z_]+)"')
    C_FUNC = re.compile(r"^[A-Za-z_][\w\s\*]*[\s\*]([A-Za-z_]\w*)\s*\(")
    C_DEFINE = re.compile(r"^\s*#\s*define\s+([A-Za-z_]\w*)")
    SLICE = 1000  # lines decoded at a time, so the probe holds little memory

    def __init__(self):
        self.events, self.source = _calibration_text()
        self.samples = []
        self._owed = 0.0

    def chunk(self):
        t0 = clock()
        chars = 0
        for at in range(0, len(self.events), self.SLICE):
            decoded = [json.loads(line) for line in self.events[at:at + self.SLICE]
                       if self.JSON_NAME.search(line)]
            chars += sum(len(e["text"]) for e in decoded
                         if e["kind"] == "tool_result")
        symbols = {}
        for n, line in enumerate(self.source, 1):
            m = self.C_FUNC.match(line) or self.C_DEFINE.match(line)
            if m:
                symbols.setdefault(m.group(1), []).append(n)
        self.samples.append(clock() - t0)
        return chars, len(symbols)

    def after(self, elapsed):
        """Run chunks for CAL_SHARE of the ``elapsed`` seconds just spent."""
        self._owed += CAL_SHARE * elapsed
        while self._owed > 0:
            self.chunk()
            self._owed -= self.samples[-1]

    def factor(self):
        """Reference seconds per wall second over the run so far."""
        if not self.samples:
            self.chunk()
        return CAL_REF_S * len(self.samples) / sum(self.samples)


# --- statistics -----------------------------------------------------------------

def nearest_rank(values, pct):
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def median(values):
    return statistics.median(values) if values else 0.0


# --- answer-key checks ------------------------------------------------------------

def _close(a, b, rel=1e-9, abs_tol=1e-9):
    if isinstance(a, float) and isinstance(b, float):
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        if math.isinf(a) or math.isinf(b):
            return a == b
    return math.isclose(a, b, rel_tol=rel, abs_tol=abs_tol)


def check_step(expect, outcome, tree):
    """None when the tool outcome matches the expectation, else a reason."""
    kind = expect[0]
    if kind == "error":
        got = outcome.get("error", {}).get("name")
        return None if got == expect[1] else "expected %s, got %r" % (
            expect[1], outcome.get("error") or "a result")
    if "error" in outcome:
        return "unexpected error %r" % (outcome["error"],)
    res = outcome["result"]
    if kind == "ok":
        return None
    if kind == "defs":
        got = sorted((h["file"], h["line"], h["kind"]) for h in res["locations"])
        return None if got == expect[1] and not res["truncated"] else "defs"
    if kind == "refs_exact":
        got = sorted((h["file"], h["line"], h["text"]) for h in res["locations"])
        return None if got == expect[1] and not res["truncated"] else "refs"
    if kind == "refs_limit":
        sym, limit = expect[1], expect[2]
        sites = tree.common_sites[sym]
        total = sum(len(lines) for lines in sites.values())
        ok = (res["truncated"] == (total > limit)
              and len(res["locations"]) == min(total, limit)
              and all(h["line"] in sites.get(h["file"], ())
                      for h in res["locations"]))
        return None if ok else "refs at limit"
    if kind == "read":
        ok = (res["lines"] == expect[1] and res["start"] == expect[2]
              and res["end"] == expect[3] and not res["truncated"])
        return None if ok else "read"
    if kind == "symbols":
        got = sorted((e["name"], e["kind"], e["line"]) for e in res["symbols"])
        return None if got == expect[1] else "symbols"
    if kind == "exec":
        ok = (res["text"].splitlines() == expect[1]
              and res["kernel_lines"] == expect[2] and not res["timed_out"])
        return None if ok else "exec output"
    if kind == "records":
        return None if _plain(res["records"]) == _plain(expect[1]) else "records"
    if kind == "raw":
        got = [(r["kind"], r["payload"]) for r in res["records"]]
        return None if _plain(got) == _plain(expect[1]) else "raw records"
    if kind == "bp":
        return None if res["location"] == expect[1] and res["id"].isdigit() \
            else "breakpoint"
    if kind == "upload":
        return None if res["guest_path"] == expect[1] and res["binary_size"] > 0 \
            else "upload"
    if kind == "gate_running":
        return None if res == {"gate": "running"} else "gate"
    raise ValueError("unknown expectation %r" % kind)


def guarded(check, *args):
    """The check's verdict, or the exception it raised on an output of an
    unexpected shape, as a failure reason."""
    try:
        return check(*args)
    except Exception as exc:  # counted as one failed operation
        return "%s: %s" % (type(exc).__name__, exc)


def _plain(obj):
    """Tuples and lists compare alike after a JSON round trip."""
    return json.loads(json.dumps(obj))


# --- runs -------------------------------------------------------------------------

class Bench:
    """State of one benchmark run: counters, samples and the span recorder."""

    def __init__(self, package, work, trace):
        self.package = package
        self.work = work
        self.trace = trace
        self.recorder = spanlib.SpanRecorder() if trace else None
        self.probe = SpeedProbe()
        self.attempted = 0
        self.failures = []
        self.cases = []  # dicts of per-case timings, traced flag, facts
        self.analyses = []  # (seconds, traced)
        self.envs = os.path.join(work, "envs")
        self._units = {}
        self._analyze_runs = 0

    def op(self, error, what):
        self.attempted += 1
        if error is not None:
            self.failures.append("%s: %s" % (what, error))

    @contextlib.contextmanager
    def unit(self, name, traced):
        """Trace the enclosed calls as one unit when ``traced``."""
        if not traced:
            yield
            return
        self.recorder.install(self.package)
        self.recorder.unit = name
        try:
            yield
        finally:
            self.recorder.unit = None
            self.recorder.uninstall()

    def next_traced(self, kind, block=1):
        """In a traced run, alternate blocks of ``block`` consecutive units
        of a kind are traced, starting with the first; the rest measure the
        tracing overhead."""
        if not self.trace:
            return False
        done = self._units.get(kind, 0)
        self._units[kind] = done + 1
        return (done // block) % 2 == 0

    def run_case(self, case, tree=None):
        """Fix commit to verdict.json for one case, then check it."""
        traced = self.next_traced("case", TRACE_BLOCK)
        client = TimingModelClient([ModelAction(**a) for a, _e in case.script.steps])
        builder = envprep.BuilderSpec(BUILDER.builder_id, BUILDER.kind,
                                      {"scenario": case.scenario.path})
        try:
            with self.unit(case.run_id, traced):
                t0 = clock()
                task = envprep.resolve_task(case.repo, case.commit,
                                            metadata=case.metadata)
                env = envprep.prepare_environment(task, builder, self.envs)
                t1 = clock()
                sessionrunner.run_session(task, env, client,
                                          PROFILES["baseline"], BUDGET,
                                          case.out_dir)
                t2 = clock()
                v = verdict.decide(case.out_dir, case_id=task.case_id)
                verdict.write_verdict(case.out_dir, v)
                t3 = clock()
            decides = [t3 - t2]
            # A few ms per call: time it again on the same artifacts, so the
            # run's median has several samples per case.
            while not traced and len(decides) < DECIDE_REPEATS:
                t4 = clock()
                verdict.write_verdict(case.out_dir,
                                      verdict.decide(case.out_dir,
                                                     case_id=task.case_id))
                decides.append(clock() - t4)
            self.probe.after(clock() - t0)
        except Exception as exc:  # counted, and the loop goes on
            self.op("%s: %s" % (type(exc).__name__, exc), case.run_id)
            return
        facts = {}
        if traced:
            facts = _tree_facts(env.source_root)
            facts["trace_bytes"] = os.path.getsize(
                os.path.join(case.out_dir, sessionrunner.ARTIFACT_TRACE))
        self.cases.append({"setup": t1 - t0, "session": t2 - t1,
                           "decides": decides, "case": t3 - t0,
                           "traced": traced, "latencies": client.latencies,
                           "facts": facts})
        self._check_case(case, client, v, tree)

    def _check_case(self, case, client, v, tree):
        steps = [e for _a, e in case.script.steps if e is not None]
        history = client.history
        if len(history) != len(steps):
            self.op("session ran %d of %d tool calls" % (len(history),
                                                         len(steps)),
                    case.run_id)
            return
        for i, (expect, entry) in enumerate(zip(steps, history)):
            self.op(guarded(check_step, expect, entry["outcome"], tree),
                    "%s call %d %s" % (case.run_id, i, entry["action"].name))
        self.op(guarded(self._check_verdict, case, v), case.run_id)

    @staticmethod
    def _check_verdict(case, v):
        with open(os.path.join(case.out_dir, sessionrunner.ARTIFACT_SESSION),
                  encoding="utf-8") as fh:
            session = json.load(fh)
        measures = sessionrunner.replay_trace(
            os.path.join(case.out_dir, sessionrunner.ARTIFACT_TRACE))
        scn = case.scenario
        crash = json.loads(v.to_json())["crash"]
        problems = []
        if v.reason != scn.outcome or v.success != (scn.outcome == "crashed"):
            problems.append("verdict %s, expected %s" % (v.reason, scn.outcome))
        if scn.crash_class and (crash is None or crash["class"] != scn.crash_class
                                or crash["function"] != scn.vuln):
            problems.append("crash %r" % (crash,))
        if session["poc_iterations"] != case.script.compiles:
            problems.append("poc_iterations %d" % session["poc_iterations"])
        if (measures["breakpoints_set"], measures["breakpoints_hit"]) != (
                case.script.bp_set, case.script.bp_hit):
            problems.append("breakpoints %d/%d" % (measures["breakpoints_set"],
                                                   measures["breakpoints_hit"]))
        return "; ".join(problems) or None

    def run_analyze(self, runs_dirs, metadata_path, key):
        """``patchrepro analyze`` over the run directories, all tables, JSON
        output; each table is checked against the answer key."""
        traced = self.next_traced("analyze")
        self._analyze_runs += 1
        name = "analyze-%d" % self._analyze_runs
        argv = ["analyze", *runs_dirs, "--metadata", metadata_path,
                "--cutoff-date", CUTOFF, "--format", "json"]
        buf = io.StringIO()
        try:
            with self.unit(name, traced), contextlib.redirect_stdout(buf):
                t0 = clock()
                rc = cli.main(argv)
                t1 = clock()
        except Exception as exc:
            self.op("%s: %s" % (type(exc).__name__, exc), name)
            return
        self.analyses.append((t1 - t0, traced))
        self.probe.after(t1 - t0)
        try:
            tables = json.loads(buf.getvalue()) if rc == 0 else {}
        except ValueError as exc:
            self.op("output is not JSON: %s" % exc, name)
            return
        for table, expected in key.items():
            self.op(guarded(check_table, table, tables.get(table), expected),
                    "%s table %s" % (name, table))

    # results -------------------------------------------------------------

    def end_to_end(self):
        """The run's end-to-end figures, by metric name, with every timing
        in reference seconds (see SpeedProbe)."""
        wall = self.wall_figures()
        factor = self.probe.factor()
        return {k: v if k == "peak_rss_mb" else v * factor
                for k, v in wall.items()}

    def wall_figures(self):
        """The end-to-end figures as the wall clock read them.  Each is the
        median over the run's untraced samples, which are spread over the
        whole run: cases for setup_s, case_s and session_s, every timing of
        decide for decide_s, analyze invocations for analyze_s.  The
        tool-call percentiles are nearest-rank over every untraced tool
        call of the run; the detail line gives their count.
        """
        plain = [c for c in self.cases if not c["traced"]]
        calls = [s * 1000.0 for c in plain for _n, s in c["latencies"]]
        return {
            "setup_s": median([c["setup"] for c in plain]),
            "case_s": median([c["case"] for c in plain]),
            "session_s": median([c["session"] for c in plain]),
            "decide_s": median([s for c in plain for s in c["decides"]]),
            "tool_call_ms_p50": nearest_rank(calls, 50) if calls else 0.0,
            "tool_call_ms_p90": nearest_rank(calls, 90) if calls else 0.0,
            "analyze_s": median([s for s, t in self.analyses if not t]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024.0,
        }

    def details(self):
        plain = [c for c in self.cases if not c["traced"]]
        by_tool = {}
        for c in plain:
            for name, s in c["latencies"]:
                by_tool.setdefault(name, []).append(s * 1000.0)
        return {
            "cases": len(self.cases),
            "case_seconds": [[round(c[k], 5) for k in ("setup", "session",
                                                        "case")]
                             + [round(median(c["decides"]), 6)]
                             for c in self.cases],
            "analyze_seconds": [round(s, 5) for s, _t in self.analyses],
            "analyses": len(self.analyses),
            "tool_call_samples": sum(len(v) for v in by_tool.values()),
            "tool_call_ms_p50_by_tool": {k: nearest_rank(v, 50)
                                         for k, v in sorted(by_tool.items())},
            "tool_calls_by_tool": {k: len(v) for k, v in sorted(by_tool.items())},
            "failures": self.failures[:20],
            "wall": self.wall_figures(),
            "host_speed": {"chunks": len(self.probe.samples),
                           "chunk_ms_mean": 1e3 * sum(self.probe.samples)
                           / max(1, len(self.probe.samples)),
                           "reference_chunk_ms": 1e3 * CAL_REF_S,
                           "factor": self.probe.factor()},
        }


def _tree_facts(root):
    files = source_bytes = 0
    for dirpath, dirnames, filenames in os.walk(root):
        if ".git" in dirnames:
            dirnames.remove(".git")
        for name in filenames:
            files += 1
            if name.endswith((".c", ".h")):
                source_bytes += os.path.getsize(os.path.join(dirpath, name))
    return {"files_checked_out": files, "source_bytes": source_bytes}


# --- analyze answer key -------------------------------------------------------------

def check_table(name, got, expected):
    if got is None:
        return "missing"
    if name == "overall":
        (row,) = got
        ok = (row["n"] == expected["n"] and row["successes"] == expected["successes"]
              and set(row["tool_call_means"]) == set(expected["tool_call_means"])
              and all(_close(row["tool_call_means"][k], v)
                      for k, v in expected["tool_call_means"].items()))
        return None if ok else "overall %r" % (row,)
    if name in ("subsystem", "cutoff"):
        rows, expected = ((got, expected) if name == "subsystem"
                          else ([got], [expected]))
        if len(rows) != len(expected):
            return "%d rows, expected %d" % (len(rows), len(expected))
        for row, want in zip(rows, expected):
            if any(row[k] != want[k] for k in ("a", "b", "c", "d")) \
                    or row.get("subsystem") != want.get("subsystem") \
                    or not _close(float(row["p"]), want["p"]) \
                    or not _close(float(row["odds_ratio"]), want["odds_ratio"]):
                return "row %r, expected %r" % (row, want)
        return None
    if name == "type":
        ok = (_close(float(got["mh_odds_ratio"]), expected["mh_odds_ratio"])
              and _close(got["cmh"]["statistic"], expected["statistic"])
              and _close(got["cmh"]["p_two_sided"], expected["p"]))
        return None if ok else "type %r, expected %r" % (got, expected)
    return None if got == expected else "%r, expected %r" % (got, expected)


def analyze_key(records, runs_dirs_order):
    """Expected tables from the generator's own records.

    records: dicts with case_id, success, runs_dir, tool_counts and the
    sidecar fields.  Fisher p-values come from scipy.stats.fisher_exact
    (two-sided); the Mantel-Haenszel and CMH figures from the textbook
    float formulas.
    """
    n = len(records)
    successes = sum(r["success"] for r in records)
    cats = sorted({c for r in records for c in r["tool_counts"]})
    key = {"overall": {"n": n, "successes": successes, "tool_call_means": {
        c: sum(r["tool_counts"].get(c, 0) for r in records) / n for c in cats}}}

    def table(inside, outside):
        a = sum(r["success"] for r in inside)
        c = sum(r["success"] for r in outside)
        return a, len(inside) - a, c, len(outside) - c

    def fisher(a, b, c, d):
        if a + b == 0 or c + d == 0 or a + c == 0 or b + d == 0:
            p = 1.0
        else:
            p = float(scipy.stats.fisher_exact([[a, b], [c, d]],
                                               alternative="two-sided")[1])
        if a * d == 0 and b * c == 0:
            ratio = float("nan")
        elif b * c == 0:
            ratio = float("inf")
        else:
            ratio = a * d / (b * c)
        return {"a": a, "b": b, "c": c, "d": d, "p": p, "odds_ratio": ratio}

    labels = sorted({r["subsystem"] for r in records if r["subsystem"]})
    key["subsystem"] = [dict(fisher(*table(
        [r for r in records if r["subsystem"] == lb],
        [r for r in records if r["subsystem"] != lb])), subsystem=lb)
        for lb in labels]
    race = [r for r in records if r["is_race"]]
    nonrace = [r for r in records if r["is_race"] is False]
    key["race"] = [
        {"group": "race", "n": len(race), "successes": sum(r["success"] for r in race)},
        {"group": "non_race", "n": len(nonrace),
         "successes": sum(r["success"] for r in nonrace)}]
    strata = []
    for flag in (True, False):
        rs = [r for r in records if r["is_race"] is flag
              and r["vuln_type"] in ("UAF", "DF", "OOB")]
        if rs:
            strata.append(table([r for r in rs if r["vuln_type"] != "OOB"],
                                [r for r in rs if r["vuln_type"] == "OOB"]))
    if strata:
        num = sum(a * d / (a + b + c + d) for a, b, c, d in strata)
        den = sum(b * c / (a + b + c + d) for a, b, c, d in strata)
        if num == 0 and den == 0:
            raise ValueError("generated corpus has only degenerate strata")
        dev = var = 0.0
        for a, b, c, d in strata:
            t = a + b + c + d
            if t < 2:
                continue
            dev += a - (a + b) * (a + c) / t
            var += (a + b) * (c + d) * (a + c) * (b + d) / (t * t * (t - 1))
        stat = dev * dev / var if var else 0.0
        key["type"] = {"mh_odds_ratio": num / den if den else float("inf"),
                       "statistic": stat,
                       "p": float(scipy.stats.chi2.sf(stat, 1)) if var else 1.0}
    key["cutoff"] = fisher(*table(
        [r for r in records if (r["submit_time"] or "") <= CUTOFF],
        [r for r in records if (r["submit_time"] or "") > CUTOFF]))
    levels = sorted({r["commit_msg_level"] for r in records if r["commit_msg_level"]})
    key["commitmsg"] = [
        {"level": lv, "n": sum(r["commit_msg_level"] == lv for r in records),
         "successes": sum(r["success"] for r in records
                          if r["commit_msg_level"] == lv)} for lv in levels]
    union, curve = set(), []
    for runs_dir in runs_dirs_order:
        last = {}
        for r in sorted((r for r in records if r["runs_dir"] == runs_dir),
                        key=lambda r: r["dir_name"]):
            last[r["case_id"]] = r["success"]
        if last:
            union |= {c for c, ok in last.items() if ok}
            curve.append(len(union))
    key["convergence"] = curve
    return key


# --- environment --------------------------------------------------------------------

def environment(seed, workload):
    def version(cmd):
        try:
            out = subprocess.run(cmd, capture_output=True, text=True).stdout
        except OSError:
            return None
        return out.splitlines()[0].strip() if out else None

    return {
        "workload": workload, "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "scipy": scipy.__version__,
        "gcc": version(["gcc", "--version"]),
        "git": version(["git", "--version"]),
        "loop": "closed, concurrency 1 (one scripted agent, no threads)",
        "page_cache": "not controlled; the generated tree is read once "
                      "untimed before timing starts",
    }
