"""Per-layer metrics from the recorded spans.

Case-phase figures are per traced case; analyze-phase figures are per
traced ``patchrepro analyze`` invocation.  Percentiles are nearest-rank.
"""

from harness import median, nearest_rank
from spans import self_times

CASE_LAYERS = ("envprep", "codebrowse", "guestvm", "mi", "kdbg",
               "toolserver", "trace", "sessionrunner", "verdict")
ANALYZE_LAYERS = ("trace", "sessionrunner", "analytics", "cli")
EXCHANGES = ("kdbg.DebugSession.manage_breakpoint",
             "kdbg.DebugSession.inspect_state",
             "kdbg.DebugSession.raw_command", "kdbg.DebugSession.resume")
TOOLS = ("code.list_symbols", "code.query", "code.read", "vm.start",
         "vm.restart", "vm.compile_upload", "vm.exec", "dbg.breakpoint",
         "dbg.inspect", "dbg.raw", "dbg.resume")


def per_layer(bench):
    """Per-layer figures by metric name; BENCHMARK.json gives their units."""
    spans = bench.recorder.spans
    selfs = self_times(spans)
    traced_cases = [c for c in bench.cases if c["traced"]]
    units = {u for _i, _p, _n, _l, _a, _b, u, _note in spans}
    analyze_units = {u for u in units if u.startswith("analyze-")}
    case_units = units - analyze_units
    n_cases = max(1, len(case_units))
    n_analyze = max(1, len(analyze_units))

    by_name = {}
    for span in spans:
        by_name.setdefault(span[2], []).append(span)

    def dur(name, phase=None):
        return [(s[5] - s[4]) for s in by_name.get(name, ())
                if phase is None or s[6] in phase]

    def notes(name, field):
        return [s[7][field] for s in by_name.get(name, ())
                if s[7] and field in s[7]]

    def per_unit_sum(name, phase):
        total = {u: 0.0 for u in phase}
        for s in by_name.get(name, ()):
            if s[6] in phase:
                total[s[6]] += s[5] - s[4]
        return median(list(total.values())) if total else 0.0

    def pct(values, p, scale):
        return nearest_rank(values, p) * scale if values else 0.0

    m = {}
    m["envprep.resolve_task_ms"] = median(dur("envprep.resolve_task", case_units)) * 1e3
    m["envprep.prepare_environment_ms"] = median(
        dur("envprep.prepare_environment", case_units)) * 1e3
    facts = [c["facts"] for c in traced_cases]
    m["envprep.files_checked_out"] = _mean([f["files_checked_out"] for f in facts])

    builds = by_name.get("codebrowse.build_index", ())
    build_time = sum(s[5] - s[4] for s in builds)
    m["codebrowse.build_index_ms"] = median([s[5] - s[4] for s in builds]) * 1e3
    m["codebrowse.build_index_calls"] = len(builds) / n_cases
    source_mb = sum(f["source_bytes"] for f in facts) / 1e6
    m["codebrowse.index_mb_per_s"] = (source_mb * len(builds) / len(facts)
                                      / build_time) if build_time and facts else 0.0
    m["codebrowse.files_indexed"] = _mean(notes("codebrowse.build_index", "files"))
    m["codebrowse.symbols_indexed"] = _mean(notes("codebrowse.build_index", "symbols"))
    queries = by_name.get("codebrowse.query_symbol", ())
    refs = [s for s in queries if s[7] and s[7].get("mode") == "references"]
    defs = [s for s in queries if s[7] and s[7].get("mode") == "definitions"]
    ref_times = [s[5] - s[4] for s in refs]
    m["codebrowse.query_references_ms_p50"] = pct(ref_times, 50, 1e3)
    m["codebrowse.query_references_ms_p90"] = pct(ref_times, 90, 1e3)
    m["codebrowse.references_truncated_ratio"] = (
        sum(s[7]["truncated"] for s in refs) / len(refs) if refs else 0.0)
    m["codebrowse.query_definitions_us_p50"] = pct([s[5] - s[4] for s in defs], 50, 1e6)
    m["codebrowse.read_range_us_p50"] = pct(dur("codebrowse.read_range"), 50, 1e6)
    m["codebrowse.list_symbols_us_p50"] = pct(dur("codebrowse.list_symbols"), 50, 1e6)

    m["guestvm.restore_ms"] = median(dur("guestvm.restore_from_snapshot")) * 1e3
    m["guestvm.exec_console_us_p50"] = pct(dur("guestvm.exec_console"), 50, 1e6)
    lines = {}
    for s in by_name.get("guestvm.exec_console", ()):
        if s[7] and "transcript" in s[7]:
            lines[s[6]] = max(lines.get(s[6], 0), s[7]["transcript"])
    m["guestvm.transcript_lines"] = _mean(list(lines.values()))
    compiles = by_name.get("guestvm.compile_and_upload", ())
    m["guestvm.compile_upload_ms_p50"] = pct([s[5] - s[4] for s in compiles], 50, 1e3)
    m["guestvm.compile_calls"] = len(compiles) / n_cases
    seen, repeats = set(), 0
    for s in compiles:
        source = (s[6], s[7].get("source") if s[7] else None)
        repeats += source in seen
        seen.add(source)
    m["guestvm.compile_repeat_ratio"] = repeats / len(compiles) if compiles else 0.0

    parses = by_name.get("mi.parse_mi_record", ())
    parse_time = sum(s[5] - s[4] for s in parses)
    parse_bytes = sum(s[7]["bytes"] for s in parses if s[7] and "bytes" in s[7])
    m["mi.records_parsed"] = len(parses) / n_cases
    m["mi.parse_us_per_record"] = parse_time / len(parses) * 1e6 if parses else 0.0
    m["mi.parse_mb_per_s"] = parse_bytes / 1e6 / parse_time if parse_time else 0.0

    exchanges = [s for name in EXCHANGES for s in by_name.get(name, ())]
    m["kdbg.exchange_ms_p50"] = pct([s[5] - s[4] for s in exchanges], 50, 1e3)
    m["kdbg.exchanges"] = len(exchanges) / n_cases
    m["kdbg.mutations_ledgered"] = sum(notes("kdbg.classify_mutation",
                                             "mutation")) / n_cases
    m["kdbg.gate_stops"] = sum(notes("trace.Trace.record", "gate_stop")) / n_cases

    dispatches = by_name.get("toolserver.ToolServer.dispatch_call", ())
    m["toolserver.dispatch_calls"] = len(dispatches) / n_cases
    m["toolserver.dispatch_errors_expected"] = sum(
        notes("toolserver.ToolServer.dispatch_call", "error")) / n_cases
    m["toolserver.dispatch_self_us_p50"] = pct([selfs[s[0]] for s in dispatches],
                                               50, 1e6)

    records = [s for s in by_name.get("trace.Trace.record", ()) if s[6] in case_units]
    m["trace.events_recorded"] = len(records) / n_cases
    m["trace.write_ms"] = median(dur("trace.Trace.write")) * 1e3
    m["trace.bytes_written"] = _mean([f["trace_bytes"] for f in facts])
    reads = [s for s in by_name.get("trace.read_trace", ()) if s[6] in analyze_units]
    read_time = sum(s[5] - s[4] for s in reads)
    m["trace.read_trace_ms"] = per_unit_sum("trace.read_trace", analyze_units) * 1e3
    m["trace.read_events_per_s"] = (sum(s[7]["events"] for s in reads if s[7])
                                    / read_time) if read_time else 0.0

    runs = by_name.get("sessionrunner.run_session", ())
    m["sessionrunner.run_session_self_ms"] = median([selfs[s[0]] for s in runs]) * 1e3
    replays = {s[0] for s in by_name.get("sessionrunner.replay_trace", ())
               if s[6] in analyze_units}
    replay_time = sum(s[5] - s[4] for s in by_name.get("sessionrunner.replay_trace", ())
                      if s[0] in replays)
    replay_events = sum(s[7]["events"] for s in reads if s[1] in replays and s[7])
    m["sessionrunner.replay_trace_ms"] = per_unit_sum(
        "sessionrunner.replay_trace", analyze_units) * 1e3
    m["sessionrunner.replay_events_per_s"] = (replay_events / replay_time
                                              if replay_time else 0.0)

    crash_parses = [s for s in by_name.get("verdict.parse_crash_reports", ())
                    if s[6] in case_units]
    parse_crash_time = sum(s[5] - s[4] for s in crash_parses)
    console_lines = sum(s[7]["lines"] for s in crash_parses if s[7])
    m["verdict.parse_crash_reports_ms"] = median(
        [s[5] - s[4] for s in crash_parses]) * 1e3
    m["verdict.console_lines"] = console_lines / n_cases
    m["verdict.console_lines_per_s"] = (console_lines / parse_crash_time
                                        if parse_crash_time else 0.0)
    m["verdict.detect_cheat_ms"] = median(dur("verdict.detect_cheat", case_units)) * 1e3
    m["verdict.crashes_found"] = sum(s[7]["crashes"] for s in crash_parses
                                     if s[7]) / n_cases

    m["analytics.load_run_records_ms"] = per_unit_sum(
        "analytics.load_run_records", analyze_units) * 1e3
    m["analytics.records_loaded"] = _mean(notes("analytics.load_run_records", "records"))
    fishers = by_name.get("analytics.fisher_exact", ())
    m["analytics.fisher_calls"] = len(fishers) / n_analyze
    max_n = max((s[7]["n"] for s in fishers if s[7] and "n" in s[7]), default=0)
    m["analytics.fisher_exact_ms_max_n"] = median(
        [s[5] - s[4] for s in fishers if s[7] and s[7].get("n") == max_n]) * 1e3
    m["analytics.fisher_max_n"] = max_n
    m["analytics.cmh_ms"] = per_unit_sum("analytics.cmh_test", analyze_units) * 1e3
    m["analytics.summarize_runs_ms"] = per_unit_sum(
        "analytics.summarize_runs", analyze_units) * 1e3
    m["cli.analyze_self_ms"] = median([selfs[s[0]] for s in by_name.get("cli.main", ())]) * 1e3

    layer_self = {}
    for span in spans:
        key = (span[3], span[6] in analyze_units)
        layer_self[key] = layer_self.get(key, 0.0) + selfs[span[0]]
    for layer in CASE_LAYERS:
        m["%s.self_ms_per_case" % layer] = layer_self.get((layer, False), 0.0) / n_cases * 1e3
    for layer in ANALYZE_LAYERS:
        m["%s.self_ms_per_analyze" % layer] = (layer_self.get((layer, True), 0.0)
                                               / n_analyze * 1e3)

    plain = [c for c in bench.cases if not c["traced"]]
    by_tool = {}
    for c in plain:
        for name, seconds in c["latencies"]:
            by_tool.setdefault(name, []).append(seconds)
    for tool in TOOLS:
        m["tool.%s.ms_p50" % tool] = pct(by_tool.get(tool, []), 50, 1e3)
    m["tool_call.samples"] = sum(len(v) for v in by_tool.values())

    def overhead(samples):
        on = [s for s, traced in samples if traced]
        off = [s for s, traced in samples if not traced]
        return median(on) - median(off) if on and off else 0.0

    m["tracing.overhead_case_s"] = overhead([(c["case"], c["traced"])
                                             for c in bench.cases])
    m["tracing.overhead_analyze_s"] = overhead(bench.analyses)
    return m


def _mean(values):
    return sum(values) / len(values) if values else 0.0
