"""In-memory span recorder wrapped around the package's public functions.

Instrumentation replaces module attributes (and class attributes for
methods) with timing wrappers, so calls made inside the package through a
module's globals are traced too.  Nothing under ``src/`` changes.  Spans are
kept in memory and written out once, when the run ends.

Per-line leaf predicates (``guestvm.is_kernel_line``, ``mi.is_terminator``)
and the generator ``trace.iter_console_lines`` are not wrapped: a span per
console line would cost more than the work it measures, and a generator's
call returns before its work is done.  Their time lands in the caller's
self time.
"""

import json
import time

# (layer, owner, attribute).  owner is a module attribute path for
# functions, "module.Class" for methods.
TARGETS = (
    ("envprep", "envprep", "resolve_task"),
    ("envprep", "envprep", "prepare_environment"),
    ("envprep", "envprep", "load_case_metadata"),
    ("envprep", "envprep", "content_digest"),
    ("envprep", "envprep", "apply_capability_profile"),
    ("codebrowse", "codebrowse", "build_index"),
    ("codebrowse", "codebrowse", "list_symbols"),
    ("codebrowse", "codebrowse", "query_symbol"),
    ("codebrowse", "codebrowse", "read_range"),
    ("codebrowse", "codebrowse", "save_index"),
    ("codebrowse", "codebrowse", "load_index"),
    ("guestvm", "guestvm", "start_guest"),
    ("guestvm", "guestvm", "restore_from_snapshot"),
    ("guestvm", "guestvm", "restart_guest"),
    ("guestvm", "guestvm", "create_snapshot"),
    ("guestvm", "guestvm", "exec_console"),
    ("guestvm", "guestvm", "send_signal"),
    ("guestvm", "guestvm", "compile_and_upload"),
    ("mi", "mi", "parse_mi_record"),
    ("mi", "mi", "serialize_mi_record"),
    ("kdbg", "kdbg", "classify_mutation"),
    ("kdbg", "kdbg", "attach"),
    ("kdbg", "kdbg.DebugSession", "manage_breakpoint"),
    ("kdbg", "kdbg.DebugSession", "inspect_state"),
    ("kdbg", "kdbg.DebugSession", "raw_command"),
    ("kdbg", "kdbg.DebugSession", "resume"),
    ("kdbg", "kdbg.DebugSession", "feed_async_line"),
    ("toolserver", "toolserver", "load_registry"),
    ("toolserver", "toolserver", "list_tools"),
    ("toolserver", "toolserver", "assemble_prompts"),
    ("toolserver", "toolserver.ToolServer", "dispatch_call"),
    ("toolserver", "toolserver.ToolServer", "dispatch"),
    ("trace", "trace.Trace", "record"),
    ("trace", "trace.Trace", "write"),
    ("trace", "trace", "read_trace"),
    ("sessionrunner", "sessionrunner", "run_session"),
    ("sessionrunner", "sessionrunner", "replay_trace"),
    ("sessionrunner", "sessionrunner", "account_usage"),
    ("verdict", "verdict", "parse_crash_reports"),
    ("verdict", "verdict", "detect_cheat"),
    ("verdict", "verdict", "decide"),
    ("verdict", "verdict", "write_verdict"),
    ("analytics", "analytics", "fisher_exact"),
    ("analytics", "analytics", "mantel_haenszel_or"),
    ("analytics", "analytics", "cmh_test"),
    ("analytics", "analytics", "nearest_rank_percentile"),
    ("analytics", "analytics", "summarize_runs"),
    ("analytics", "analytics", "convergence_curve"),
    ("analytics", "analytics", "expected_overall_time"),
    ("analytics", "analytics", "load_run_records"),
    ("analytics", "analytics", "subsystem_tables"),
    ("analytics", "analytics", "type_race_strata"),
    ("analytics", "analytics", "cutoff_table"),
    ("cli", "cli", "main"),
)

# Modules that bound a traced function under their own name with
# ``from .x import y``; the binding is patched alongside the original.
ALIASES = {
    ("trace", "read_trace"): ("verdict", "sessionrunner"),
}

def _note_args(qualname, args, kwargs, result):
    """Per-call facts the per-layer metrics need; kept small."""
    if qualname == "codebrowse.build_index":
        return {"files": result.file_count,
                "symbols": sum(len(v) for v in result.entries.values())}
    if qualname == "codebrowse.query_symbol":
        mode = kwargs.get("mode", args[2] if len(args) > 2 else "definitions")
        return {"mode": mode, "truncated": bool(result[1])}
    if qualname == "guestvm.exec_console":
        return {"transcript": len(args[0].transcript)}
    if qualname == "guestvm.compile_and_upload":
        return {"source": hash(args[1])}
    if qualname == "mi.parse_mi_record":
        return {"bytes": len(args[0])}
    if qualname == "kdbg.classify_mutation":
        return {"mutation": result is not None}
    if qualname == "toolserver.ToolServer.dispatch_call":
        return {"error": "error" in result}
    if qualname == "trace.Trace.record":
        kind = args[1]
        return {"gate_stop": kind == "lifecycle"
                and kwargs.get("event") == "gate_stopped"}
    if qualname == "trace.Trace.write":
        return {"events": len(args[0].events)}
    if qualname == "trace.read_trace":
        return {"events": len(result)}
    if qualname == "verdict.parse_crash_reports":
        text = args[0]
        partial = 1 if text and not text.endswith("\n") else 0
        return {"lines": text.count("\n") + partial, "crashes": len(result)}
    if qualname == "analytics.fisher_exact":
        return {"n": args[0].n}
    if qualname == "analytics.load_run_records":
        return {"records": len(result)}
    return None


class SpanRecorder:
    """Spans as tuples (id, parent, qualname, layer, t0, t1, unit, note).

    ``unit`` names the case or analyze invocation the span belongs to.
    Recording is off until ``unit`` is set, so answer-key checks made with
    package functions leave no spans.
    """

    def __init__(self):
        self.spans = []
        self.unit = None
        self._stack = []
        self._next_id = 0
        self._saved = []

    # instrumentation -------------------------------------------------------

    def install(self, package):
        for layer, owner, attr in TARGETS:
            parts = owner.split(".")
            target = getattr(package, parts[0])
            for part in parts[1:]:
                target = getattr(target, part)
            original = getattr(target, attr)
            qualname = "%s.%s" % (owner, attr)
            wrapper = self._wrap(original, qualname, layer)
            self._saved.append((target, attr, original))
            setattr(target, attr, wrapper)
            for alias in ALIASES.get((owner, attr), ()):
                mod = getattr(package, alias)
                self._saved.append((mod, attr, getattr(mod, attr)))
                setattr(mod, attr, wrapper)

    def uninstall(self):
        for target, attr, original in reversed(self._saved):
            setattr(target, attr, original)
        self._saved = []

    def _wrap(self, fn, qualname, layer):
        recorder = self
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if recorder.unit is None:
                return fn(*args, **kwargs)
            recorder._next_id += 1
            span_id = recorder._next_id
            parent = recorder._stack[-1] if recorder._stack else 0
            recorder._stack.append(span_id)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                t1 = clock()
                recorder._stack.pop()
                recorder.spans.append((span_id, parent, qualname, layer, t0,
                                       t1, recorder.unit, {"raised": True}))
                raise
            t1 = clock()
            recorder._stack.pop()
            recorder.spans.append((span_id, parent, qualname, layer, t0, t1,
                                   recorder.unit,
                                   _note_args(qualname, args, kwargs, result)))
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", qualname)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # output ----------------------------------------------------------------

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, layer, t0, t1, unit, note in self.spans:
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "name": name, "layer": layer,
                    "start": t0, "end": t1, "unit": unit, "note": note},
                    sort_keys=True) + "\n")


def self_times(spans):
    """Map span id -> self seconds: duration minus direct children."""
    child_sum = {}
    for sid, parent, _n, _l, t0, t1, _u, _note in spans:
        if parent:
            child_sum[parent] = child_sum.get(parent, 0.0) + (t1 - t0)
    return {sid: (t1 - t0) - child_sum.get(sid, 0.0)
            for sid, _p, _n, _l, t0, t1, _u, _note in spans}
