"""Drive one reproduction session and emit its artifact set.

A pluggable model client is looped over the tool server under wall-clock and
cost budgets.  The artifact directory has fixed names (poc.c, report.md,
trace.jsonl, console.log, session.json, and verdict.json once decided) so
the verdict engine and analytics need no discovery logic.
"""

import dataclasses
import json
import os
import time
from dataclasses import dataclass, field
from decimal import Decimal
from typing import List, Optional, Sequence

from . import envprep, toolserver
from .envprep import CapabilityProfile
from .errors import MalformedModel
from .trace import Trace, fold, read_trace

DEFAULT_WALL_CLOCK_LIMIT_S = 10 * 3600.0

ARTIFACT_POC = "poc.c"
ARTIFACT_REPORT = "report.md"
ARTIFACT_TRACE = "trace.jsonl"
ARTIFACT_CONSOLE = "console.log"
ARTIFACT_SESSION = "session.json"
ARTIFACT_VERDICT = "verdict.json"


@dataclass
class ModelAction:
    kind: str  # tool_call | finalize | give_up
    name: Optional[str] = None
    args: Optional[dict] = None
    poc_source: Optional[str] = None
    report: Optional[str] = None
    reason: Optional[str] = None
    input_tokens: int = 0
    output_tokens: int = 0


_ACTION_KEYS = frozenset(f.name for f in dataclasses.fields(ModelAction))


@dataclass
class PriceTable:
    input_per_token: Decimal = Decimal("0")
    output_per_token: Decimal = Decimal("0")

    @classmethod
    def per_million(cls, input_usd, output_usd) -> "PriceTable":
        return cls(Decimal(str(input_usd)) / Decimal(1_000_000),
                   Decimal(str(output_usd)) / Decimal(1_000_000))


@dataclass
class Budget:
    wall_clock_limit_s: float = DEFAULT_WALL_CLOCK_LIMIT_S
    cost_limit: Optional[Decimal] = None
    price_table: PriceTable = field(default_factory=PriceTable)

    def __post_init__(self):
        if self.wall_clock_limit_s <= 0:
            raise ValueError("wall clock limit must be positive")
        if self.cost_limit is not None and self.cost_limit <= 0:
            raise ValueError("cost limit must be positive")


@dataclass
class SessionArtifacts:
    out_dir: str
    termination: str  # finalized | budget_exhausted | model_gave_up | fatal_error
    elapsed_s: float
    cost: Decimal
    poc_path: Optional[str] = None
    report_path: Optional[str] = None

    @property
    def trace_path(self):
        return os.path.join(self.out_dir, ARTIFACT_TRACE)

    @property
    def console_path(self):
        return os.path.join(self.out_dir, ARTIFACT_CONSOLE)


class ScriptedModelClient:
    """Replays a fixed action list; the deterministic test-suite client."""

    def __init__(self, actions: Sequence[ModelAction]):
        self.actions = list(actions)
        self._pos = 0

    @classmethod
    def from_file(cls, path) -> "ScriptedModelClient":
        """The client of the action list in the JSON file at ``path``;
        raises ``MalformedModel`` for a file that is no list of actions."""
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        if not isinstance(raw, list):
            raise MalformedModel("a model file holds a list of actions")
        for i, action in enumerate(raw):
            if not isinstance(action, dict):
                raise MalformedModel("action %d is not an object" % i)
            unknown = sorted(set(action) - _ACTION_KEYS)
            if unknown:
                raise MalformedModel("action %d: unknown key %r"
                                     % (i, unknown[0]))
            if "kind" not in action:
                raise MalformedModel("action %d: no key 'kind'" % i)
        return cls([ModelAction(**a) for a in raw])

    def next_action(self, prompts, history) -> ModelAction:
        if self._pos >= len(self.actions):
            return ModelAction(kind="give_up", reason="script exhausted")
        action = self.actions[self._pos]
        self._pos += 1
        return action


def account_usage(usage_events, price_table: PriceTable) -> Decimal:
    """Exact-decimal cost over (input_tokens, output_tokens) pairs."""
    total = Decimal("0")
    for tin, tout in usage_events:
        total += (Decimal(tin) * price_table.input_per_token
                  + Decimal(tout) * price_table.output_per_token)
    return total


def run_session(task: envprep.PatchTask, env: envprep.ReproEnvironment,
                model_client, profile: CapabilityProfile, budget: Budget,
                out_dir: str) -> SessionArtifacts:
    """Loop the model over the tool server until finalize, give-up, or
    budget exhaustion; always flush the artifact set."""
    os.makedirs(out_dir, exist_ok=True)
    env = envprep.shape_guest_image(env, profile)

    trace = Trace()
    server = toolserver.ToolServer(env, task, profile, trace=trace)
    prompts = toolserver.assemble_prompts(task, profile)
    history: List[dict] = []

    started = time.monotonic()
    cost = Decimal("0")
    poc_text: Optional[str] = None
    report_text: Optional[str] = None

    # Each way out of the loop sets the termination and the detail its
    # lifecycle event carries; the event is recorded once, after the loop.
    detail = {}
    while True:
        if time.monotonic() - started > budget.wall_clock_limit_s \
                or (budget.cost_limit is not None
                    and cost >= budget.cost_limit):
            termination = "budget_exhausted"
            break
        try:
            action = model_client.next_action(prompts, history)
        except Exception as exc:
            termination, detail = "fatal_error", {"error": str(exc)}
            break

        if action.input_tokens or action.output_tokens:
            trace.record("model_usage", input_tokens=action.input_tokens,
                         output_tokens=action.output_tokens)
            cost += account_usage(
                [(action.input_tokens, action.output_tokens)],
                budget.price_table)

        if action.kind == "finalize":
            if not action.poc_source or not action.report:
                termination = "fatal_error"
                detail = {"error": "finalize without poc/report"}
                break
            poc_text, report_text = action.poc_source, action.report
            termination = "finalized"
            break
        if action.kind == "give_up":
            termination, detail = "model_gave_up", {"reason": action.reason}
            break
        if action.kind != "tool_call":
            termination = "fatal_error"
            detail = {"error": "unknown action kind %r" % action.kind}
            break

        try:
            outcome = server.dispatch_call(action.name, action.args or {})
        except KeyError:
            outcome = {"error": {"name": "MethodNotFound",
                                 "message": action.name}}
        except Exception as exc:
            termination, detail = "fatal_error", {"error": str(exc)}
            history.append({"action": action, "outcome": {"error": str(exc)}})
            break
        history.append({"action": action, "outcome": outcome})
    trace.record("lifecycle", event=termination, **detail)

    elapsed = time.monotonic() - started
    return _flush_artifacts(out_dir, task, profile, trace, termination,
                            elapsed, cost, poc_text, report_text)


def _flush_artifacts(out_dir, task, profile, trace, termination, elapsed,
                     cost, poc_text, report_text) -> SessionArtifacts:
    poc_path = report_path = None
    if poc_text is not None:
        poc_path = os.path.join(out_dir, ARTIFACT_POC)
        with open(poc_path, "w", encoding="utf-8") as fh:
            fh.write(poc_text)
    if report_text is not None:
        report_path = os.path.join(out_dir, ARTIFACT_REPORT)
        with open(report_path, "w", encoding="utf-8") as fh:
            fh.write(report_text)

    trace.write(os.path.join(out_dir, ARTIFACT_TRACE))
    folded = fold(trace.events)

    # A rendered view for readers; no rule reads it back.
    console = "\n".join(folded.console)
    with open(os.path.join(out_dir, ARTIFACT_CONSOLE), "w",
              encoding="utf-8") as fh:
        fh.write(console + "\n" if console else "")

    session = {
        "case_id": task.case_id,
        "profile": profile.id,
        "termination": termination,
        "elapsed_min": round(elapsed / 60.0, 4),
        "cost_usd": str(cost),
        # The trace measures, taken once here so that analyze need not
        # read the trace again.
        **folded.measures,
    }
    with open(os.path.join(out_dir, ARTIFACT_SESSION), "w",
              encoding="utf-8") as fh:
        json.dump(session, fh, indent=2, sort_keys=True)

    return SessionArtifacts(out_dir=out_dir, termination=termination,
                            elapsed_s=elapsed, cost=cost,
                            poc_path=poc_path, report_path=report_path)


def replay_trace(trace_path) -> dict:
    """The measures of a trace file (``trace.fold``): what session.json holds
    for a run dir written before sessions recorded them."""
    return fold(read_trace(trace_path)).measures
