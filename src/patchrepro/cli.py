"""Command-line front end: run one session, serve tools, analyze corpora."""

import argparse
import json
import math
import sys

from . import analytics, envprep, sessionrunner, toolserver, verdict
from .sessionrunner import Budget, PriceTable, ScriptedModelClient


def _cmd_run(args):
    metadata = None
    if args.metadata:
        metadata = envprep.load_case_metadata(args.metadata).get(args.case_id)
    if metadata is None and args.case_id:
        metadata = {"case_id": args.case_id}
    task = envprep.resolve_task(args.repo, args.commit, metadata=metadata)
    builder = envprep.BuilderSpec(
        builder_id=args.builder_id, kind="fixture",
        parameters={"scenario": args.scenario})
    env = envprep.prepare_environment(task, builder, args.workdir)

    if not args.model.startswith("scripted:"):
        raise SystemExit("only scripted:<file> model clients are supported "
                         "offline; external endpoints need an adapter")
    client = ScriptedModelClient.from_file(args.model.split(":", 1)[1])

    budget = Budget(wall_clock_limit_s=args.budget_hours * 3600.0,
                    price_table=PriceTable.per_million(args.price_in,
                                                       args.price_out))
    profile = toolserver.PROFILES[args.profile]
    artifacts = sessionrunner.run_session(task, env, client, profile, budget,
                                          args.out)
    v = verdict.decide(args.out, case_id=task.case_id)
    verdict.write_verdict(args.out, v)
    print("termination=%s success=%s reason=%s"
          % (artifacts.termination, v.success, v.reason))
    return 0 if v.success else 1


def _cmd_serve_tools(args):
    task, env = envprep.load_environment(args.env)
    profile = toolserver.PROFILES[args.profile]
    env = envprep.shape_guest_image(env, profile)
    toolserver.ToolServer(env, task, profile).serve()
    return 0


def _cmd_analyze(args):
    metadata = envprep.load_case_metadata(args.metadata) if args.metadata else {}
    records = analytics.load_run_records(args.runs_dirs, metadata=metadata)
    tables = analytics.analysis_tables(records, args.tables, args.runs_dirs,
                                       args.cutoff_date)
    if args.format == "json":
        print(json.dumps(_finite(tables), indent=2, sort_keys=True,
                         default=str, allow_nan=False))
    else:
        for name, table in tables.items():
            print("## %s" % name)
            rows = table if isinstance(table, list) else [table]
            for row in rows:
                if isinstance(row, dict):
                    print("\t".join("%s=%s" % (k, v)
                                    for k, v in sorted(row.items())))
                else:
                    print(row)
    return 0


def _finite(value):
    """``value`` with each non-finite float replaced by its name as a
    string ("NaN", "Infinity", "-Infinity"), which JSON can carry and
    ``float()`` reads back."""
    if isinstance(value, float) and not math.isfinite(value):
        return json.dumps(value)  # the encoder's own spelling
    if isinstance(value, dict):
        return {k: _finite(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_finite(v) for v in value]
    return value


def _table_names(text):
    names = text.split(",")
    unknown = [n for n in names if n not in analytics.TABLES]
    if unknown:
        raise argparse.ArgumentTypeError(
            "unknown table %s (valid: %s)"
            % (", ".join(map(repr, unknown)), ",".join(analytics.TABLES)))
    return names


def build_parser():
    parser = argparse.ArgumentParser(prog="patchrepro")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run one reproduction session")
    p.add_argument("--commit", required=True)
    p.add_argument("--repo", required=True)
    p.add_argument("--profile", default="baseline",
                   choices=sorted(toolserver.PROFILES))
    p.add_argument("--model", required=True,
                   help="scripted:<file> or external:<endpoint>")
    p.add_argument("--budget-hours", type=float, default=10.0,
                   dest="budget_hours")
    p.add_argument("--out", required=True)
    p.add_argument("--scenario", required=True,
                   help="mock-guest scenario file")
    p.add_argument("--workdir", default=".patchrepro-envs")
    p.add_argument("--metadata", help="sidecar case metadata file")
    p.add_argument("--case-id", dest="case_id", default="")
    p.add_argument("--builder-id", dest="builder_id", default="fixture-v1")
    p.add_argument("--price-in", type=float, default=0.0, dest="price_in",
                   help="USD per million input tokens")
    p.add_argument("--price-out", type=float, default=0.0, dest="price_out",
                   help="USD per million output tokens")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("serve-tools",
                       help="speak JSON-RPC tools on stdin/stdout")
    p.add_argument("--env", required=True, help="environment directory")
    p.add_argument("--profile", default="baseline",
                   choices=sorted(toolserver.PROFILES))
    p.set_defaults(func=_cmd_serve_tools)

    p = sub.add_parser("analyze", help="statistics over run corpora")
    p.add_argument("runs_dirs", nargs="+")
    p.add_argument("--tables", type=_table_names,
                   default=",".join(analytics.TABLES))
    p.add_argument("--cutoff-date", dest="cutoff_date", default="2024-09-30")
    p.add_argument("--metadata", help="sidecar case metadata file")
    p.add_argument("--format", choices=("tsv", "json"), default="tsv")
    p.set_defaults(func=_cmd_analyze)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
