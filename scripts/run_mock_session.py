#!/usr/bin/env python3
"""End-to-end demo: build a tiny fix-commit repo, run a scripted session
against the bundled mock-guest scenario, and print the verdict.

Usage: python scripts/run_mock_session.py [--script cheat.json] [--out DIR]

The demo repo and the env dirs go into a new ``patchrepro-demo-*`` workdir
in the temp dir.  Without ``--out`` the run dir is ``run`` in that workdir,
which is kept; with an ``--out`` outside it, the workdir is removed on exit.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
FIXTURES = os.path.join(ROOT, "tests", "fixtures")

from patchrepro import cli  # noqa: E402


def make_demo_repo(workdir):
    repo = os.path.join(workdir, "demo-kernel")
    os.makedirs(os.path.join(repo, "net", "netfilter"))
    env = dict(os.environ,
               GIT_AUTHOR_NAME="demo", GIT_AUTHOR_EMAIL="d@x",
               GIT_COMMITTER_NAME="demo", GIT_COMMITTER_EMAIL="d@x")

    def git(*args):
        subprocess.run(["git", "-C", repo, *args], check=True,
                       capture_output=True, env=env)

    src = os.path.join(repo, "net", "netfilter", "nf_tables_api.c")
    git("init", "--quiet", "-b", "main")
    with open(src, "w") as fh:
        fh.write("struct nft_chain *nft_chain_lookup(const char *n)\n"
                 "{\n\treturn find_chain(n);\n}\n")
    git("add", "-A")
    git("commit", "--quiet", "-m", "netfilter: add chain lookup")
    with open(src, "w") as fh:
        fh.write("struct nft_chain *nft_chain_lookup(const char *n)\n"
                 "{\n\tstruct nft_chain *c = find_chain(n);\n"
                 "\tif (!c || !c->use)\n\t\treturn NULL;\n\treturn c;\n}\n")
    git("add", "-A")
    git("commit", "--quiet", "-m",
        "netfilter: nf_tables: reject stale chain reuse")
    commit = subprocess.run(["git", "-C", repo, "rev-parse", "HEAD"],
                            capture_output=True, text=True,
                            check=True).stdout.strip()
    return repo, commit


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--script", default="success.json",
                        help="scripted model action file (tests/fixtures/models)")
    parser.add_argument("--scenario", default="crash_uaf.json")
    parser.add_argument("--profile", default="baseline")
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    workdir = tempfile.mkdtemp(prefix="patchrepro-demo-")
    out = args.out or os.path.join(workdir, "run")
    try:
        repo, commit = make_demo_repo(workdir)
        print("demo repo: %s @ %s" % (repo, commit[:12]))
        code = cli.main([
            "run",
            "--commit", commit,
            "--repo", repo,
            "--profile", args.profile,
            "--model", "scripted:%s" % os.path.join(FIXTURES, "models",
                                                     args.script),
            "--budget-hours", "0.1",
            "--out", out,
            "--scenario", os.path.join(FIXTURES, "scenarios", args.scenario),
            "--workdir", os.path.join(workdir, "envs"),
            "--case-id", "demo-001",
            "--price-in", "2", "--price-out", "8",
        ])
    finally:
        # Keep the workdir only when the run dir lies in it.
        real = os.path.realpath(workdir)
        if os.path.commonpath([real, os.path.realpath(out)]) != real:
            shutil.rmtree(workdir, ignore_errors=True)
    print("artifacts in %s" % out)
    return code


if __name__ == "__main__":
    sys.exit(main())
