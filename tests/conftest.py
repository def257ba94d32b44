import os
import subprocess

import pytest

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
SCENARIOS = os.path.join(FIXTURES, "scenarios")
CRASHES = os.path.join(FIXTURES, "crashes")
MODELS = os.path.join(FIXTURES, "models")
MI_DIR = os.path.join(FIXTURES, "mi")

# Planted in the fix commit message so ablation-leakage tests can scan for it.
SENTINEL_MESSAGE = "XYZZY-SENTINEL netfilter: nf_tables: reject chain reuse after teardown"

_VULN_SOURCE = """\
#include <linux/kernel.h>

struct nft_chain {
\tint use;
\tchar name[32];
};

static int chain_count = 0;

#define NFT_CHAIN_ACTIVE 1

static struct nft_chain *nft_chain_lookup(const char *name)
{
\tstruct nft_chain *chain = find_chain(name);
\treturn chain;
}

int nft_chain_use(struct nft_chain *chain)
{
\treturn chain->use;
}
"""

_FIXED_SOURCE = _VULN_SOURCE.replace(
    "\treturn chain;",
    "\tif (!chain || !chain->use)\n\t\treturn NULL;\n\treturn chain;")

_HEADER = """\
#ifndef _NFT_FIXTURE_H
#define _NFT_FIXTURE_H

struct nft_chain *nft_chain_lookup(const char *name);
int nft_chain_use(struct nft_chain *chain);

#endif
"""


def _git(repo, *args, **env):
    full_env = dict(os.environ,
                    GIT_AUTHOR_NAME="fixture", GIT_AUTHOR_EMAIL="f@x",
                    GIT_COMMITTER_NAME="fixture", GIT_COMMITTER_EMAIL="f@x",
                    **env)
    subprocess.run(["git", "-C", str(repo), *args], check=True,
                   capture_output=True, env=full_env)


@pytest.fixture
def kernel_repo(tmp_path):
    """Tiny git repo shaped like a kernel tree: a base commit, a fix commit
    whose message carries the sentinel, and a merge commit on the side."""
    repo = tmp_path / "linux"
    repo.mkdir()
    _git(repo, "init", "--quiet", "-b", "main")

    src_dir = repo / "net" / "netfilter"
    src_dir.mkdir(parents=True)
    (src_dir / "nf_tables_api.c").write_text(_VULN_SOURCE)
    (repo / "include").mkdir()
    (repo / "include" / "nft_fixture.h").write_text(_HEADER)
    _git(repo, "add", "-A")
    _git(repo, "commit", "--quiet", "-m", "netfilter: nf_tables: add chain lookup")

    (src_dir / "nf_tables_api.c").write_text(_FIXED_SOURCE)
    _git(repo, "add", "-A")
    _git(repo, "commit", "--quiet", "-m", SENTINEL_MESSAGE)
    fix = subprocess.run(["git", "-C", str(repo), "rev-parse", "HEAD"],
                         capture_output=True, text=True, check=True).stdout.strip()

    _git(repo, "checkout", "--quiet", "-b", "side", "HEAD~1")
    (repo / "side.txt").write_text("side branch change\n")
    _git(repo, "add", "-A")
    _git(repo, "commit", "--quiet", "-m", "side change")
    _git(repo, "checkout", "--quiet", "main")
    _git(repo, "merge", "--quiet", "--no-ff", "--no-edit", "side")
    merge = subprocess.run(["git", "-C", str(repo), "rev-parse", "HEAD"],
                           capture_output=True, text=True, check=True).stdout.strip()
    return {"repo": str(repo), "fix": fix, "merge": merge}


@pytest.fixture
def scenario(request):
    def path(name):
        return os.path.join(SCENARIOS, name)
    return path


@pytest.fixture
def build_store():
    """The process's PoC build store, emptied for the test."""
    from patchrepro import pocbuild
    pocbuild._STORE.clear()
    return pocbuild._STORE
