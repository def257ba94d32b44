import json
import os
import subprocess
from pathlib import Path

import pytest

from patchrepro import envprep, errors
from tests.conftest import SCENARIOS, SENTINEL_MESSAGE


def _fixture_builder(scenario_name="crash_uaf.json"):
    return envprep.BuilderSpec(
        builder_id="fixture-kasan",
        kind="fixture",
        parameters={"scenario": os.path.join(SCENARIOS, scenario_name)},
    )


def test_resolve_task_basic(kernel_repo):
    task = envprep.resolve_task(kernel_repo["repo"], kernel_repo["fix"])
    assert task.commit_id == kernel_repo["fix"]
    assert task.parent_commit_id
    assert "nft_chain_lookup" in task.diff_text or "chain" in task.diff_text
    assert SENTINEL_MESSAGE in task.commit_message


def test_resolve_task_unknown_commit(kernel_repo):
    with pytest.raises(errors.UnknownCommit):
        envprep.resolve_task(kernel_repo["repo"], "0" * 40)


def test_resolve_task_merge_rejected(kernel_repo):
    with pytest.raises(errors.MergeCommitRejected):
        envprep.resolve_task(kernel_repo["repo"], kernel_repo["merge"])


def test_task_round_trip(kernel_repo):
    task = envprep.resolve_task(kernel_repo["repo"], kernel_repo["fix"])
    again = envprep.PatchTask.from_json(task.to_json())
    assert again == task


def test_prepare_environment_fixture(kernel_repo, tmp_path):
    task = envprep.resolve_task(kernel_repo["repo"], kernel_repo["fix"])
    env = envprep.prepare_environment(task, _fixture_builder(), str(tmp_path / "env"))
    assert os.path.isdir(env.source_root)
    # Source is checked out at the parent: the fix must not be present.
    src = Path(env.source_root, "net/netfilter/nf_tables_api.c").read_text()
    assert "return NULL;" not in src
    assert env.snapshot_ref is not None
    env_dir = os.path.join(str(tmp_path / "env"), env.env_id)
    for name in ("task.json", "manifest.json", "prep.log"):
        assert os.path.exists(os.path.join(env_dir, name))


def test_prepare_environment_boot_failure(kernel_repo, tmp_path):
    task = envprep.resolve_task(kernel_repo["repo"], kernel_repo["fix"])
    builder = _fixture_builder("never_ready.json")
    with pytest.raises(errors.EnvBootFailed):
        envprep.prepare_environment(task, builder, str(tmp_path / "env"))


def test_prepare_environment_refuses_a_bad_scenario(kernel_repo, tmp_path):
    """A crash file that is not there fails the preparation, not a session."""
    scenario = tmp_path / "missing_crash.json"
    scenario.write_text(json.dumps({"rules": [
        {"pattern": "^\\./trigger$", "post": "emit_crash:gone.txt"}]}))
    task = envprep.resolve_task(kernel_repo["repo"], kernel_repo["fix"])
    builder = envprep.BuilderSpec("fixture-kasan", "fixture",
                                  {"scenario": str(scenario)})
    with pytest.raises(errors.EnvBootFailed, match="emit_crash:gone.txt"):
        envprep.prepare_environment(task, builder, str(tmp_path / "env"))


def test_non_fixture_builder_kind_fails_before_any_subprocess(
        kernel_repo, tmp_path, monkeypatch):
    task = envprep.resolve_task(kernel_repo["repo"], kernel_repo["fix"])

    def no_subprocess(*args, **kwargs):
        raise AssertionError("subprocess started: %r" % (args,))

    monkeypatch.setattr(subprocess, "run", no_subprocess)
    monkeypatch.setattr(subprocess, "Popen", no_subprocess)
    builder = envprep.BuilderSpec("ext", "external_kernel_build",
                                  {"command": "/bin/true"})
    with pytest.raises(errors.BuildFailed):
        envprep.prepare_environment(task, builder, str(tmp_path / "env"))
    assert not (tmp_path / "env").exists()


def test_load_environment_gives_back_the_prepared_one(kernel_repo, tmp_path):
    task = envprep.resolve_task(kernel_repo["repo"], kernel_repo["fix"])
    env = envprep.prepare_environment(task, _fixture_builder(),
                                      str(tmp_path / "env"))
    loaded_task, loaded = envprep.load_environment(env.env_dir)
    assert loaded_task == task
    assert loaded == env
    assert os.path.isabs(loaded.snapshot_ref.state["scenario_path"])


def test_content_digest_deterministic(kernel_repo):
    task = envprep.resolve_task(kernel_repo["repo"], kernel_repo["fix"])
    builder = _fixture_builder()
    manifest = envprep.SYZBOT_LIKE_MANIFEST
    d1 = envprep.content_digest(task.commit_id, builder.builder_id, manifest)
    d2 = envprep.content_digest(task.commit_id, builder.builder_id, manifest)
    assert d1 == d2
    assert envprep.content_digest(task.commit_id, "other", manifest) != d1


def test_manifest_shape():
    m = envprep.SYZBOT_LIKE_MANIFEST
    assert "CONFIG_KASAN=y" in m
    assert "CONFIG_DEBUG_INFO=y" in m
    assert "CONFIG_KPROBES=n" in m


def test_apply_profile_no_utils(kernel_repo, tmp_path):
    task = envprep.resolve_task(kernel_repo["repo"], kernel_repo["fix"])
    env = envprep.prepare_environment(task, _fixture_builder(), str(tmp_path / "env"))
    shaped = envprep.apply_capability_profile(env, "no_utils")
    blocked = shaped.snapshot_ref.state["guest_state"].get("blocked_utilities")
    assert blocked and "nft" in blocked
    # Identity for profiles that do not reshape the image.
    same = envprep.apply_capability_profile(env, "baseline")
    assert same is env


def test_apply_profile_unknown(kernel_repo, tmp_path):
    task = envprep.resolve_task(kernel_repo["repo"], kernel_repo["fix"])
    env = envprep.prepare_environment(task, _fixture_builder(), str(tmp_path / "env"))
    with pytest.raises(errors.UnknownProfile):
        envprep.apply_capability_profile(env, "bogus")


def _git_out(root, *args):
    return subprocess.run(["git", "-C", root, *args], capture_output=True,
                          text=True, check=True).stdout


def _tree_bytes(root):
    """Every file below ``root`` outside .git, by relative path."""
    found = {}
    for dirpath, dirnames, filenames in os.walk(root):
        if ".git" in dirnames:
            dirnames.remove(".git")
        for name in filenames:
            full = os.path.join(dirpath, name)
            with open(full, "rb") as fh:
                found[os.path.relpath(full, root)] = fh.read()
    return found


def _spoil_checkout(src):
    """Edit, delete, add and ignore files in a checkout."""
    with open(os.path.join(src, "net/netfilter/nf_tables_api.c"), "a") as fh:
        fh.write("int planted;\n")
    os.remove(os.path.join(src, "include/nft_fixture.h"))
    os.makedirs(os.path.join(src, "scratch", "deep"))
    with open(os.path.join(src, "scratch", "deep", "new.c"), "w") as fh:
        fh.write("int added;\n")
    with open(os.path.join(src, ".gitignore"), "w") as fh:
        fh.write("*.o\n")
    with open(os.path.join(src, "net", "built.o"), "w") as fh:
        fh.write("object\n")


def _git_commands(monkeypatch):
    """The git subcommand of each subprocess started from now on."""
    seen = []
    real_run = subprocess.run

    def run(cmd, *args, **kwargs):
        seen.append(next(a for a in cmd[1:] if a in
                         ("clone", "checkout", "reset", "clean", "status",
                          "rev-parse")))
        return real_run(cmd, *args, **kwargs)

    monkeypatch.setattr(envprep.subprocess, "run", run)
    return seen


def test_reprepare_resets_the_checkout_in_place(kernel_repo, tmp_path,
                                                monkeypatch):
    task = envprep.resolve_task(kernel_repo["repo"], kernel_repo["fix"])
    commands = _git_commands(monkeypatch)
    env = envprep.prepare_environment(task, _fixture_builder(),
                                      str(tmp_path / "env"))
    # A first preparation clones; it starts no reset.
    assert commands == ["clone", "checkout"]
    _spoil_checkout(env.source_root)
    assert _git_out(env.source_root, "status", "--porcelain", "--ignored",
                    "--untracked-files=all")
    commands.clear()
    again = envprep.prepare_environment(task, _fixture_builder(),
                                        str(tmp_path / "env"))
    assert commands == ["reset", "clean"]
    assert again.source_root == env.source_root
    assert _git_out(env.source_root, "status", "--porcelain", "--ignored",
                    "--untracked-files=all") == ""
    fresh = str(tmp_path / "fresh")
    _git_out(str(tmp_path), "clone", "--quiet", kernel_repo["repo"], fresh)
    _git_out(fresh, "checkout", "--quiet", task.parent_commit_id)
    assert _tree_bytes(env.source_root) == _tree_bytes(fresh)


def test_broken_checkout_is_cloned_again(kernel_repo, monkeypatch):
    """A corrupted .git falls back to a fresh clone.  The env dir here lies
    inside the task's own repository, which the reset must not touch."""
    repo = kernel_repo["repo"]
    task = envprep.resolve_task(repo, kernel_repo["fix"])
    workdir = os.path.join(repo, "envs")
    env = envprep.prepare_environment(task, _fixture_builder(), workdir)
    outer = (_git_out(repo, "rev-parse", "HEAD"), _git_out(repo, "status",
                                                           "--porcelain"))
    _spoil_checkout(env.source_root)
    with open(os.path.join(env.source_root, ".git", "HEAD"), "w") as fh:
        fh.write("garbage\n")
    commands = _git_commands(monkeypatch)
    again = envprep.prepare_environment(task, _fixture_builder(), workdir)
    assert commands == ["reset", "clone", "checkout"]
    assert _git_out(again.source_root, "status", "--porcelain", "--ignored",
                    "--untracked-files=all") == ""
    assert _git_out(again.source_root, "rev-parse", "HEAD").strip() == \
        task.parent_commit_id
    assert not os.path.exists(os.path.join(again.source_root, "scratch"))
    assert (_git_out(repo, "rev-parse", "HEAD"),
            _git_out(repo, "status", "--porcelain")) == outer
