import json
import os
import subprocess
from pathlib import Path

import pytest

from patchrepro import envprep, errors
from tests.conftest import SCENARIOS, SENTINEL_MESSAGE, _git


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
                          "rev-parse", "log", "diff")))
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
    assert commands == ["status", "reset", "clean"]
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
    assert commands == ["status", "reset", "clone", "checkout"]
    assert _git_out(again.source_root, "status", "--porcelain", "--ignored",
                    "--untracked-files=all") == ""
    assert _git_out(again.source_root, "rev-parse", "HEAD").strip() == \
        task.parent_commit_id
    assert not os.path.exists(os.path.join(again.source_root, "scratch"))
    assert (_git_out(repo, "rev-parse", "HEAD"),
            _git_out(repo, "status", "--porcelain")) == outer


def _fresh_checkout(repo, commit, dest):
    subprocess.run(["git", "clone", "--quiet", repo, dest], check=True,
                   capture_output=True)
    _git_out(dest, "checkout", "--quiet", commit)
    return dest


def _stat_tree(root):
    """(inode, mtime) of every file and directory below ``root`` outside
    .git, by relative path."""
    found = {}
    for dirpath, dirnames, filenames in os.walk(root):
        if ".git" in dirnames:
            dirnames.remove(".git")
        for name in dirnames + filenames:
            st = os.lstat(os.path.join(dirpath, name))
            found[os.path.relpath(os.path.join(dirpath, name), root)] = (
                st.st_ino, st.st_mtime_ns)
    return found


def _prep_log(env):
    return Path(env.env_dir, "prep.log").read_text().splitlines()


def test_a_clean_checkout_is_verified_by_one_git_and_left_as_it_is(
        kernel_repo, tmp_path, monkeypatch):
    task = envprep.resolve_task(kernel_repo["repo"], kernel_repo["fix"])
    env = envprep.prepare_environment(task, _fixture_builder(),
                                      str(tmp_path / "env"))
    before = _stat_tree(env.source_root)
    commands = _git_commands(monkeypatch)
    again = envprep.prepare_environment(task, _fixture_builder(),
                                        str(tmp_path / "env"))
    assert commands == ["status"]
    assert _stat_tree(again.source_root) == before
    assert _prep_log(again)[0] == \
        "checkout verified at %s" % task.parent_commit_id


def _edit(src):
    with open(os.path.join(src, "net/netfilter/nf_tables_api.c"), "a") as fh:
        fh.write("int planted;\n")


def _delete(src):
    os.remove(os.path.join(src, "include/nft_fixture.h"))


def _untracked(src):
    os.makedirs(os.path.join(src, "scratch", "deep"))
    with open(os.path.join(src, "scratch", "deep", "new.c"), "w") as fh:
        fh.write("int added;\n")


def _ignored(src):
    os.makedirs(os.path.join(src, ".git", "info"), exist_ok=True)
    with open(os.path.join(src, ".git", "info", "exclude"), "w") as fh:
        fh.write("*.o\n")
    with open(os.path.join(src, "net", "built.o"), "w") as fh:
        fh.write("object\n")


def _staged_only(src):
    """A change in the index alone: the work tree matches HEAD again."""
    path = os.path.join(src, "net/netfilter/nf_tables_api.c")
    original = Path(path).read_bytes()
    Path(path).write_bytes(original + b"int staged;\n")
    _git_out(src, "add", "net/netfilter/nf_tables_api.c")
    Path(path).write_bytes(original)


def _other_head(fix):
    return lambda src: _git_out(src, "checkout", "--quiet", fix)


@pytest.mark.parametrize("deviation", [
    "edited", "deleted", "untracked", "ignored", "staged_only", "other_head"])
def test_each_deviation_is_reset_to_a_fresh_clone(kernel_repo, tmp_path,
                                                  monkeypatch, deviation):
    task = envprep.resolve_task(kernel_repo["repo"], kernel_repo["fix"])
    env = envprep.prepare_environment(task, _fixture_builder(),
                                      str(tmp_path / "env"))
    {"edited": _edit, "deleted": _delete, "untracked": _untracked,
     "ignored": _ignored, "staged_only": _staged_only,
     "other_head": _other_head(kernel_repo["fix"])}[deviation](
        env.source_root)
    commands = _git_commands(monkeypatch)
    again = envprep.prepare_environment(task, _fixture_builder(),
                                        str(tmp_path / "env"))
    assert commands == ["status", "reset", "clean"]
    assert _prep_log(again)[0] == \
        "reset checkout to %s" % task.parent_commit_id
    assert _git_out(again.source_root, "status", "--porcelain", "--ignored",
                    "--untracked-files=all") == ""
    assert _git_out(again.source_root, "rev-parse", "HEAD").strip() == \
        task.parent_commit_id
    fresh = _fresh_checkout(kernel_repo["repo"], task.parent_commit_id,
                            str(tmp_path / "fresh"))
    assert _tree_bytes(again.source_root) == _tree_bytes(fresh)


def test_an_empty_untracked_directory_survives_a_verified_checkout(
        kernel_repo, tmp_path):
    """Git sees no empty directory, so the verify step keeps one."""
    task = envprep.resolve_task(kernel_repo["repo"], kernel_repo["fix"])
    env = envprep.prepare_environment(task, _fixture_builder(),
                                      str(tmp_path / "env"))
    os.mkdir(os.path.join(env.source_root, "empty"))
    again = envprep.prepare_environment(task, _fixture_builder(),
                                        str(tmp_path / "env"))
    assert _prep_log(again)[0].startswith("checkout verified at ")
    assert os.path.isdir(os.path.join(again.source_root, "empty"))


def _hook_template(tmp_path):
    """A git template whose post-checkout hook leaves a marker file."""
    marker = tmp_path / "hook_ran"
    hooks = tmp_path / "template" / "hooks"
    hooks.mkdir(parents=True)
    hook = hooks / "post-checkout"
    hook.write_text("#!/bin/sh\ntouch '%s'\n" % marker)
    hook.chmod(0o755)
    return str(tmp_path / "template"), marker


@pytest.mark.parametrize("source", ["GIT_TEMPLATE_DIR", "init.templateDir"])
def test_a_host_template_hook_does_not_run_in_the_checkout(
        kernel_repo, tmp_path, monkeypatch, source):
    template, marker = _hook_template(tmp_path)
    if source == "GIT_TEMPLATE_DIR":
        monkeypatch.setenv("GIT_TEMPLATE_DIR", template)
    else:
        config = tmp_path / "gitconfig"
        config.write_text("[init]\n\ttemplateDir = %s\n" % template)
        monkeypatch.setenv("GIT_CONFIG_GLOBAL", str(config))
    task = envprep.resolve_task(kernel_repo["repo"], kernel_repo["fix"])
    env = envprep.prepare_environment(task, _fixture_builder(),
                                      str(tmp_path / "env"))
    assert _git_out(env.source_root, "rev-parse", "HEAD").strip() == \
        task.parent_commit_id
    assert not marker.exists()
    assert not os.path.exists(os.path.join(env.source_root, ".git", "hooks",
                                           "post-checkout"))


@pytest.mark.parametrize("key", ["hooksPath", "fsmonitor"])
def test_a_host_config_program_does_not_run_in_the_checkout(
        kernel_repo, tmp_path, monkeypatch, key):
    """A hooks dir or a file-system monitor named by the host's git
    configuration runs neither at the resolve, the clone and checkout of a
    first preparation, nor at the status, reset and clean of a second."""
    template, marker = _hook_template(tmp_path)
    hook = os.path.join(template, "hooks", "post-checkout")
    config = tmp_path / "gitconfig"
    config.write_text("[core]\n\t%s = %s\n" % (
        key, os.path.dirname(hook) if key == "hooksPath" else hook))
    monkeypatch.setenv("GIT_CONFIG_GLOBAL", str(config))
    task = envprep.resolve_task(kernel_repo["repo"], kernel_repo["fix"])
    env = envprep.prepare_environment(task, _fixture_builder(),
                                      str(tmp_path / "env"))
    _spoil_checkout(env.source_root)
    again = envprep.prepare_environment(task, _fixture_builder(),
                                        str(tmp_path / "env"))
    assert _prep_log(again)[0] == \
        "reset checkout to %s" % task.parent_commit_id
    assert not marker.exists()


@pytest.mark.parametrize("prepared", [False, True],
                         ids=["first", "again"])
def test_a_host_git_dir_does_not_redirect_a_preparation(
        kernel_repo, tmp_path, monkeypatch, prepared):
    """``GIT_DIR``, ``GIT_WORK_TREE`` and ``GIT_INDEX_FILE`` naming another
    repository reach neither the resolve nor the clone and checkout of a
    first preparation nor the status, reset and clean of a second; that
    repository is left as it was."""
    decoy = tmp_path / "decoy"
    decoy.mkdir()
    _git(decoy, "init", "--quiet", "-b", "main")
    _git(decoy, "commit", "--quiet", "--allow-empty", "-m", "decoy")
    decoy_head = _git_out(str(decoy), "rev-parse", "HEAD")
    if prepared:
        task = envprep.resolve_task(kernel_repo["repo"], kernel_repo["fix"])
        env = envprep.prepare_environment(task, _fixture_builder(),
                                          str(tmp_path / "env"))
        _spoil_checkout(env.source_root)
    monkeypatch.setenv("GIT_DIR", str(decoy / ".git"))
    monkeypatch.setenv("GIT_WORK_TREE", str(decoy))
    monkeypatch.setenv("GIT_INDEX_FILE", str(decoy / ".git" / "index"))
    task = envprep.resolve_task(kernel_repo["repo"], kernel_repo["fix"])
    assert task.commit_id == kernel_repo["fix"]
    env = envprep.prepare_environment(task, _fixture_builder(),
                                      str(tmp_path / "env"))
    monkeypatch.undo()
    assert _prep_log(env)[0] == ("reset checkout to %s" if prepared
                                 else "checked out %s") % task.parent_commit_id
    assert _git_out(env.source_root, "rev-parse", "HEAD").strip() == \
        task.parent_commit_id
    assert _git_out(str(decoy), "rev-parse", "HEAD") == decoy_head
    assert _git_out(str(decoy), "status", "--porcelain") == ""


def _commit(repo, message, *files, allow_empty=False):
    """Commit ``files`` ((path, text) pairs) with ``message`` verbatim."""
    for path, text in files:
        Path(repo, path).write_text(text)
    _git(repo, "add", "-A")
    _git(repo, "commit", "--quiet", "--cleanup=verbatim",
         "--allow-empty-message", *(["--allow-empty"] if allow_empty else []),
         "-m", message)
    return _git_out(repo, "rev-parse", "HEAD").strip()


def _resolve_in_four_calls(repo, commit_id):
    """The fields ``resolve_task`` gave from four git calls: rev-parse,
    log %P, diff and log %B."""
    full = _git_out(repo, "rev-parse", "%s^{commit}" % commit_id).strip()
    parent, = _git_out(repo, "log", "-1", "--format=%P", full).split()
    return {"commit_id": full, "parent_commit_id": parent,
            "diff_text": _git_out(repo, "diff", parent, full),
            "commit_message": _git_out(repo, "log", "-1", "--format=%B",
                                       full).rstrip("\n")}


def _new_file(repo):
    Path(repo, "net", "extra.c").write_text("int extra;\n")


def _rename_with_edits(repo):
    _git(repo, "mv", "include/nft_fixture.h", "include/nft_chain.h")
    path = Path(repo, "include", "nft_chain.h")
    path.write_text(path.read_text().replace("int nft_chain_use",
                                             "long nft_chain_use"))


def _binary_file(repo):
    Path(repo, "firmware.bin").write_bytes(bytes(range(256)) * 4)


def _mode_change(repo):
    os.chmod(Path(repo, "net", "netfilter", "nf_tables_api.c"), 0o755)


_NEW = (_new_file, "new file mode 100644")


@pytest.mark.parametrize("message, change", [
    ("net: subject only", _NEW),
    ("net: fix the chain\n\nFirst paragraph,\nwrapped.\n\n"
     "Second paragraph.\n\nFixes: 0123456789ab (\"x\")\n\n\n\n", _NEW),
    ("", _NEW),
    ("0123456789abcdef0123456789abcdef01234567\n\nfirst line is an id\n",
     _NEW),
    ("net: rename the header",
     (_rename_with_edits, "rename from include/nft_fixture.h")),
    ("net: add firmware", (_binary_file, "Binary files /dev/null and")),
    ("net: make the source executable", (_mode_change, "old mode 100644")),
], ids=["subject", "paragraphs_trailing_blanks", "empty", "id_subject",
        "rename_with_edits", "binary_file", "mode_change"])
def test_resolve_task_gives_the_old_fields_in_two_calls(
        kernel_repo, monkeypatch, message, change):
    """One ``rev-parse`` and one ``log -p`` give the message, the parent and
    the patch that ``git diff <parent> <commit>`` gives."""
    repo = kernel_repo["repo"]
    make, marker = change
    make(repo)
    commit = _commit(repo, message)
    commands = _git_commands(monkeypatch)
    task = envprep.resolve_task(repo, commit[:12])
    assert commands == ["rev-parse", "log"]
    monkeypatch.undo()
    want = _resolve_in_four_calls(repo, commit[:12])
    assert {k: getattr(task, k) for k in want} == want
    assert task.commit_message == message.rstrip("\n")
    assert marker in task.diff_text
    fix = envprep.resolve_task(repo, kernel_repo["fix"])
    assert {k: getattr(fix, k) for k in want} == \
        _resolve_in_four_calls(repo, kernel_repo["fix"])


def test_an_empty_commit_is_refused_in_two_calls(kernel_repo, monkeypatch):
    empty = _commit(kernel_repo["repo"], "nothing", allow_empty=True)
    commands = _git_commands(monkeypatch)
    with pytest.raises(errors.EmptyDiff):
        envprep.resolve_task(kernel_repo["repo"], empty)
    assert commands == ["rev-parse", "log"]


def test_a_range_or_a_negation_is_no_commit(kernel_repo):
    repo, fix = kernel_repo["repo"], kernel_repo["fix"]
    for spec in ("%s~1..%s" % (fix, fix), "^" + fix, "--all", "-q"):
        with pytest.raises(errors.UnknownCommit):
            envprep.resolve_task(repo, spec)


def test_a_root_commit_is_rejected_and_an_empty_diff_refused(kernel_repo):
    repo = kernel_repo["repo"]
    root = _git_out(repo, "rev-list", "--max-parents=0", "HEAD").strip()
    with pytest.raises(errors.MergeCommitRejected, match="has 0 parents"):
        envprep.resolve_task(repo, root)
    with pytest.raises(errors.MergeCommitRejected, match="has 2 parents"):
        envprep.resolve_task(repo, kernel_repo["merge"])
    empty = _commit(repo, "nothing", allow_empty=True)
    with pytest.raises(errors.EmptyDiff):
        envprep.resolve_task(repo, empty)
