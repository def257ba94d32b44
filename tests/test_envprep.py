import json
import os

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
    src = open(os.path.join(env.source_root, "net/netfilter/nf_tables_api.c")).read()
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
