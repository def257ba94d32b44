"""Environment preparation: fix commit in, bootable snapshot out.

Resolves a fix commit into a task record (diff, parent, optional message,
sidecar attributes), checks out the tree at the parent commit, builds or
loads a guest image, smoke-tests boot, and captures the snapshot every run
starts from.  The whole pipeline is deterministic and never contacts the
network.
"""

import contextlib
import hashlib
import json
import os
import shutil
import subprocess
import time
from dataclasses import dataclass, field, asdict, replace
from typing import Dict, List, Optional, Tuple

from . import guestvm
from .errors import (
    BuildFailed,
    EmptyDiff,
    EnvBootFailed,
    MergeCommitRejected,
    UnknownCommit,
    UnknownProfile,
)
from .guestvm import SnapshotRef


@dataclass(frozen=True)
class CapabilityProfile:
    """One capability surface for the agent: every field is something the
    profile takes away from the baseline, or the prompt rule that says so."""
    id: str
    filtered_categories: Tuple[str, ...] = ()  # tool categories not offered
    minimal_guidance: bool = False  # workflow guidance cut to the goal
    withhold_commit_message: bool = False
    blocked_utilities: Tuple[str, ...] = ()  # binaries missing in the guest
    constraint: Optional[str] = None  # extra prompt rule


PROFILES: Dict[str, CapabilityProfile] = {p.id: p for p in (
    CapabilityProfile("baseline"),
    CapabilityProfile("degraded_prompt", minimal_guidance=True),
    CapabilityProfile(
        "no_utils", blocked_utilities=("nft", "tc", "ip"),
        constraint="Do not use subsystem-specific command-line utilities "
                   "(nft, tc, ip, ...); they are not available in the guest."),
    CapabilityProfile(
        "no_gdb", filtered_categories=("debugging",),
        constraint="Do not install or invoke a debugger or other interactive "
                   "debugging tools."),
    CapabilityProfile(
        "no_commit_message", withhold_commit_message=True,
        constraint="Do not retrieve or infer the commit message (e.g., via "
                   "git log)."),
)}

# "syzbot-like" build manifest: memory-error detector and debug symbols on,
# dynamic-probe facilities off.  The exact upstream fuzzing config is not
# public; this named approximation is ours.
SYZBOT_LIKE_MANIFEST = [
    "CONFIG_KASAN=y",
    "CONFIG_KASAN_INLINE=y",
    "CONFIG_DEBUG_INFO=y",
    "CONFIG_DEBUG_INFO_DWARF4=y",
    "CONFIG_KPROBES=n",
    "CONFIG_FTRACE=n",
    "CONFIG_FUNCTION_TRACER=n",
]

BOOT_DEADLINE_MOCK_S = 1.0


@dataclass
class PatchTask:
    case_id: str
    commit_id: str
    parent_commit_id: str
    diff_text: str
    commit_message: Optional[str] = None
    subsystem_label: Optional[str] = None
    vuln_type: Optional[str] = None  # UAF | DF | OOB | OTHER
    is_race: Optional[bool] = None
    commit_msg_level: Optional[int] = None  # 1 | 2 | 3
    submit_time: Optional[str] = None  # UTC ISO-8601
    repo_ref: Optional[str] = None

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "PatchTask":
        return cls(**json.loads(text))


@dataclass
class BuilderSpec:
    builder_id: str
    kind: str  # "fixture", the one kind: a mock-guest scenario
    parameters: Dict[str, str] = field(default_factory=dict)


@dataclass
class ReproEnvironment:
    env_id: str
    source_root: str
    guest_image_ref: str
    config_manifest: List[str]
    snapshot_ref: SnapshotRef
    builder_id: str
    prep_log: str
    content_digest: str
    env_dir: str

    @property
    def index_path(self) -> str:
        """Where sessions save the code index and later sessions with the
        same content digest load it."""
        return os.path.join(self.env_dir, "code_index.tsv")


def _git(repo, *args):
    proc = subprocess.run(["git", "-C", repo, *args],
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise UnknownCommit(proc.stderr.strip())
    return proc.stdout


def load_case_metadata(path) -> Dict[str, dict]:
    """Sidecar metadata: one record per case keyed by case_id."""
    with open(path, "r", encoding="utf-8") as fh:
        records = json.load(fh)
    if isinstance(records, list):
        return {r["case_id"]: r for r in records}
    return records


def resolve_task(repo_ref, commit_id,
                 metadata: Optional[dict] = None) -> PatchTask:
    """Turn a fix-commit id into a PatchTask.

    The parent is the commit's sole first parent; merge commits are rejected
    because "one commit prior" is ambiguous for them.  The task always
    carries the commit message; a profile that withholds it does so when the
    prompt is assembled.
    """
    full_id = _git(repo_ref, "rev-parse", "%s^{commit}" % commit_id).strip()
    parents = _git(repo_ref, "log", "-1", "--format=%P", full_id).split()
    if len(parents) != 1:
        raise MergeCommitRejected(
            "commit %s has %d parents" % (full_id, len(parents)))
    parent = parents[0]

    diff = _git(repo_ref, "diff", parent, full_id)
    if not diff.strip():
        raise EmptyDiff(full_id)

    message = _git(repo_ref, "log", "-1", "--format=%B", full_id).rstrip("\n")

    meta = dict(metadata or {})
    return PatchTask(
        case_id=meta.get("case_id", full_id[:12]),
        commit_id=full_id,
        parent_commit_id=parent,
        diff_text=diff,
        commit_message=message,
        subsystem_label=meta.get("subsystem"),
        vuln_type=meta.get("vuln_type"),
        is_race=meta.get("is_race"),
        commit_msg_level=meta.get("commit_msg_level"),
        submit_time=meta.get("submit_time"),
        repo_ref=os.path.abspath(repo_ref),
    )


def content_digest(commit_id, builder_id, config_manifest) -> str:
    blob = json.dumps([commit_id, builder_id, list(config_manifest)],
                      sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def _reset_checkout(dest: str, commit: str) -> bool:
    """Put an existing checkout back to exactly ``commit``: tracked files
    restored, untracked and ignored ones removed.  False when git fails."""
    # Name the repository outright: with a broken dest/.git, git would
    # otherwise search upwards and reset an enclosing repository.
    git = ["git", "--git-dir", os.path.join(dest, ".git"), "--work-tree", dest]
    for args in (["reset", "--hard", "--quiet", commit], ["clean", "-ffdxq"]):
        if subprocess.run(git + args, capture_output=True).returncode != 0:
            return False
    return True


def _checkout_parent(task: PatchTask, dest: str, log: List[str]):
    repo = task.repo_ref
    if repo is None or not os.path.isdir(repo):
        os.makedirs(dest, exist_ok=True)
        log.append("no repository reference; source_root left empty")
        return
    # Re-preparing the same environment resets its checkout in place, and
    # re-clones only when that fails.
    if (os.path.isdir(os.path.join(dest, ".git"))
            and _reset_checkout(dest, task.parent_commit_id)):
        log.append("reset checkout to %s" % task.parent_commit_id)
        return
    if os.path.isdir(dest) and os.listdir(dest):
        shutil.rmtree(dest)
    os.makedirs(dest, exist_ok=True)
    proc = subprocess.run(
        ["git", "clone", "--quiet", "--no-checkout", repo, dest],
        capture_output=True, text=True)
    if proc.returncode != 0:
        raise BuildFailed("clone failed", prep_log=proc.stderr)
    proc = subprocess.run(
        ["git", "-C", dest, "checkout", "--quiet", task.parent_commit_id],
        capture_output=True, text=True)
    if proc.returncode != 0:
        raise BuildFailed("parent checkout failed", prep_log=proc.stderr)
    log.append("checked out %s" % task.parent_commit_id)


def prepare_environment(task: PatchTask, builder: BuilderSpec,
                        workdir: str) -> ReproEnvironment:
    """Deterministically build the reproduction environment.

    The fixture builder snapshots a fresh mock guest of its scenario; a guest
    booted from it must pass the boot smoke test (answer ``echo ready``).
    """
    if builder.kind != "fixture":
        raise BuildFailed("unknown builder kind %r" % builder.kind)
    log: List[str] = []
    digest = content_digest(task.commit_id, builder.builder_id,
                            SYZBOT_LIKE_MANIFEST)
    env_id = "%s-%s" % (task.case_id, digest[:8])
    env_dir = os.path.join(workdir, env_id)
    os.makedirs(env_dir, exist_ok=True)
    source_root = builder.parameters.get(
        "source_root", os.path.join(env_dir, "source"))
    if "source_root" not in builder.parameters:
        _checkout_parent(task, source_root, log)

    scenario_path = os.path.abspath(builder.parameters["scenario"])
    snapshot = guestvm.create_snapshot({
        "scenario_path": scenario_path,
        "guest_state": guestvm.MockGuest(
            guestvm.GuestScenario.load(scenario_path)).state})
    handle = guestvm.restore_from_snapshot(snapshot)
    deadline = time.monotonic() + BOOT_DEADLINE_MOCK_S
    out = guestvm.exec_console(handle, "echo ready", timeout_s=1.0)
    if "ready" not in out.text or out.timed_out or time.monotonic() > deadline:
        raise EnvBootFailed("guest never answered the boot sentinel")
    log.append("boot smoke test passed")

    env = ReproEnvironment(
        env_id=env_id,
        source_root=source_root,
        guest_image_ref="mock:%s" % os.path.basename(scenario_path),
        config_manifest=list(SYZBOT_LIKE_MANIFEST),
        snapshot_ref=snapshot,
        builder_id=builder.builder_id,
        prep_log="\n".join(log),
        content_digest=digest,
        env_dir=env_dir,
    )
    if "source_root" in builder.parameters:
        # The digest pins only a tree checked out here: an index saved from
        # the builder's own tree at an earlier preparation may be stale.
        with contextlib.suppress(FileNotFoundError):
            os.remove(env.index_path)
    _write_env_dir(env_dir, task, env)
    return env


def _write_env_dir(env_dir, task, env):
    manifest = {
        "builder_id": env.builder_id,
        "config_manifest": env.config_manifest,
        "content_digest": env.content_digest,
        "guest_image_ref": env.guest_image_ref,
        "snapshot": {"snapshot_id": env.snapshot_ref.snapshot_id,
                     "state": env.snapshot_ref.state},
        "source_root": os.path.abspath(env.source_root),
    }
    for name, text in (
            ("task.json", task.to_json()),
            ("manifest.json", json.dumps(manifest, indent=2, sort_keys=True)),
            ("prep.log", env.prep_log + "\n")):
        with open(os.path.join(env_dir, name), "w", encoding="utf-8") as fh:
            fh.write(text)


def load_environment(env_dir) -> Tuple[PatchTask, ReproEnvironment]:
    """The task and environment that ``prepare_environment`` recorded in
    ``env_dir``; nothing is checked out, built or booted again."""
    def read(name):
        with open(os.path.join(env_dir, name), "r", encoding="utf-8") as fh:
            return fh.read()
    manifest = json.loads(read("manifest.json"))
    snap = manifest["snapshot"]
    env = ReproEnvironment(
        env_id=os.path.basename(os.path.normpath(env_dir)),
        source_root=manifest["source_root"],
        guest_image_ref=manifest["guest_image_ref"],
        config_manifest=manifest["config_manifest"],
        snapshot_ref=SnapshotRef(snap["snapshot_id"], snap["state"]),
        builder_id=manifest["builder_id"],
        prep_log=read("prep.log")[:-1],
        content_digest=manifest["content_digest"],
        env_dir=env_dir,
    )
    return PatchTask.from_json(read("task.json")), env


def apply_capability_profile(env: ReproEnvironment,
                             profile_id: str) -> ReproEnvironment:
    """``shape_guest_image`` for the profile named ``profile_id``; raises
    ``UnknownProfile`` for an id not in ``PROFILES``."""
    if profile_id not in PROFILES:
        raise UnknownProfile(profile_id)
    return shape_guest_image(env, PROFILES[profile_id])


def shape_guest_image(env: ReproEnvironment,
                      profile: CapabilityProfile) -> ReproEnvironment:
    """Make the profile's blocked utility binaries unavailable inside the
    guest.  A profile that blocks nothing acts only on the prompt and tool
    surface and gets ``env`` itself back."""
    if not profile.blocked_utilities:
        return env
    base = env.snapshot_ref.state
    snap = guestvm.create_snapshot(dict(base, guest_state=dict(
        base["guest_state"],
        blocked_utilities=sorted(profile.blocked_utilities))))
    return replace(env, guest_image_ref="%s+%s" % (env.guest_image_ref,
                                                   profile.id),
                   snapshot_ref=snap,
                   prep_log=env.prep_log + "\napplied profile " + profile.id)
