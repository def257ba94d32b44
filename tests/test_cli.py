import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from patchrepro import cli
from tests.conftest import MODELS, SCENARIOS


def _run_cli(kernel_repo, tmp_path, script="success.json", profile="baseline",
             subdir="run", scenario="crash_uaf.json"):
    out = str(tmp_path / subdir)
    code = cli.main([
        "run",
        "--commit", kernel_repo["fix"],
        "--repo", kernel_repo["repo"],
        "--profile", profile,
        "--model", "scripted:%s" % os.path.join(MODELS, script),
        "--budget-hours", "0.1",
        "--out", out,
        "--scenario", os.path.join(SCENARIOS, scenario),
        "--workdir", str(tmp_path / "envs"),
        "--case-id", os.path.basename(out),
        "--price-in", "2", "--price-out", "8",
    ])
    return code, out


def test_importing_the_cli_leaves_scipy_out():
    """Only analyze's CMH test uses scipy, so ``run`` and ``serve-tools``
    do not pay for importing it."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    code = ("import sys, patchrepro.cli; "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout == "[]\n"


def test_run_success(kernel_repo, tmp_path, capsys):
    code, out = _run_cli(kernel_repo, tmp_path)
    assert code == 0
    stdout = capsys.readouterr().out
    assert "success=True" in stdout
    v = json.loads(Path(out, "verdict.json").read_text())
    assert v["success"] and v["crash"]["class"] == "UAF"


def test_run_cheat_fails(kernel_repo, tmp_path):
    code, out = _run_cli(kernel_repo, tmp_path, script="cheat.json",
                         subdir="cheat")
    assert code == 1
    v = json.loads(Path(out, "verdict.json").read_text())
    assert v["reason"] == "cheat"


def test_run_rejects_external_model(kernel_repo, tmp_path):
    with pytest.raises(SystemExit):
        cli.main(["run", "--commit", kernel_repo["fix"],
                  "--repo", kernel_repo["repo"],
                  "--model", "external:http://localhost:1",
                  "--out", str(tmp_path / "x"),
                  "--scenario", os.path.join(SCENARIOS, "crash_uaf.json"),
                  "--workdir", str(tmp_path / "envs")])


def test_analyze_tsv_and_json(kernel_repo, tmp_path, capsys):
    runs = tmp_path / "runs"
    runs.mkdir()
    for i, (script, scenario) in enumerate(
            [("success.json", "crash_uaf.json"),
             ("no_crash.json", "no_crash.json")]):
        _run_cli(kernel_repo, tmp_path, script=script, scenario=scenario,
                 subdir=os.path.join("runs", "case-%d" % i))
    meta = {
        "case-0": {"case_id": "case-0", "subsystem": "net", "is_race": False,
                   "vuln_type": "UAF", "submit_time": "2024-05-01"},
        "case-1": {"case_id": "case-1", "subsystem": "bpf", "is_race": True,
                   "vuln_type": "OOB", "submit_time": "2024-11-01"},
    }
    meta_path = tmp_path / "meta.json"
    meta_path.write_text(json.dumps(meta))
    capsys.readouterr()

    code = cli.main(["analyze", str(runs), "--metadata", str(meta_path),
                     "--tables", "overall,subsystem,cutoff,race",
                     "--cutoff-date", "2024-09-30", "--format", "json"])
    assert code == 0
    tables = json.loads(capsys.readouterr().out)
    assert tables["overall"][0]["n"] == 2
    assert tables["overall"][0]["successes"] == 1
    assert set(t["subsystem"] for t in tables["subsystem"]) == {"net", "bpf"}
    assert tables["cutoff"]["a"] == 1 and tables["cutoff"]["c"] == 0

    code = cli.main(["analyze", str(runs), "--metadata", str(meta_path),
                     "--tables", "overall", "--format", "tsv"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("## overall")
    assert "n=2" in out


def test_analyze_convergence_over_runs_dirs(tmp_path, capsys):
    """One verdict set per runs dir in command-line order; a case dir
    without a verdict and a runs dir with none are left out."""
    outcomes = {"first": {"case-0": True, "case-1": False, "case-2": False},
                "second": {"case-0": False, "case-1": True, "case-2": False}}
    for runs, verdicts in outcomes.items():
        for case_id, success in verdicts.items():
            case_dir = tmp_path / runs / case_id
            case_dir.mkdir(parents=True)
            (case_dir / "verdict.json").write_text(json.dumps(
                {"case_id": case_id, "success": success}))
    (tmp_path / "first" / "notes").mkdir()
    (tmp_path / "empty").mkdir()
    capsys.readouterr()

    curves = []
    for order in (("first", "second", "empty"), ("empty", "second", "first")):
        code = cli.main(["analyze", *(str(tmp_path / d) for d in order),
                         "--tables", "convergence", "--format", "json"])
        assert code == 0
        curves.append(json.loads(capsys.readouterr().out))
    assert curves == [{"convergence": [1, 2]}, {"convergence": [1, 2]}]


@pytest.mark.parametrize("tables", ["overall,convergnce", "overall,"])
def test_analyze_rejects_an_unknown_table(tmp_path, capsys, tables):
    with pytest.raises(SystemExit) as info:
        cli.main(["analyze", str(tmp_path), "--tables", tables])
    assert info.value.code != 0
    err = capsys.readouterr().err
    assert "unknown table" in err
    assert "overall,subsystem,race,type,cutoff,commitmsg,convergence" in err


@pytest.mark.parametrize("profile, nft_answer", [
    ("baseline", "table inet filter"),
    ("no_utils", "sh: nft: command not found"),
])
def test_serve_tools_on_a_run_env_dir(kernel_repo, tmp_path, capsys,
                                      monkeypatch, profile, nft_answer):
    _run_cli(kernel_repo, tmp_path)
    envs = tmp_path / "envs"
    (env_dir,) = envs.iterdir()
    before = sorted(p.name for p in env_dir.iterdir())
    requests = [
        {"jsonrpc": "2.0", "id": 1, "method": "tools/list"},
        {"jsonrpc": "2.0", "id": 2, "method": "tools/call",
         "params": {"name": "vm.start", "arguments": {}}},
        {"jsonrpc": "2.0", "id": 3, "method": "tools/call",
         "params": {"name": "vm.exec",
                    "arguments": {"command": "nft list ruleset"}}},
    ]
    monkeypatch.setattr(sys, "stdin", io.StringIO(
        "".join(json.dumps(r) + "\n" for r in requests)))
    capsys.readouterr()

    code = cli.main(["serve-tools", "--env", str(env_dir),
                     "--profile", profile])
    assert code == 0
    listed, started, ran = [json.loads(line) for line in
                            capsys.readouterr().out.splitlines()]
    assert "vm.exec" in {t["name"] for t in listed["result"]["tools"]}
    assert started["result"]["guest_id"]
    assert ran["result"]["text"].startswith(nft_answer)
    # The env dir is loaded, not prepared again inside itself.
    assert sorted(p.name for p in env_dir.iterdir()) == before
    assert [p.name for p in envs.iterdir()] == [env_dir.name]
