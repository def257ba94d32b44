import hashlib
import os
from types import SimpleNamespace

import pytest

from patchrepro import errors, guestvm, pocbuild
from tests.conftest import SCENARIOS

pytestmark = pytest.mark.usefixtures("build_store")

SOURCE = "int main(void) { return 0; }"

# The stand-in's default body: it lists poc.c and $reads as what it read
# and writes a 4-byte "binary".
LISTS = ('echo "poc: poc.c $reads" > "$dep"\n'
         '[ -z "$asdep" ] || echo "poc.o: poc.s" > "$asdep"\n')
BUILDS = LISTS + 'printf stub > "$out"\n'


def _stand_in(directory, monkeypatch, body=BUILDS, reads=""):
    """A ``gcc`` leading PATH.  Its ``-E -v`` names ``directory/include``
    as its one system include dir; each other run adds a line to
    ``directory/runs`` and runs ``body``, which sees the ``-o``, ``-MF``
    and ``-Wa,--MD,`` files as ``$out``, ``$dep`` and ``$asdep``, ``$S``
    set for ``-S``, and ``reads``.  Returns a function giving the run
    count."""
    directory.mkdir(exist_ok=True)
    (directory / "include").mkdir(exist_ok=True)
    runs = directory / "runs"
    script = directory / "gcc"
    script.write_text(
        '#!/bin/sh\n'
        'if [ "$1" = -E ]; then\n'
        '  printf "#include <...> search starts here:\\n %s\\n'
        'End of search list.\\n" >&2\n'
        '  exit 0\n'
        'fi\n'
        'echo run >> "%s"\n'
        "reads='%s'\n"
        'for arg; do\n'
        '  case $prev in -o) out=$arg;; -MF) dep=$arg;; esac\n'
        '  case $arg in -Wa,--MD,*) asdep=${arg#-Wa,--MD,};; -S) S=1;; esac\n'
        '  prev=$arg\n'
        'done\n' % (directory / "include", runs, reads) + body)
    script.chmod(0o755)
    monkeypatch.setenv("PATH", "%s%s%s" % (directory, os.pathsep,
                                           os.environ["PATH"]))
    return lambda: len(runs.read_text().splitlines()) if runs.exists() else 0


def _env():
    path = os.path.join(SCENARIOS, "crash_uaf.json")
    state = guestvm.MockGuest(guestvm.GuestScenario.load(path)).state
    return SimpleNamespace(snapshot_ref=guestvm.create_snapshot(
        {"scenario_path": path, "guest_state": state}))


def test_a_built_source_is_not_compiled_again(tmp_path, monkeypatch):
    runs = _stand_in(tmp_path, monkeypatch)
    first = pocbuild.build_poc(SOURCE)
    assert pocbuild.build_poc(SOURCE) is first
    assert runs() == 1 and first.binary == b"stub" and first.reads == ()


def test_a_hit_is_the_fresh_build(build_store):
    """With the host's compiler, a stored build and a fresh build of the
    same source give the same binary, log and compiler id."""
    source = '#include <stdio.h>\nint main(void) { return puts("x"); }\n'
    first = pocbuild.build_poc(source)
    assert pocbuild.build_poc(source) is first
    build_store.clear()
    fresh = pocbuild.build_poc(source)
    assert fresh is not first
    assert (fresh.binary, fresh.compile_log, fresh.compiler_id) == (
        first.binary, first.compile_log, first.compiler_id)
    assert fresh.reads == first.reads
    assert any(path.endswith("/stdio.h") for path, _sha in first.reads)
    assert all(sha is not None for _path, sha in first.reads)


def test_a_changed_or_deleted_header_is_built_again(tmp_path, monkeypatch):
    header = tmp_path / "include" / "toy.h"
    runs = _stand_in(tmp_path, monkeypatch, reads=str(header))
    header.write_text("int toy;\n")
    env = _env()
    for _session in (1, 2):
        h = guestvm.start_guest(env)
        guestvm.compile_and_upload(h, SOURCE, "/tmp/poc")
    assert runs() == 1
    build = pocbuild.build_poc(SOURCE)
    assert build.reads == ((os.path.realpath(header),
                            hashlib.sha256(b"int toy;\n").hexdigest()),)
    header.write_text("int toy2;\n")
    for expected in (2, 2):  # the same session: rebuilt once, then stored
        guestvm.compile_and_upload(h, SOURCE, "/tmp/poc")
        assert runs() == expected
    header.unlink()
    for expected in (3, 4):  # a header gone at the build's end: not stored
        guestvm.compile_and_upload(h, SOURCE, "/tmp/poc")
        assert runs() == expected


@pytest.mark.parametrize("refused", [True, False], ids=["refused", "failed"])
def test_a_refused_or_failed_build_is_never_stored(tmp_path, monkeypatch,
                                                   build_store, refused):
    if refused:  # a build that read a file outside the include dir
        runs = _stand_in(tmp_path, monkeypatch, reads=str(tmp_path / "host.h"))
    else:
        runs = _stand_in(tmp_path, monkeypatch, body=LISTS + "exit 1\n")
    error = errors.HostPathRefused if refused else errors.CompileFailed
    for attempt in (1, 2):
        with pytest.raises(error):
            pocbuild.build_poc(SOURCE)
        assert runs() == attempt
    assert not build_store


@pytest.mark.parametrize("macro", ["__DATE__", "__TIME__", "__TIMESTAMP__"])
def test_a_source_naming_the_clock_is_built_on_every_call(tmp_path,
                                                         monkeypatch,
                                                         build_store, macro):
    runs = _stand_in(tmp_path, monkeypatch)
    source = "const char *when = %s;\n%s" % (macro, SOURCE)
    pocbuild.build_poc(source)
    pocbuild.build_poc(source)
    assert runs() == 2 and not build_store


def test_the_least_recently_used_build_is_dropped(tmp_path, monkeypatch,
                                                  build_store):
    runs = _stand_in(tmp_path, monkeypatch)
    sources = ["int v%d;\n%s" % (i, SOURCE)
               for i in range(pocbuild.STORE_MAX_BUILDS + 1)]
    for source in sources[:-1]:
        pocbuild.build_poc(source)
    pocbuild.build_poc(sources[0])  # now the most recently used
    assert runs() == pocbuild.STORE_MAX_BUILDS
    pocbuild.build_poc(sources[-1])  # one more than the store holds
    assert len(build_store) == pocbuild.STORE_MAX_BUILDS
    pocbuild.build_poc(sources[0])
    assert runs() == pocbuild.STORE_MAX_BUILDS + 1
    pocbuild.build_poc(sources[1])
    assert runs() == pocbuild.STORE_MAX_BUILDS + 2


@pytest.mark.parametrize("body,kind,log", [
    ("sleep 30\n", "timeout", False),
    (LISTS + 'echo "poc.c:1:1: error: no" >&2\nexit 1\n', "compile", True),
    ('[ -z "$S" ] || { echo "poc.s: poc.c" > "$dep"; exit 0; }\nexit 1\n',
     "assembly", False),
    ("exit 1\n", "unlisted", False)],
    ids=["timeout", "compile", "assembly", "unlisted"])
def test_a_failed_build_says_what_failed(tmp_path, monkeypatch, body, kind,
                                         log):
    _stand_in(tmp_path, monkeypatch, body=body)
    monkeypatch.setattr(pocbuild, "COMPILE_TIMEOUT_S", 0.5)
    with pytest.raises(errors.CompileFailed) as ei:
        pocbuild.build_poc(SOURCE)
    assert ei.value.kind == ei.value.data["kind"] == kind
    assert ("compile_log" in ei.value.data) == log
