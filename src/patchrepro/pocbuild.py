"""The host build of PoC sources, with one build store per process.

``build_poc`` compiles C source on the host into a ``PocBuild``.  A build
is keyed by its ``digest``, the sha256 of the resolved compiler path,
``COMPILE_FLAGS`` and the source, and the process keeps its successful
builds by that key, so a source built once, in any session, is not
compiled again.  Each build records in ``reads`` the real path and sha256
of every file the compiler and the assembler listed outside the build dir
(the host headers), and a stored build is used again only while each of
those files still has that sha256: a header that changed or is gone,
mid-session too, makes the next call build afresh and replace the entry.
This is ccache's direct mode (https://ccache.dev/manual/latest.html, "The
direct mode"), kept in memory.

What the store holds:

* only a build that succeeded and passed the host-read check; a refused,
  failed or timed-out build is never stored, so it is built again the
  next time;
* no build of a source that names ``__DATE__``, ``__TIME__`` or
  ``__TIMESTAMP__``, since a fresh build of it gives other bytes (a
  header that names them is not checked);
* at most ``STORE_MAX_BUILDS`` builds, the least recently used dropped
  first.

Limits: the link inputs (crt files, libc) and the toolchain binaries are
not hashed, so a toolchain upgraded in place behind the same compiler path
is not seen; nor is a header changed while the build that read it runs.
A hit hashes again only the files the stored build read, so a file that
did not exist then is not seen either: a header created later in a dir
earlier on the include search path (``/usr/local/include`` before
``/usr/include``), which would shadow the one read, or a file that a
``__has_include`` probe would now find.  The store lives as long as the
process, as the compiler facts do, so only sessions run in one process
share it: ``patchrepro run`` and ``serve-tools`` run one session each,
and there a hit is a source that the same session built before.  A store
on disk would have to pin the compiler's and binutils' identity across
processes, and there is none.

A build that read a file outside the build dir and the compiler's system
include dirs raises ``HostPathRefused`` with no log, as the log of an
``#include`` or ``.include`` quotes the file; no diagnostic quotes a
source line.
"""

import collections
import hashlib
import json
import os
import re
import shutil
import signal
import subprocess
import tempfile
import time
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Tuple

from .errors import CompileFailed, HostPathRefused

# The longest a PoC compile may take, in seconds of wall-clock time.
COMPILE_TIMEOUT_S = 60.0
# The most of a compiler's log a build keeps, in characters.
COMPILE_LOG_MAX_CHARS = 8192
# Passed before ``-o``; they are part of a build's key.  To draw a caret
# under a diagnostic, gcc reads the source line from the file a ``#line``
# directive names, which no dependency list shows, so no caret is drawn.
COMPILE_FLAGS = ("-O1", "-fno-diagnostics-show-caret")
# The most builds the process keeps.
STORE_MAX_BUILDS = 128
# A source naming one of these builds to other bytes each time.
_CLOCK_MACROS = ("__DATE__", "__TIME__", "__TIMESTAMP__")


@dataclass(frozen=True)
class PocBuild:
    """One successful PoC compile: the binary's bytes, the compiler's log,
    the compiler that ran (see ``_CompilerFacts``), the build's ``digest``
    and ``reads``, the ``(real path, sha256)`` of each host file it read,
    sorted by path; the sha256 is None for a file gone by the time the
    build ended."""

    digest: str
    binary: bytes
    compile_log: str
    compiler_id: str
    reads: Tuple[Tuple[str, Optional[str]], ...] = ()


# Successful builds by digest, the least recently used first.
_STORE: "collections.OrderedDict[str, PocBuild]" = collections.OrderedDict()


def _run_compiler(argv: List[str], work_dir: str,
                  deadline: float) -> Tuple[int, str]:
    """Run one compiler command in ``work_dir``, which also holds its
    temporary files, until ``deadline`` (a ``time.monotonic`` reading);
    its return code and its log (stderr).

    The compiler reads nothing from stdin, which under serve-tools is the
    JSON-RPC stream, and runs in a process group of its own, so a timeout
    ends cc1 and as along with the driver."""
    with subprocess.Popen(argv, cwd=work_dir,
                          env=dict(os.environ, TMPDIR=work_dir),
                          stdin=subprocess.DEVNULL,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, start_new_session=True) as proc:
        try:
            log = proc.communicate(
                timeout=max(0.0, deadline - time.monotonic()))[1]
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise CompileFailed("compilation timed out after %g s"
                                % COMPILE_TIMEOUT_S, kind="timeout")
    return proc.returncode, log


class _CompilerFacts(NamedTuple):
    """What ``cc -E -v`` tells of a compiler: the real paths of its
    ``#include <...>`` search list (empty if it prints none), and its id,
    the resolved compiler path then the ``gcc version`` and ``Target:``
    lines of the log, "; "-separated."""

    include_dirs: Tuple[str, ...]
    compiler_id: str


# The facts of each compiler path that has run ``cc -E -v`` in this process.
_COMPILER_FACTS: Dict[str, _CompilerFacts] = {}


def _compiler_facts(cc: str) -> _CompilerFacts:
    """``cc``'s facts: they belong to the compiler, not to a build, so the
    process runs ``cc -E -v`` once per compiler path."""
    if cc not in _COMPILER_FACTS:
        code, log = _run_compiler(
            [cc, "-E", "-v", "-x", "c", os.devnull, "-o", os.devnull],
            tempfile.gettempdir(), time.monotonic() + COMPILE_TIMEOUT_S)
        search = re.search(r"^#include <\.\.\.> search starts here:\n(.*?)"
                           r"^End of search list\.", log, re.M | re.S)
        _COMPILER_FACTS[cc] = _CompilerFacts(
            () if code != 0 or search is None else tuple(
                os.path.realpath(line.strip())
                for line in search[1].splitlines()),
            "; ".join([cc] + [line.strip() for line in re.findall(
                r"^(?:gcc version |Target: ).*", log, re.M)]))
    return _COMPILER_FACTS[cc]


def _listed_reads(path: str) -> Optional[List[str]]:
    """The files named in the make rule that ``gcc -MD`` or ``as --MD``
    wrote at ``path`` (a backslash escapes the next character, and ends a
    line that goes on), or None if none was written."""
    try:
        with open(path, encoding="utf-8", errors="surrogateescape") as fh:
            rule = fh.read().replace("\\\n", " ")
    except FileNotFoundError:
        return None
    return [re.sub(r"\\(.)", r"\1", name.replace("$$", "$"))
            for name in re.findall(r"(?:\\.|[^\s\\])+",
                                   rule.partition(": ")[2])]


def _host_reads(cc: str, build_dir: str, reads: List[str]) -> List[str]:
    """The real paths, sorted and unique, of the files among ``reads``
    that lie outside ``build_dir``; raise ``HostPathRefused`` unless each
    of them lies under one of ``cc``'s system include dirs."""
    def within(path, dirs):
        return any(path == d or path.startswith(d.rstrip(os.sep) + os.sep)
                   for d in dirs)

    build_real = os.path.realpath(build_dir)
    host = set()
    for name in reads:
        real = os.path.realpath(os.path.join(build_real, name))
        if within(real, (build_real,)):
            continue
        if not within(real, _compiler_facts(cc).include_dirs):
            raise HostPathRefused(
                "the PoC build reads %s, outside the system include dirs"
                % name.replace(build_dir + os.sep, ""))
        host.add(real)
    return sorted(host)


def _sha256(path: str) -> Optional[str]:
    """The sha256 of the file at ``path``, or None if it cannot be read."""
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except OSError:
        return None


def build_poc(source_text: str) -> PocBuild:
    """The build of ``source_text``: the stored one while every file it
    read is unchanged, else a fresh one (see the module docstring).

    The compiler (``-MD``) and the assembler (``--MD``) list every file
    they read.  GNU as lists its reads only when it succeeds, so a failed
    assembly shows no log.  A ``__has_include`` probe reads no file
    content and is not listed.  The log is capped at
    ``COMPILE_LOG_MAX_CHARS``, and all the compiler runs of a build share
    one ``COMPILE_TIMEOUT_S``.  A ``CompileFailed`` says in its ``kind``
    what failed: ``timeout``, ``compile``, ``assembly`` or ``unlisted``
    (the compiler did not list its reads, so no log is shown).
    """
    cc = shutil.which("gcc") or shutil.which("cc")
    if cc is None:
        raise CompileFailed("no host C compiler available")
    digest = hashlib.sha256(
        json.dumps([cc, *COMPILE_FLAGS, source_text]).encode()).hexdigest()
    stored = _STORE.pop(digest, None)
    if stored is not None and all(_sha256(path) == sha
                                  for path, sha in stored.reads):
        _STORE[digest] = stored
        return stored
    build = _compile(cc, digest, source_text)
    if not any(macro in source_text for macro in _CLOCK_MACROS) and all(
            sha is not None for _path, sha in build.reads):
        _STORE[digest] = build
        if len(_STORE) > STORE_MAX_BUILDS:
            _STORE.popitem(last=False)
    return build


def _compile(cc: str, digest: str, source_text: str) -> PocBuild:
    """A fresh build of ``source_text`` by ``cc`` in a temporary dir."""
    deadline = time.monotonic() + COMPILE_TIMEOUT_S
    with tempfile.TemporaryDirectory(prefix="pocbuild-") as tmp:
        with open(os.path.join(tmp, "poc.c"), "w", encoding="utf-8") as fh:
            fh.write(source_text)

        def run(*args):
            return _run_compiler([cc, *COMPILE_FLAGS, *args], tmp, deadline)

        def listed(name):
            return _listed_reads(os.path.join(tmp, name))

        code, log = run("-MD", "-MF", "poc.c.d", "-Wa,--MD,poc.s.d",
                        "-o", "poc", "poc.c")
        as_reads = listed("poc.s.d")
        if as_reads is None and code != 0:
            # cc1 or as failed, and as lists nothing when it fails.  Compiled
            # again to assembly only, a failure is cc1's, and its log is all.
            code_s, log = run("-S", "-MD", "-MF", "poc.c.d", "-o", "poc.s",
                              "poc.c")
            if code_s == 0:
                raise CompileFailed("assembly failed; the assembler lists no "
                                    "files it read, so no log is shown",
                                    kind="assembly")
            as_reads = []
        reads = listed("poc.c.d")
        if reads is None and code != 0:
            # A fatal preprocessor error (a missing header, say) lists
            # nothing; -MG lists what the source reads without stopping.
            run("-M", "-MG", "-MF", "poc.c.d", "poc.c")
            reads = listed("poc.c.d")
        if reads is None or as_reads is None:
            raise CompileFailed("compilation failed; the compiler did not "
                                "list the files it read, so no log is shown",
                                kind="unlisted")
        host = _host_reads(cc, tmp, reads + as_reads)
        log = log.replace(tmp + os.sep, "")
        if len(log) > COMPILE_LOG_MAX_CHARS:
            log = (log[:COMPILE_LOG_MAX_CHARS]
                   + "\n[log cut at %d characters]\n" % COMPILE_LOG_MAX_CHARS)
        if code != 0:
            raise CompileFailed("compilation failed", compile_log=log)
        with open(os.path.join(tmp, "poc"), "rb") as fh:
            binary = fh.read()
    # The id names the version only once a build has read a host header
    # (gcc reads one for every build): no compiler is run for the id alone.
    facts = _COMPILER_FACTS.get(cc)
    return PocBuild(digest=digest, binary=binary, compile_log=log,
                    compiler_id=facts.compiler_id if facts else cc,
                    reads=tuple((path, _sha256(path)) for path in host))
