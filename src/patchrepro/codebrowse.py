"""Bounded, on-demand source inspection: symbol index, queries, snippets.

Indexing is lexical, not a C parse: definition patterns for functions,
struct/union/enum tags, macros, typedefs, and file-scope globals.  All
preprocessor branches are indexed.  Misses are acceptable because callers
can always fall back to line-range reads.

Every tool numbers lines by one rule: a line ends at "\\n" (files are read
with universal newlines, so "\\r\\n" or a lone "\\r" ends one too).  A form
feed, vertical tab or U+2028 stays inside its line, as it does for git and
gcc.

Reference queries read the index's store, a copy of the indexed files' bytes
taken when the index was built, not the files in the tree.
"""

import contextlib
import os
import re
import sys
import tempfile
import time
import weakref
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import islice, repeat
from typing import Dict, List, NamedTuple, Optional, Tuple

from .errors import FileNotIndexed, RootUnreadable, SnippetFileNotFound, StartBeyondEof

DEFAULT_MAX_LINES = 400
DEFAULT_QUERY_LIMIT = 200

# First field of a saved index's header line.  A file saved before indexes
# carried a store has three header fields, not four, and is refused.
_INDEX_FORMAT = "patchrepro-code-index/1"

# A reference scan reads the store in chunks of whole files, each about this
# many bytes; a larger file is a chunk of its own.
_SCAN_CHUNK = 1 << 20

_SOURCE_EXTS = (".c", ".h")

# Definition patterns, tried in order per line.  A function definition is an
# identifier followed by a parameter list whose body brace opens on the same
# or a following line; the brace check is handled by the indexer.
_RX_DEFINE = re.compile(r"^\s*#\s*define\s+([A-Za-z_]\w*)")
_RX_TAG = re.compile(r"^\s*(?:typedef\s+)?(struct|union|enum)\s+([A-Za-z_]\w*)\s*(\{|$)")
_RX_TYPEDEF = re.compile(r"^\s*typedef\s+.*?\b([A-Za-z_]\w*)\s*;\s*$")
# Return type (at least one token) then the defining identifier then "(";
# prototypes are excluded by the trailing-";" check in the indexer.
_RX_FUNC = re.compile(r"^[A-Za-z_][\w\s\*]*[\s\*]([A-Za-z_]\w*)\s*\(")
_RX_GLOBAL = re.compile(
    r"^(?:static\s+|const\s+|unsigned\s+|struct\s+\w+\s+|extern\s+)*"
    r"(?:\w[\w\s\*]*?)\b([A-Za-z_]\w*)\s*(=|\[[^\]]*\]\s*=|;)\s*")

_KEYWORDS = {
    "if", "else", "for", "while", "do", "switch", "return", "sizeof",
    "case", "default", "goto", "break", "continue", "typedef", "struct",
    "union", "enum", "static", "const", "extern", "inline", "void",
    "int", "char", "long", "short", "unsigned", "signed", "float", "double",
}

# A line can match one of the rules above only if, after leading whitespace,
# it starts with "#", "typedef", "struct", "union" or "enum", or if it starts
# with a word character in column 0.  Searched for in the file text with a
# "\n" in front, so each match starts at the "\n" before a candidate line
# (a literal first character lets the search skip ahead quickly).
_RX_CANDIDATE = re.compile(r"\n(?:[^\S\n]*(?:#|typedef|struct|union|enum)|\w)")

# Every byte but the two braces; brace bytes never occur inside a multibyte
# UTF-8 sequence.
_NOT_BRACES = bytes(sorted(set(range(256)) - set(b"{}")))
# Brace nesting deeper than this sends a file to the line-by-line indexer.
_NESTING_CHECKED = 64


class SymbolEntry(NamedTuple):
    name: str
    kind: str  # function | struct | union | enum | macro | typedef | global
    file: str  # relative path
    line: int  # 1-based, the defining line


@dataclass
class Snippet:
    file: str
    start: int
    end: int
    lines: List[str]
    truncated: bool


@dataclass
class CodeIndex:
    """Definitions by name and by file, and the store: the bytes of every
    indexed file, one after another in ``files`` order, from byte
    ``store_start`` of the file ``store_path``.  File ``i`` is bytes
    ``offsets[i]:offsets[i + 1]`` of the store."""
    root: str
    store_path: str
    store_start: int = 0
    entries: Dict[str, List[SymbolEntry]] = field(default_factory=dict)
    by_file: Dict[str, List[SymbolEntry]] = field(default_factory=dict)
    files: List[str] = field(default_factory=list)  # indexed, in walk order
    offsets: List[int] = field(default_factory=lambda: [0])
    build_time_ms: int = 0
    # Removes a store that ``build_index`` spooled, once no longer used.
    _spool: Optional[weakref.finalize] = field(default=None, repr=False,
                                               compare=False)

    @property
    def file_count(self) -> int:
        return len(self.files)

    def add_file(self, rel: str, entries: List[SymbolEntry], size: int):
        """Append an indexed file, the entries it defines, in line order,
        and its size in the store."""
        self.files.append(rel)
        self.offsets.append(self.offsets[-1] + size)
        if not entries:
            return
        self.by_file[rel] = entries
        add = self.entries.setdefault
        for entry in entries:
            add(entry.name, []).append(entry)


def _decode(raw: bytes) -> str:
    """File bytes as text read with universal newlines, invalid UTF-8
    replaced."""
    text = raw.decode("utf-8", errors="replace")
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def _read_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _read_text(path: str) -> str:
    return _decode(_read_bytes(path))


def _split_lines(text: str) -> List[str]:
    """Lines by the module's numbering rule; a final "\\n" ends the last
    line rather than starting an empty one."""
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines


def _resolve(root: str, file: str) -> str:
    """``file`` as a normalised path under ``root``; a path that leads
    outside the root, by "..", as an absolute path or through a symlink,
    is refused."""
    root = os.path.abspath(root)
    full = os.path.normpath(os.path.join(root, file))
    below = os.path.join(root, "")
    if full != root and not full.startswith(below):
        raise FileNotIndexed(file)
    # Only a symlink below the root can still lead out of it.  Resolving
    # every component of the path costs tens of microseconds per call, so
    # that is done only once a link is found.
    part = root
    for name in full[len(below):].split(os.sep):
        part = os.path.join(part, name)
        if os.path.islink(part):
            real_root = os.path.realpath(root)
            if os.path.commonpath([real_root, os.path.realpath(full)]) != real_root:
                raise FileNotIndexed(file)
            break
    return full


def _definition(line: str, at_top: bool) -> Optional[Tuple[str, str]]:
    """(name, kind) of the definition ``line`` opens, or None.  Only macros
    are found below brace depth 0, where ``at_top`` is false."""
    m = _RX_DEFINE.match(line)
    if m:
        return m.group(1), "macro"
    if not at_top:
        return None
    m = _RX_TAG.match(line)
    if m and (m.group(3) == "{" or "{" in line):
        return m.group(2), m.group(1)
    m = _RX_TYPEDEF.match(line)
    if m and m.group(1) not in _KEYWORDS:
        return m.group(1), "typedef"
    m = _RX_FUNC.match(line)
    if (m and m.group(1) not in _KEYWORDS
            and not line.rstrip().endswith(";")
            and "=" not in line.split("(")[0]):
        return m.group(1), "function"
    m = _RX_GLOBAL.match(line)
    if (m and m.group(1) not in _KEYWORDS
            and "(" not in line.split(m.group(1))[0]):
        return m.group(1), "global"
    return None


def _closes_early(raw: bytes) -> bool:
    """Whether some prefix of the file closes more braces than it opens.
    True also when braces nest too deep to tell in a few passes."""
    braces = raw.translate(None, _NOT_BRACES)
    for _ in range(_NESTING_CHECKED):
        inner = braces.replace(b"{}", b"")
        if len(inner) == len(braces):
            return braces.startswith(b"}")
        braces = inner
    return True


def _index_lines(rel: str, text: str) -> List[SymbolEntry]:
    """Every line through the rules, tracking brace depth line by line and
    clamping it at 0 after each line."""
    found = []
    depth = 0
    for lineno, line in enumerate(_split_lines(text), start=1):
        hit = _definition(line, depth == 0)
        if hit:
            found.append(SymbolEntry(hit[0], hit[1], rel, lineno))
        # Track nesting outside strings/comments well enough for fixtures.
        depth = max(depth + line.count("{") - line.count("}"), 0)
    return found


def _index_file(rel: str, raw: bytes, text: str) -> List[SymbolEntry]:
    """The definitions in one file, in line order.

    Only candidate lines (``_RX_CANDIDATE``) go through the rules; a line's
    number and brace depth are counted in the text since the previous
    candidate.  Those counts equal the line-by-line depth only while the
    clamp at 0 never fires, so a file where some prefix closes more braces
    than it opens is indexed line by line instead.
    """
    if _closes_early(raw):
        return _index_lines(rel, text)
    found = []
    count, find = text.count, text.find
    lineno, depth, pos = 1, 0, 0
    for m in _RX_CANDIDATE.finditer("\n" + text):
        start = m.start()  # of the line in ``text``
        lineno += count("\n", pos, start)
        depth += count("{", pos, start) - count("}", pos, start)
        pos = start
        end = find("\n", start)
        hit = _definition(text[start:end] if end >= 0 else text[start:],
                          depth == 0)
        if hit:
            found.append(SymbolEntry(hit[0], hit[1], rel, lineno))
    return found


def _remove(path: str):
    with contextlib.suppress(FileNotFoundError):
        os.remove(path)


def build_index(source_root: str) -> CodeIndex:
    """Walk the tree and index every definition-pattern match.

    Deterministic for a fixed tree: files are visited in sorted order, and
    that order is kept in ``files``.  The bytes read are spooled to a
    temporary file, the index's store, which is removed when the index is
    freed or saved.
    """
    if not os.path.isdir(source_root):
        raise RootUnreadable(source_root)
    started = time.monotonic()
    fd, spool = tempfile.mkstemp(prefix="patchrepro-store-")
    index = CodeIndex(root=os.path.abspath(source_root), store_path=spool)
    index._spool = weakref.finalize(index, _remove, spool)
    with open(fd, "wb") as store:
        for dirpath, dirnames, filenames in os.walk(source_root):
            dirnames.sort()
            if ".git" in dirnames:
                dirnames.remove(".git")
            for fname in sorted(filenames):
                if not fname.endswith(_SOURCE_EXTS):
                    continue
                full = os.path.join(dirpath, fname)
                rel = os.path.relpath(full, source_root)
                try:
                    # A link out of the tree is not source; indexing it
                    # would leak its text through reference hits.
                    if os.path.islink(full):
                        _resolve(source_root, rel)
                    raw = _read_bytes(full)
                except (OSError, FileNotIndexed):
                    continue
                store.write(raw)
                index.add_file(rel, _index_file(rel, raw, _decode(raw)),
                               len(raw))
    index.build_time_ms = int((time.monotonic() - started) * 1000)
    return index


def list_symbols(index: CodeIndex, file: str) -> List[SymbolEntry]:
    """Symbols defined in one indexed file, sorted by line."""
    full = _resolve(index.root, file)
    if not os.path.exists(full):
        raise FileNotIndexed(file)
    return sorted(index.by_file.get(os.path.relpath(full, index.root), []),
                  key=lambda e: e.line)


def query_symbol(index: CodeIndex, name: str, mode: str = "definitions",
                 limit: int = DEFAULT_QUERY_LIMIT) -> Tuple[List[dict], bool]:
    """Global definition or whole-word reference lookup, capped at ``limit``.

    References are found in the index's store, not by a new tree walk.
    """
    if limit < 1:
        raise ValueError("limit must be >= 1")
    if mode == "definitions":
        hits = [{"file": e.file, "line": e.line, "kind": e.kind}
                for e in index.entries.get(name, [])]
        return hits[:limit], len(hits) > limit
    if mode != "references":
        raise ValueError("mode must be definitions or references")

    if "\n" in name or "\r" in name:
        return [], False  # no line holds a line break
    # Every whole-word hit contains the name, so only files whose bytes
    # contain the longest part of it between U+FFFDs (which decoding also
    # makes of invalid UTF-8) are decoded and scanned line by line.
    try:
        needle = max(name.split("\ufffd"), key=len).encode("utf-8")
    except UnicodeEncodeError:
        return [], False  # a lone surrogate, which decoded text never holds
    defining = {(e.file, e.line) for e in index.entries.get(name, [])}
    word = re.compile(r"\b%s\b" % re.escape(name))
    files, offsets = index.files, index.offsets
    hits = []
    with open(index.store_path, "rb") as store:
        for base, size, chunk in _store_chunks(index, store):
            find = chunk.find
            pos = 0
            while pos < size:
                at = find(needle, pos, size)
                if at < 0:
                    break
                i = bisect_right(offsets, base + at) - 1
                pos = offsets[i + 1] - base
                text = _decode(chunk[offsets[i] - base:pos])
                if name not in text:
                    continue
                rel = files[i]
                for lineno, line in enumerate(_split_lines(text), start=1):
                    if word.search(line) and (rel, lineno) not in defining:
                        if len(hits) >= limit:
                            return hits, True
                        hits.append({"file": rel, "line": lineno,
                                     "text": line})
    return hits, False


def _store_chunks(index: CodeIndex, store):
    """(store offset, size, buffer) of each chunk of whole files, in order,
    read from the open ``store`` file.  A chunk is the first ``size`` bytes
    of ``buffer``, which later chunks overwrite: reusing one buffer saves
    the page faults of a fresh one per chunk.  Raises ValueError when the
    store ends early."""
    offsets, last = index.offsets, len(index.files)
    # No bigger than a small store: a zero-filled buffer is resident memory.
    buffer = bytearray(min(_SCAN_CHUNK, offsets[-1]))
    store.seek(index.store_start)
    i = 0
    while i < last:
        j = max(bisect_right(offsets, offsets[i] + _SCAN_CHUNK) - 1, i + 1)
        size = offsets[j] - offsets[i]
        if size > len(buffer):
            buffer = bytearray(size)
        if store.readinto(memoryview(buffer)[:size]) != size:
            raise ValueError("%s is truncated" % index.store_path)
        yield offsets[i], size, buffer
        i = j


def read_range(source_root: str, file: str, start: int, end: int,
               max_lines: int = DEFAULT_MAX_LINES) -> Snippet:
    """Line-range snippet with true line-number prefixes and clamped bounds."""
    if start < 1:
        raise ValueError("start must be >= 1")
    full = _resolve(source_root, file)
    if not os.path.isfile(full):
        raise SnippetFileNotFound(file)
    all_lines = _split_lines(_read_text(full))
    if start > len(all_lines):
        raise StartBeyondEof("%s has %d lines" % (file, len(all_lines)))
    capped_end = min(end, len(all_lines), start + max_lines - 1)
    truncated = capped_end < min(end, len(all_lines))
    numbered = ["%d\t%s" % (n, all_lines[n - 1])
                for n in range(start, capped_end + 1)]
    return Snippet(file=file, start=start, end=capped_end,
                   lines=numbered, truncated=truncated)


def save_index(index: CodeIndex, path: str, digest: str = ""):
    """Persist in build order, streamed: a header line (format, ``digest``,
    file count, store size), then per indexed file a line
    ``file\\tcount\\tsize`` followed by ``count`` records
    ``name\\tkind\\tline``, then ``end``, all UTF-8, then the store's bytes.
    The file is written beside ``path`` and renamed over it only once
    complete; from then on the index reads its store from ``path``, and a
    store spooled by ``build_index`` is removed."""
    fd, tmp = tempfile.mkstemp(prefix=".index-", dir=os.path.dirname(path) or ".")
    try:
        with open(fd, "wb") as fh:
            offsets = index.offsets
            fh.write(("%s\t%s\t%d\t%d\n" % (_INDEX_FORMAT, digest,
                                           len(index.files), offsets[-1])
                      ).encode("utf-8"))
            for i, rel in enumerate(index.files):
                if "\t" in rel or "\n" in rel:
                    raise ValueError("cannot save file name %r" % rel)
                entries = index.by_file.get(rel, ())
                fh.write(("%s\t%d\t%d\n" % (rel, len(entries),
                                             offsets[i + 1] - offsets[i])
                          + "".join("%s\t%s\t%d\n" % (e.name, e.kind, e.line)
                                    for e in entries)).encode("utf-8"))
            fh.write(b"end\n")
            start = fh.tell()
            with open(index.store_path, "rb") as store:
                for _base, size, chunk in _store_chunks(index, store):
                    fh.write(memoryview(chunk)[:size])
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    index.store_path, index.store_start = os.path.abspath(path), start
    if index._spool is not None:
        index._spool()
        index._spool = None


def load_index(root: str, path: str, digest: str = "") -> CodeIndex:
    """An index saved by ``save_index`` under ``digest``, reading its store
    from ``path``; the store is not read here.  Raises ValueError for
    another format or digest, or a truncated file."""
    index = CodeIndex(root=os.path.abspath(root),
                      store_path=os.path.abspath(path))
    with open(path, "rb") as fh:
        head = fh.readline().decode("utf-8").rstrip("\n").split("\t")
        if head[:2] != [_INDEX_FORMAT, digest] or len(head) != 4:
            raise ValueError("%s is not a code index for digest %r"
                             % (path, digest))
        for _ in range(int(head[2])):
            rel, count, nbytes = fh.readline().decode("utf-8").split("\t")
            n = int(count)
            # The file's n records as one flat list of fields; the last
            # record ends in "\n", which leaves one empty field at the end.
            fields = b"".join(islice(fh, n)).decode("utf-8").replace(
                "\n", "\t").split("\t")
            if fields.pop() or len(fields) != 3 * n:
                raise ValueError("%s is truncated" % path)
            # tuple.__new__ builds the same SymbolEntry as the class call,
            # without running Python code per entry; interning keeps one
            # string per kind instead of one per entry.
            index.add_file(rel, list(map(
                tuple.__new__, repeat(SymbolEntry),
                zip(fields[0::3], map(sys.intern, fields[1::3]), repeat(rel),
                    map(int, fields[2::3])))), int(nbytes))
        if fh.readline() != b"end\n":
            raise ValueError("%s is truncated" % path)
        index.store_start = fh.tell()
        size = index.offsets[-1]
        if (size != int(head[3])
                or os.fstat(fh.fileno()).st_size != index.store_start + size):
            raise ValueError("%s is truncated" % path)
    return index


def cached_index(source_root: str, path: str, digest: str) -> CodeIndex:
    """The index saved at ``path`` for ``digest``; when that file is
    missing, unreadable, corrupt or for another digest, a fresh build,
    saved there for the next session with the same digest."""
    try:
        return load_index(source_root, path, digest)
    except (OSError, ValueError):
        pass
    index = build_index(source_root)
    try:
        save_index(index, path, digest)
    except (OSError, ValueError):
        pass  # not persisted; this session still has its index
    return index
