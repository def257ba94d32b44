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
taken when the index was built, not the files in the tree.  A query reads
just the files that the index's word postings name for every ASCII word of
the name, and refuses a name that holds none.

The index is held as columns, one row per definition; a ``SymbolEntry`` is
made only for a row that a query returns.  Loading a saved index
(``patchrepro-code-index/4``) parses its header, splits the file names,
reads the definition names as one blob that ``_Names`` decodes a name of
when it is read, and reads each column into an array; nothing is done per
name or per posting.  A query checks the numbers it reads from the
postings, and a saved index that fails that check, or whose store is cut
short, raises ``CorruptIndex``.
"""

import os
import re
import sys
import tempfile
import weakref
import zlib
from array import array
from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import accumulate, repeat
from typing import BinaryIO, Dict, List, NamedTuple, Optional, Tuple

from .errors import (FileNotIndexed, InvalidParams, RootUnreadable,
                     SnippetFileNotFound, StartBeyondEof)

DEFAULT_MAX_LINES = 400
DEFAULT_QUERY_LIMIT = 200

# First field of a saved index's header line.  A file in an older format
# (definition records as text lines, no word postings, or the file and
# definition names as one string) is refused.
_INDEX_FORMAT = "patchrepro-code-index/4"

# The array columns of a ``CodeIndex`` with their type codes, in the order a
# saved index holds them after its two strings and the definition names'
# offsets (``_Names.offsets``, "i").
_COLUMNS = (("kinds", "b"), ("lines", "i"), ("file_rows", "i"),
            ("name_keys", "Q"), ("by_path", "i"), ("offsets", "q"),
            ("words", "Q"))

# A word is a maximal run of ASCII word characters in a file's bytes: what
# split() returns once every other byte is made a space.  A reference query
# looks each word of its name up in the postings, which key a word by this
# 32-bit hash; two words that share one only add candidate files.  A
# definition lookup keys a name's UTF-8 bytes by the same hash.
_ASCII_WORD = re.compile(r"[A-Za-z0-9_]+")
_WORDS_ONLY = bytes(b if _ASCII_WORD.fullmatch(chr(b)) else 0x20
                    for b in range(256))
_word_hash = zlib.crc32
# The low half of a postings entry: a file number, or a row number.
_LOW_BITS = 0xFFFFFFFF

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


KINDS = ("function", "struct", "union", "enum", "macro", "typedef", "global")
_KIND_CODES = {kind: code for code, kind in enumerate(KINDS)}


class CorruptIndex(ValueError):
    """A loaded index whose postings name a file past its last, or whose
    store ends early: the saved file is spoiled, and a fresh build of the
    tree answers in its place."""


class _Names(Sequence):
    """Definition names as a read-only sequence over one UTF-8 ``blob``,
    each name followed by a NUL: name ``r`` is bytes
    ``offsets[r]:offsets[r + 1] - 1``, decoded each time it is read.  A
    load makes no string per name."""

    __slots__ = ("blob", "offsets")

    def __init__(self, blob: bytes, offsets: array):
        self.blob, self.offsets = blob, offsets

    @classmethod
    def pack(cls, names: List[str]) -> "_Names":
        """The names ``names``, in that order, as one blob.  No object per
        name is kept while the blob is made."""
        blob = ("\0".join(names) + "\0").encode(
            "utf-8", "surrogatepass") if names else b""
        offsets = array("i", [0])
        offsets.extend(accumulate(
            len(name.encode("utf-8", "surrogatepass")) + 1 for name in names))
        return cls(blob, offsets)

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def __getitem__(self, r):
        offsets = self.offsets
        if type(r) is not int:  # a slice, decoded in one piece
            start, stop, step = r.indices(len(offsets) - 1)
            if step != 1:
                return [self[i] for i in range(start, stop, step)]
            if start >= stop:
                return []
            return self.blob[offsets[start]:offsets[stop] - 1].decode(
                "utf-8", "surrogatepass").split("\0")
        if r < 0:
            r += len(offsets) - 1
            if r < 0:
                raise IndexError("name index out of range")
        return self.blob[offsets[r]:offsets[r + 1] - 1].decode(
            "utf-8", "surrogatepass")


class SymbolEntry(NamedTuple):
    name: str
    kind: str  # one of KINDS
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
    """Definitions as rows of columns, and the store: the bytes of every
    indexed file, one after another in ``files`` order, from byte
    ``store_start`` of the open file ``store``.

    Row ``r`` is a definition of ``names[r]``, of kind ``KINDS[kinds[r]]``,
    on line ``lines[r]``.  Rows are in build order: file by file, in line
    order within a file.  File ``i`` defines rows
    ``file_rows[i]:file_rows[i + 1]`` and is bytes
    ``offsets[i]:offsets[i + 1]`` of the store.  ``name_keys`` holds
    ``hash << 32 | r`` for every row ``r``, the hash being that of its
    name's UTF-8 bytes, sorted, and ``by_path`` every file number, sorted
    by file name.  ``words`` is the postings: ``hash << 32 | i`` once for
    each hash of a word (``_WORDS_ONLY``) of file ``i``, sorted.  The store
    is closed when the index is freed.  ``names`` is a list only while a
    build appends rows, and a ``_Names`` once it is done."""
    root: str
    store: BinaryIO
    store_start: int = 0
    files: List[str] = field(default_factory=list)  # indexed, in walk order
    offsets: array = field(default_factory=lambda: array("q", [0]))
    file_rows: array = field(default_factory=lambda: array("i", [0]))
    names: Sequence[str] = field(default_factory=list)
    kinds: array = field(default_factory=lambda: array("b"))
    lines: array = field(default_factory=lambda: array("i"))
    name_keys: array = field(default_factory=lambda: array("Q"))
    by_path: array = field(default_factory=lambda: array("i"))
    words: array = field(default_factory=lambda: array("Q"))
    _close: weakref.finalize = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._close = weakref.finalize(self, self.store.close)

    @property
    def file_count(self) -> int:
        return len(self.files)

    def file_of(self, row: int) -> str:
        """The file that defines row ``row``."""
        return self.files[bisect_right(self.file_rows, row) - 1]

    def file_entries(self, i: int) -> List[SymbolEntry]:
        """The definitions in file ``i``, in line order."""
        rows = slice(self.file_rows[i], self.file_rows[i + 1])
        # tuple.__new__ builds the same SymbolEntry as the class call,
        # without running Python code per entry.
        return list(map(tuple.__new__, repeat(SymbolEntry), zip(
            self.names[rows], map(KINDS.__getitem__, self.kinds[rows]),
            repeat(self.files[i]), self.lines[rows])))

    def definition_rows(self, name: str) -> List[int]:
        """The rows that define ``name``, in build order.  Raises
        ``CorruptIndex`` when ``name_keys`` names a row past the last."""
        keys, names, count = self.name_keys, self.names, len(self.kinds)
        key = _name_hash(name)
        # A name's rows are among the few its hash keys, and most names
        # have one, so the run's end is found by stepping on from its start
        # rather than by a second search.  Only those names are decoded.
        rows = []
        at = bisect_left(keys, key << 32)
        while at < len(keys) and keys[at] >> 32 == key:
            row = keys[at] & _LOW_BITS
            if row >= count:
                raise CorruptIndex("a name key names row %d, past the last "
                                   "of %d" % (row, count))
            if names[row] == name:
                rows.append(row)
            at += 1
        return rows

    def word_files(self, word: str) -> List[int]:
        """The numbers of the files that hold the ASCII word ``word``, in
        order, and perhaps a few more whose words share its hash.  Raises
        ``CorruptIndex`` when the postings name a file past the last."""
        words = self.words
        key = _word_hash(word.encode("ascii")) << 32
        start = bisect_left(words, key)
        end = bisect_left(words, key + _LOW_BITS + 1, start)
        numbers = [entry & _LOW_BITS for entry in words[start:end]]
        if numbers and max(numbers) >= len(self.files):
            raise CorruptIndex("the postings name file %d, past the last of "
                               "%d" % (max(numbers), len(self.files)))
        return numbers

    def file_number(self, rel: str) -> Optional[int]:
        """The number of the indexed file ``rel``, or None."""
        by_path, files = self.by_path, self.files
        at = bisect_left(by_path, rel, key=files.__getitem__)
        if at < len(by_path) and files[by_path[at]] == rel:
            return by_path[at]
        return None

    @property
    def entries(self) -> Dict[str, List[SymbolEntry]]:
        """Definitions by name, names in order of first definition; a new
        dict on each access."""
        out: Dict[str, List[SymbolEntry]] = {}
        for es in self.by_file.values():
            for e in es:
                out.setdefault(e.name, []).append(e)
        return out

    @property
    def by_file(self) -> Dict[str, List[SymbolEntry]]:
        """Definitions of each file that has any, in ``files`` order; a new
        dict on each access."""
        rows = self.file_rows
        return {rel: self.file_entries(i) for i, rel in enumerate(self.files)
                if rows[i] < rows[i + 1]}

    def use_store(self, store: BinaryIO, start: int):
        """Read the store from byte ``start`` of ``store`` from now on, and
        close the one read so far."""
        self._close()
        self.store, self.store_start = store, start
        self._close = weakref.finalize(self, store.close)

    def add_row(self, hit: Tuple[str, str], line: int):
        """Append a definition (name, kind) on ``line`` of the last file."""
        self.names.append(hit[0])
        self.kinds.append(_KIND_CODES[hit[1]])
        self.lines.append(line)


def _name_hash(name: str) -> int:
    """The key of a definition name in ``name_keys``; a lone surrogate,
    which no indexed name holds, hashes as any other character."""
    return _word_hash(name.encode("utf-8", "surrogatepass"))


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


def _index_lines(index: CodeIndex, text: str):
    """Every line through the rules, tracking brace depth line by line and
    clamping it at 0 after each line."""
    depth = 0
    for lineno, line in enumerate(_split_lines(text), start=1):
        hit = _definition(line, depth == 0)
        if hit:
            index.add_row(hit, lineno)
        # Track nesting outside strings/comments well enough for fixtures.
        depth = max(depth + line.count("{") - line.count("}"), 0)


def _index_file(index: CodeIndex, raw: bytes, text: str):
    """Append the definitions in one file to ``index``'s rows, in line
    order.

    Only candidate lines (``_RX_CANDIDATE``) go through the rules; a line's
    number and brace depth are counted in the text since the previous
    candidate.  Those counts equal the line-by-line depth only while the
    clamp at 0 never fires, so a file where some prefix closes more braces
    than it opens is indexed line by line instead.
    """
    if _closes_early(raw):
        _index_lines(index, text)
        return
    add = index.add_row
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
            add(hit, lineno)


def build_index(source_root: str) -> CodeIndex:
    """Walk the tree and index every definition-pattern match.

    Deterministic for a fixed tree: files are visited in sorted order, and
    that order is kept in ``files``.  The bytes read are spooled to the
    index's store, an unlinked temporary file, which nothing is left of
    once the index is freed or saved, or its process ends.
    """
    if not os.path.isdir(source_root):
        raise RootUnreadable(source_root)
    import numpy  # only a build sorts the postings; a load never needs it

    store = tempfile.TemporaryFile(prefix="patchrepro-store-")
    index = CodeIndex(root=os.path.abspath(source_root), store=store)
    files, offsets, file_rows, names, words = (
        index.files, index.offsets, index.file_rows, index.names, index.words)
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
                # A link out of the tree is not source; indexing it would
                # leak its text through reference hits.
                if os.path.islink(full):
                    _resolve(source_root, rel)
                raw = _read_bytes(full)
            except (OSError, FileNotIndexed):
                continue
            store.write(raw)
            i = len(files)
            # A set of entries, not of words: two words of one file that
            # share a hash must not post the file twice.
            words.extend({_word_hash(word) << 32 | i for word in
                          set(raw.translate(_WORDS_ONLY).split())})
            files.append(rel)
            offsets.append(offsets[-1] + len(raw))
            _index_file(index, raw, _decode(raw))
            file_rows.append(len(names))
    store.flush()
    index.names = _Names.pack(names)
    index.name_keys = array("Q", (_name_hash(name) << 32 | row
                                  for row, name in enumerate(names)))
    index.by_path = array("i", sorted(range(len(files)),
                                      key=files.__getitem__))
    for postings in (words, index.name_keys):
        numpy.frombuffer(postings, dtype=numpy.uint64).sort()  # in place
    return index


def list_symbols(index: CodeIndex, file: str) -> List[SymbolEntry]:
    """Symbols defined in one indexed file, sorted by line."""
    full = _resolve(index.root, file)
    if not os.path.exists(full):
        raise FileNotIndexed(file)
    i = index.file_number(os.path.relpath(full, index.root))
    return [] if i is None else index.file_entries(i)


def query_symbol(index: CodeIndex, name: str, mode: str = "definitions",
                 limit: int = DEFAULT_QUERY_LIMIT) -> Tuple[List[dict], bool]:
    """Global definition or whole-word reference lookup, capped at ``limit``.

    References are found in the index's store, not by a new tree walk, in
    the files that the postings name for every ASCII word of ``name``.
    Raises ``InvalidParams`` for a reference query whose name holds no
    ASCII letter, digit or underscore.
    """
    if limit < 1:
        raise ValueError("limit must be >= 1")
    if mode == "definitions":
        rows = index.definition_rows(name)
        return ([{"file": index.file_of(row), "line": index.lines[row],
                  "kind": KINDS[index.kinds[row]]} for row in rows[:limit]],
                len(rows) > limit)
    if mode != "references":
        raise ValueError("mode must be definitions or references")

    if "\n" in name or "\r" in name:
        return [], False  # no line holds a line break
    # At a whole-word hit in the decoded text, each word of the name is a
    # word of the file's bytes, so the postings of every one name the file.
    # Decoding keeps each ASCII byte as its own character, and every other
    # character beside a word (non-ASCII, U+FFFD, punctuation, or the "\n"
    # made of a "\r") comes from bytes that are not word bytes; each end of
    # the word is the name's own \b or a character of the name.
    postings = sorted(map(index.word_files, set(_ASCII_WORD.findall(name))),
                      key=len)
    if not postings:
        raise InvalidParams("a reference query needs a name that holds an "
                            "ASCII letter, digit or underscore")
    numbers = postings[0]
    for other in map(set, postings[1:]):
        numbers = [i for i in numbers if i in other]
    defining = {(index.file_of(row), index.lines[row])
                for row in index.definition_rows(name)}
    # The whole-word test, \bNAME\b, led by the name's literal: re finds a
    # literal prefix by fast search, where a leading \b makes it try a
    # match at every character.  The lookbehind puts the \b back before the
    # name.  "\n" is not a word character, so a match in the text is a
    # match in its line.
    literal = re.escape(name)
    word = re.compile(r"%s(?<=\b%s)\b" % (literal, literal))
    files = index.files
    hits = []
    for i, raw in _read_files(index, numbers):
        rel = files[i]
        for lineno, line in _word_lines(_decode(raw), word):
            if (rel, lineno) not in defining:
                if len(hits) >= limit:
                    return hits, True
                hits.append({"file": rel, "line": lineno, "text": line})
    return hits, False


def _read_files(index: CodeIndex, numbers: List[int]):
    """(number, bytes) of each of the files ``numbers``, in that order, read
    from the store by position.  Raises ``CorruptIndex`` when the store
    ends early."""
    fd, start, offsets = index.store.fileno(), index.store_start, index.offsets
    for i in numbers:
        size = offsets[i + 1] - offsets[i]
        raw = os.pread(fd, size, start + offsets[i])
        if len(raw) != size:
            raise CorruptIndex("the store of %s is truncated" % index.root)
        yield i, raw


def _word_lines(text: str, word: "re.Pattern[str]"):
    """(line number, line) of each line of ``text`` where ``word`` matches,
    in order, each once, numbered as ``_split_lines`` numbers them.  A
    line's number is counted in the text since the previous such line, and
    the search goes on from the next line."""
    search, count, find, size = word.search, text.count, text.find, len(text)
    lineno, start = 1, 0
    m = search(text)
    while m:
        at = m.start()
        line_start = text.rfind("\n", 0, at) + 1
        lineno += count("\n", start, line_start)
        start = line_start
        end = find("\n", at)
        if end < 0:
            end = size
        yield lineno, text[start:end]
        # A search from past the end would start at the end, where the
        # empty name can match again.
        m = end < size and search(text, end + 1)


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
    """Persist: a header line, the file names, the definition names, the
    array columns, then the store's bytes.

    The header's tab-separated fields are the format, ``digest``, the byte
    order, the lengths of the two name strings, then for the names'
    offsets and each of ``_COLUMNS`` its type code, item size and length
    (``i4:1024``); lengths are in bytes.  The file names are UTF-8,
    separated by NUL, which no file name can hold; the definition names
    are a ``_Names`` blob.  The file is written beside ``path`` and renamed
    over it only once complete; from then on the index reads its store from
    there."""
    files = "\0".join(index.files).encode("utf-8", "surrogateescape")
    names = index.names
    columns = [names.offsets] + [getattr(index, name)
                                 for name, _typecode in _COLUMNS]
    head = [_INDEX_FORMAT, digest, sys.byteorder, str(len(files)),
            str(len(names.blob))] + [
        "%s%d:%d" % (c.typecode, c.itemsize, len(c) * c.itemsize)
        for c in columns]
    fd, tmp = tempfile.mkstemp(prefix=".index-", dir=os.path.dirname(path) or ".")
    fh = open(fd, "w+b")
    try:
        fh.write(("\t".join(head) + "\n").encode("utf-8"))
        fh.write(files)
        fh.write(names.blob)
        for column in columns:
            column.tofile(fh)
        start = fh.tell()
        fh.flush()
        # The store is copied by the kernel, from the store file by
        # position, so no bytes that a file object buffered before the
        # store was cut are read.
        offset, end = index.store_start, index.store_start + index.offsets[-1]
        while offset < end:
            sent = os.sendfile(fh.fileno(), index.store.fileno(), offset,
                               end - offset)
            if not sent:
                raise CorruptIndex("the store of %s is truncated" % index.root)
            offset += sent
        os.replace(tmp, path)
    except BaseException:
        fh.close()
        os.unlink(tmp)
        raise
    index.use_store(fh, start)


def load_index(root: str, path: str, digest: str = "") -> CodeIndex:
    """An index saved by ``save_index`` under ``digest``, reading its store
    from ``path``; the store is not read here, and neither the postings nor
    the definition names are walked.  Raises ValueError for another
    format, digest or byte order, or a truncated file."""
    fh = open(path, "rb")
    try:
        head = fh.readline().decode("utf-8").rstrip("\n").split("\t")
        if (head[:3] != [_INDEX_FORMAT, digest, sys.byteorder]
                or len(head) != 6 + len(_COLUMNS)):
            raise ValueError("%s is not a code index for digest %r and byte "
                             "order %s" % (path, digest, sys.byteorder))
        columns = [array("i")] + [array(typecode)
                                  for _name, typecode in _COLUMNS]
        sizes = [int(head[3]), int(head[4])]
        for column, spec in zip(columns, head[5:]):
            kind, _, nbytes = spec.partition(":")
            if kind != "%s%d" % (column.typecode, column.itemsize):
                raise ValueError("%s has %s items, not %s%d"
                                 % (path, kind, column.typecode,
                                    column.itemsize))
            sizes.append(int(nbytes))
        size = os.fstat(fh.fileno()).st_size
        if min(sizes) < 0 or fh.tell() + sum(sizes) > size:
            raise ValueError("%s is truncated" % path)
        text = fh.read(sizes[0]).decode("utf-8", "surrogateescape")
        files = text.split("\0") if text else []
        blob = fh.read(sizes[1])
        # Each column is read straight into an array of its length.  Bytes
        # read first and copied into the arrays made fresh memory fault in
        # on each load, which took several times as long.
        for column, nbytes in zip(columns, sizes[2:]):
            column.append(0)
            column *= nbytes // column.itemsize
            if fh.readinto(column) != nbytes:
                raise ValueError("%s is truncated" % path)
        (name_offsets, kinds, lines, file_rows, name_keys, by_path, offsets,
         words) = columns
        if not (len(files) == len(offsets) - 1 == len(by_path)
                == len(file_rows) - 1
                and len(name_offsets) - 1 == file_rows[-1] == len(kinds)
                == len(lines) == len(name_keys)
                and name_offsets[-1] == len(blob)
                and size == fh.tell() + offsets[-1]):
            raise ValueError("%s is truncated" % path)
        return CodeIndex(
            root=os.path.abspath(root), store=fh, store_start=fh.tell(),
            files=files, offsets=offsets, file_rows=file_rows,
            names=_Names(blob, name_offsets), kinds=kinds, lines=lines,
            name_keys=name_keys, by_path=by_path, words=words)
    except BaseException:
        fh.close()
        raise


def cached_index(source_root: str, path: str, digest: str) -> CodeIndex:
    """The index saved at ``path`` for ``digest``; when that file is
    missing, unreadable, corrupt or for another digest, ``fresh_index``."""
    try:
        return load_index(source_root, path, digest)
    except (OSError, ValueError):
        return fresh_index(source_root, path, digest)


def fresh_index(source_root: str, path: str, digest: str) -> CodeIndex:
    """A new build of ``source_root``, saved at ``path`` (over any file
    there) for the next session with ``digest``."""
    index = build_index(source_root)
    try:
        save_index(index, path, digest)
    except (OSError, ValueError):
        pass  # not persisted; this session still has its index
    return index
