import os
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from patchrepro import codebrowse, errors

_MAIN_C = """\
#include "util.h"

#define MAX_CHAINS 16
#define CHAIN_NAME_LEN 32

struct chain_entry {
\tint use;
\tchar name[CHAIN_NAME_LEN];
};

static int chain_count;

static struct chain_entry *lookup_chain(const char *name)
{
\tfor (int i = 0; i < chain_count; i++) {
\t\tif (match_name(name, i))
\t\t\treturn table_slot(i);
\t}
\treturn 0;
}

int register_chain(const char *name)
{
\tstruct chain_entry *e = lookup_chain(name);
\tif (e)
\t\treturn -1;
\tchain_count++;
\treturn 0;
}
"""

_UTIL_H = """\
#ifndef UTIL_H
#define UTIL_H

typedef unsigned long chain_mask_t;

enum chain_state {
\tCHAIN_FREE,
\tCHAIN_BOUND,
};

struct chain_entry;

int register_chain(const char *name);
int match_name(const char *name, int slot);
struct chain_entry *table_slot(int slot);

#endif
"""


@pytest.fixture
def tree(tmp_path):
    (tmp_path / "net").mkdir()
    (tmp_path / "net" / "main.c").write_text(_MAIN_C)
    (tmp_path / "util.h").write_text(_UTIL_H)
    (tmp_path / "README").write_text("not indexed\n")
    return str(tmp_path)


def test_index_finds_expected_symbols(tree):
    idx = codebrowse.build_index(tree)
    assert idx.file_count == 2
    names = {(e.name, e.kind) for es in idx.entries.values() for e in es}
    assert ("MAX_CHAINS", "macro") in names
    assert ("chain_entry", "struct") in names
    assert ("lookup_chain", "function") in names
    assert ("register_chain", "function") in names
    assert ("chain_count", "global") in names
    assert ("chain_mask_t", "typedef") in names
    assert ("chain_state", "enum") in names


def test_prototypes_not_indexed_as_functions(tree):
    idx = codebrowse.build_index(tree)
    # register_chain has a prototype in util.h but only the main.c definition
    # should be a function entry.
    funcs = [e for e in idx.entries["register_chain"] if e.kind == "function"]
    assert len(funcs) == 1
    assert funcs[0].file == os.path.join("net", "main.c")


def test_list_symbols_sorted_and_errors(tree):
    idx = codebrowse.build_index(tree)
    entries = codebrowse.list_symbols(idx, "net/main.c")
    assert entries == sorted(entries, key=lambda e: e.line)
    assert entries
    assert codebrowse.list_symbols(idx, os.path.join(tree, "net", "main.c")) \
        == codebrowse.list_symbols(idx, "net/../net/main.c") == entries
    with pytest.raises(errors.FileNotIndexed):
        codebrowse.list_symbols(idx, "missing.c")
    with pytest.raises(errors.FileNotIndexed):
        codebrowse.list_symbols(idx, "../outside.c")


def test_query_definitions_and_references(tree):
    idx = codebrowse.build_index(tree)
    hits, truncated = codebrowse.query_symbol(idx, "lookup_chain")
    assert not truncated
    assert len(hits) == 1
    refs, truncated = codebrowse.query_symbol(idx, "lookup_chain",
                                              mode="references")
    assert not truncated
    # One call site; the defining line is excluded.
    assert len(refs) == 1
    assert "lookup_chain(name)" in refs[0]["text"]


def test_query_reference_truncation(tree):
    idx = codebrowse.build_index(tree)
    refs, truncated = codebrowse.query_symbol(idx, "name", mode="references",
                                              limit=2)
    assert truncated
    assert len(refs) == 2


def test_read_range_numbering_and_clamp(tree):
    snip = codebrowse.read_range(tree, "net/main.c", 3, 4)
    assert snip.lines == ["3\t#define MAX_CHAINS 16",
                          "4\t#define CHAIN_NAME_LEN 32"]
    total = len(_MAIN_C.splitlines())
    snip = codebrowse.read_range(tree, "net/main.c", 1, 10_000)
    assert snip.end == total and not snip.truncated
    snip = codebrowse.read_range(tree, "net/main.c", 1, 10_000, max_lines=5)
    assert snip.end == 5 and snip.truncated
    with pytest.raises(errors.StartBeyondEof):
        codebrowse.read_range(tree, "net/main.c", total + 1, total + 2)
    with pytest.raises(errors.SnippetFileNotFound):
        codebrowse.read_range(tree, "nope.c", 1, 2)


def test_snippet_partition_reconstructs_file(tree):
    """Reading a file in disjoint chunks reassembles the exact content."""
    total = len(_MAIN_C.splitlines())
    rebuilt = []
    start = 1
    while start <= total:
        snip = codebrowse.read_range(tree, "net/main.c", start,
                                     min(start + 6, total))
        rebuilt.extend(line.split("\t", 1)[1] for line in snip.lines)
        start = snip.end + 1
    assert rebuilt == _MAIN_C.splitlines()


def test_save_load_round_trip(tree, tmp_path):
    idx = codebrowse.build_index(tree)
    path = str(tmp_path / "index.tsv")
    codebrowse.save_index(idx, path)
    again = codebrowse.load_index(tree, path)
    assert sorted(str(e) for es in idx.entries.values() for e in es) == \
        sorted(str(e) for es in again.entries.values() for e in es)


def _answers(idx):
    """Every query's answer on an index, in the order the tools give it."""
    names = list(idx.entries)
    return {
        "files": idx.files,
        "definitions": [codebrowse.query_symbol(idx, n) for n in names],
        "symbols": [codebrowse.list_symbols(idx, f) for f in idx.files],
        "references": [codebrowse.query_symbol(idx, n, mode="references")
                       for n in names],
        "truncated": [codebrowse.query_symbol(idx, n, mode="references",
                                              limit=1) for n in names],
    }


def test_saved_index_answers_like_a_fresh_build(kernel_repo, tmp_path):
    root = kernel_repo["repo"]
    fresh = codebrowse.build_index(root)
    path = str(tmp_path / "index.tsv")
    codebrowse.save_index(fresh, path, "d1")
    loaded = codebrowse.load_index(root, path, "d1")
    assert loaded.entries == fresh.entries
    assert list(loaded.entries) == list(fresh.entries)
    assert _answers(loaded) == _answers(fresh)
    assert any(t for _hits, t in _answers(fresh)["truncated"])


def test_definitions_order_survives_save(tmp_path):
    """Build order, not string order: line 10 stays after line 9."""
    body = "".join("#define DUP %d\n" % n for n in range(1, 12))
    (tmp_path / "a.c").write_text(body)
    fresh = codebrowse.build_index(str(tmp_path))
    path = str(tmp_path / "index.tsv")
    codebrowse.save_index(fresh, path)
    hits, _ = codebrowse.query_symbol(codebrowse.load_index(str(tmp_path), path),
                                      "DUP")
    assert [h["line"] for h in hits] == list(range(1, 12))


@pytest.mark.parametrize("spoil", ["missing", "wrong_digest", "truncated",
                                   "bad_version", "truncated_source"])
def test_unusable_saved_index_is_rebuilt(tree, tmp_path, monkeypatch, spoil):
    saved = tmp_path / "index.tsv"
    path = str(saved)
    if spoil != "missing":
        saved_digest = "other" if spoil == "wrong_digest" else "d1"
        codebrowse.save_index(codebrowse.build_index(tree), path, saved_digest)
        text = saved.read_text()
        if spoil == "truncated":
            text = text[:len(text) // 2]
        elif spoil == "truncated_source":
            text = text[:-1]
        elif spoil == "bad_version":
            text = text.replace("code-index/1", "code-index/0", 1)
        saved.write_text(text)
    builds = []
    real_build = codebrowse.build_index
    monkeypatch.setattr(codebrowse, "build_index",
                        lambda root: builds.append(root) or real_build(root))
    idx = codebrowse.cached_index(tree, path, "d1")
    assert builds == [tree]
    assert _answers(idx) == _answers(real_build(tree))
    # The rebuilt index was written back and is reused from now on.
    assert _answers(codebrowse.cached_index(tree, path, "d1")) == _answers(idx)
    assert builds == [tree]


def test_references_do_not_walk_the_tree(tree, monkeypatch):
    idx = codebrowse.build_index(tree)

    def no_walk(*_a, **_k):
        raise AssertionError("os.walk called after the index was built")

    monkeypatch.setattr(os, "walk", no_walk)
    refs, truncated = codebrowse.query_symbol(idx, "lookup_chain",
                                              mode="references")
    assert [(r["file"], r["line"]) for r in refs] == \
        [(os.path.join("net", "main.c"), 24)]
    assert not truncated


def test_form_feed_does_not_shift_line_numbers(tmp_path):
    """Definitions, references and code.read count lines the same way when
    a file carries a form feed, as kernel sources often do."""
    (tmp_path / "ff.c").write_text(
        "static int helper;\n"
        "\f\n"
        "int target(void)\n"
        "{\n"
        "\treturn helper;\n"
        "}\n"
        "int user(void) { return target(); }\n")
    root = str(tmp_path)
    idx = codebrowse.build_index(root)
    defs, _ = codebrowse.query_symbol(idx, "target")
    assert [(d["line"], d["kind"]) for d in defs] == [(3, "function")]
    refs, _ = codebrowse.query_symbol(idx, "target", mode="references")
    assert [r["line"] for r in refs] == [7]
    snip = codebrowse.read_range(root, "ff.c", 3, 3)
    assert snip.lines == ["3\tint target(void)"]
    assert codebrowse.read_range(root, "ff.c", 2, 2).lines == ["2\t\f"]
    assert [e.line for e in codebrowse.list_symbols(idx, "ff.c")] == [1, 3, 7]


def test_read_range_stays_inside_the_root(tree, tmp_path_factory):
    outside = tmp_path_factory.mktemp("outside")
    (outside / "secret.c").write_text("int secret;\n")
    os.symlink(str(outside / "secret.c"), os.path.join(tree, "link.c"))
    for path in ("../" * 12 + "etc/hostname", str(outside / "secret.c"),
                 "link.c", "net/../../secret.c"):
        with pytest.raises(errors.FileNotIndexed):
            codebrowse.read_range(tree, path, 1, 5)
    assert codebrowse.read_range(tree, "net/../util.h", 1, 1).lines == \
        ["1\t#ifndef UTIL_H"]
    # Nor does the index read through the link; a link within the tree is
    # still indexed.
    os.symlink("util.h", os.path.join(tree, "alias.h"))
    idx = codebrowse.build_index(tree)
    assert "link.c" not in idx.files and "alias.h" in idx.files
    assert codebrowse.query_symbol(idx, "secret", mode="references") == ([], False)


_IDENT = st.from_regex(r"[a-z_][a-z0-9_]{0,6}", fullmatch=True)


@settings(max_examples=40, deadline=None)
@given(words=st.lists(_IDENT, min_size=1, max_size=30), target=_IDENT)
def test_reference_scan_is_whole_word(tmp_path_factory, words, target):
    """Reference hits agree with a brute-force whole-word line scan."""
    root = tmp_path_factory.mktemp("scan")
    text = "\n".join(" ".join(chunk) for chunk in
                     [words[i:i + 4] for i in range(0, len(words), 4)]) + "\n"
    (root / "a.c").write_text(text)
    idx = codebrowse.build_index(str(root))
    refs, _ = codebrowse.query_symbol(idx, target, mode="references",
                                      limit=10_000)
    defining = {(e.file, e.line) for e in idx.entries.get(target, [])}
    rx = re.compile(r"\b%s\b" % re.escape(target))
    expected = [n for n, line in enumerate(text.splitlines(), 1)
                if rx.search(line) and ("a.c", n) not in defining]
    assert [r["line"] for r in refs] == expected


_REF_LEADS = (b"", b"", b"#define ", b"static int ", b"int ")
# Name-like pieces, with invalid UTF-8 (b"\xff", a cut-off b"\xc3") and
# a real U+FFFD, so that some names only occur in the decoded text.
_REF_PIECES = (b"foo", b"foo_bar", b"bar", "caf\u00e9".encode(), b"x\xffy",
               b"\xff", b"\xc3", "\ufffd".encode(), b"x\xef\xbf\xbdy", b" ",
               b"(", b";", "\u2028".encode(), b"\x0c")
_REF_NAMES = ("foo", "foo_bar", "bar", "caf\u00e9", "x\ufffdy", "\ufffd", "x",
              "y", "foo\nbar", "foo\rbar", "", "absent")
_ref_line = st.tuples(st.sampled_from(_REF_LEADS),
                      st.lists(st.sampled_from(_REF_PIECES), max_size=6),
                      st.sampled_from((b"\n", b"\n", b"\r\n", b"\r")))
_ref_file = st.lists(_ref_line, max_size=8).map(
    lambda lines: b"".join(lead + b"".join(pieces) + end
                           for lead, pieces, end in lines))


def _oracle_references(root, name):
    """Every whole-word hit of ``name`` outside its defining lines, by a
    scan of every line of every source file in walk order."""
    entries, _by_file, files = _oracle_index(root)
    defining = {(e.file, e.line) for e in entries.get(name, [])}
    rx = re.compile(r"\b%s\b" % re.escape(name))
    hits = []
    for rel in files:
        with open(os.path.join(root, rel), encoding="utf-8",
                  errors="replace") as fh:
            lines = fh.read().split("\n")
        if lines[-1] == "":
            lines.pop()
        hits += [{"file": rel, "line": n, "text": line}
                 for n, line in enumerate(lines, 1)
                 if rx.search(line) and (rel, n) not in defining]
    return hits


@settings(max_examples=60, deadline=None)
@given(files=st.lists(_ref_file, min_size=1, max_size=4),
       name=st.sampled_from(_REF_NAMES))
# The first two names occur only in the decoded text, where invalid UTF-8
# became U+FFFD.
@example(files=[b"x\xffy;\r\n"], name="x\ufffdy")
@example(files=[b"x\xc3y\r"], name="\ufffd")
@example(files=[b"foo\r\nbar\rfoo\nbar\n"], name="foo\nbar")
@example(files=[b"foo\rfoo\n", b"#define foo 1\nfoo(bar)\n", b"", b"foo"],
         name="foo")
def test_references_match_a_line_scan(tmp_path_factory, files, name):
    """A fresh index and a saved and loaded one give the same references as
    a brute-force line scan, also when truncated at ``limit``; covers CRLF,
    lone CR, invalid UTF-8, non-ASCII names and names no line can hold."""
    root = tmp_path_factory.mktemp("refs")
    (root / "sub").mkdir()
    for i, raw in enumerate(files):
        (root / ("sub" if i % 2 else ".") / ("f%d.c" % i)).write_bytes(raw)
    fresh = codebrowse.build_index(str(root))
    path = str(tmp_path_factory.mktemp("saved") / "index.tsv")
    codebrowse.save_index(codebrowse.build_index(str(root)), path, "d")
    loaded = codebrowse.load_index(str(root), path, "d")
    expected = _oracle_references(str(root), name)
    for limit in (1, 2, 10_000):
        want = (expected[:limit], len(expected) > limit)
        assert codebrowse.query_symbol(fresh, name, "references", limit) == want
        assert codebrowse.query_symbol(loaded, name, "references", limit) == want


# --- the candidate-line indexer against a line-by-line oracle -------------------

def _oracle_index(root):
    """``build_index`` as one loop over every line of every file, with the
    brace depth clamped at 0 after each line: the reference the indexer
    must agree with, entry for entry and in the same order.  Files are read
    through Python's text layer, which ``codebrowse._decode`` must equal."""
    entries, by_file, files = {}, {}, []
    SymbolEntry = codebrowse.SymbolEntry

    def add(entry):
        entries.setdefault(entry.name, []).append(entry)
        by_file.setdefault(entry.file, []).append(entry)

    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        if ".git" in dirnames:
            dirnames.remove(".git")
        for fname in sorted(filenames):
            if not fname.endswith((".c", ".h")):
                continue
            full = os.path.join(dirpath, fname)
            relpath = os.path.relpath(full, root)
            with open(full, "r", encoding="utf-8", errors="replace") as fh:
                lines = fh.read().split("\n")
            if lines[-1] == "":
                lines.pop()
            files.append(relpath)
            brace_depth = 0
            for lineno, line in enumerate(lines, start=1):
                at_top = brace_depth == 0
                m = codebrowse._RX_DEFINE.match(line)
                if m:
                    add(SymbolEntry(m.group(1), "macro", relpath, lineno))
                elif at_top:
                    m = codebrowse._RX_TAG.match(line)
                    if m and (m.group(3) == "{" or "{" in line):
                        add(SymbolEntry(m.group(2), m.group(1), relpath, lineno))
                    else:
                        m = codebrowse._RX_TYPEDEF.match(line)
                        if m and m.group(1) not in codebrowse._KEYWORDS:
                            add(SymbolEntry(m.group(1), "typedef", relpath, lineno))
                        else:
                            m = codebrowse._RX_FUNC.match(line)
                            stripped = line.rstrip()
                            if (m and m.group(1) not in codebrowse._KEYWORDS
                                    and not stripped.endswith(";")
                                    and "=" not in line.split("(")[0]):
                                add(SymbolEntry(m.group(1), "function", relpath,
                                                lineno))
                            else:
                                m = codebrowse._RX_GLOBAL.match(line)
                                if (m and m.group(1) not in codebrowse._KEYWORDS
                                        and "(" not in line.split(m.group(1))[0]):
                                    add(SymbolEntry(m.group(1), "global", relpath,
                                                    lineno))
                brace_depth += line.count("{") - line.count("}")
                brace_depth = max(brace_depth, 0)
    return entries, by_file, files


def _assert_same_index(idx, root):
    entries, by_file, files = _oracle_index(root)
    assert list(idx.entries.items()) == list(entries.items())
    assert list(idx.by_file.items()) == list(by_file.items())
    assert idx.files == files


_C_LINES = (
    "#define MAX_%d 16", "#  define FLAG_%d(x) (x)", "#include <linux/x.h>",
    "struct s_%d {", "union u_%d {", "enum e_%d { E_%d };", "struct fwd_%d;",
    "typedef struct t_%d {", "typedef unsigned long v%d_t;", "} w%d_t;",
    "static int g_%d = 1;", "int arr_%d[4] = { 1, 2 };", "extern long x_%d;",
    "int proto_%d(int a);", "int fn_%d(int a)", "static struct s *get_%d(void) {",
    "\treturn %d;", "\tif (a) {", "out_%d:", "{", "}", "};", "}}", "{ {",
    "int inline_%d(void) { return 0; }", "", "/* comment %d */",
)
_LEADS = ("", "", "", " ", "\t", "\x0b", "\x0c", "\x1c", "\x85", "\xa0")
_RAW_LEADS = (b"", b"", b"\xff", b"\xe2\x82", b"\xc3{")
_ENDINGS = (b"\n", b"\n", b"\n", b"\r\n", b"\r")

_line = st.tuples(st.sampled_from(_LEADS), st.sampled_from(_C_LINES),
                  st.integers(0, 3), st.sampled_from(_RAW_LEADS),
                  st.sampled_from(_ENDINGS))
_file = st.tuples(st.lists(_line, max_size=25), st.booleans())


def _render(lines, final_newline):
    out = b""
    for lead, text, n, raw, end in lines:
        out += raw + (lead + text.replace("%d", str(n))).encode() + end
    if out and not final_newline:
        out = out.rstrip(b"\r\n")
    return out


@settings(max_examples=50, deadline=None)
@given(files=st.lists(_file, max_size=3))
def test_index_matches_line_by_line_oracle(tmp_path_factory, files):
    """Same entries (key and list order), by_file and files as the
    line-by-line oracle, also after a save and load; covers stray and
    unbalanced braces, #define inside bodies, indented tags, unusual
    whitespace, CRLF, lone CR, no final newline and empty files."""
    root = tmp_path_factory.mktemp("gen")
    (root / "sub").mkdir()
    for i, (lines, final_newline) in enumerate(files):
        (root / ("sub" if i % 2 else ".") / ("f%d.c" % i)).write_bytes(
            _render(lines, final_newline))
    idx = codebrowse.build_index(str(root))
    _assert_same_index(idx, str(root))
    path = str(root / "index.tsv")
    codebrowse.save_index(idx, path, "d")
    _assert_same_index(codebrowse.load_index(str(root), path, "d"), str(root))


@pytest.mark.parametrize("text", [
    # A leading "}" clamps the depth, so the function after it is at the top.
    "}\nint after_clamp(void)\n{\n}\n",
    "int a(void)\n{\n}\n}\n}\nstatic int b;\nint c(void)\n{\n#define IN_BODY 1\n}\n",
    # Nesting deeper than the brace check follows, then one "}" too many.
    "int deep(void)\n" + "{\n" * 70 + "}\n" * 71 + "int next(void)\n{\n}\n",
], ids=["leading_close", "close_after_body", "deep_nesting"])
def test_index_clamped_files_match_oracle(tmp_path, text):
    (tmp_path / "a.c").write_text(text)
    idx = codebrowse.build_index(str(tmp_path))
    _assert_same_index(idx, str(tmp_path))
    assert idx.entries
