import gc
import os
import re
import signal
import subprocess
import sys
import tracemalloc
from array import array
from bisect import bisect_left

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


def _references(idx, name, limit=codebrowse.DEFAULT_QUERY_LIMIT):
    """A reference query's answer, or the name of the error that refused
    the name."""
    try:
        return codebrowse.query_symbol(idx, name, "references", limit)
    except errors.InvalidParams as exc:
        return exc.name


def _answers(idx, extra=()):
    """Every query's answer on an index, in the order the tools give it,
    for every defined name and the names ``extra``; a refused reference
    query is recorded as its error's name."""
    names = list(idx.entries) + list(extra)
    return {
        "files": idx.files,
        "definitions": [codebrowse.query_symbol(idx, n) for n in names],
        "symbols": [codebrowse.list_symbols(idx, f) for f in idx.files],
        "references": [_references(idx, n) for n in names],
        "truncated": [_references(idx, n, limit=1) for n in names],
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


def _save_format_1(idx, path, digest):
    """``idx`` in the layout of ``patchrepro-code-index/1``: a text header,
    per file a line and its definition records, ``end``, then the store."""
    by_file, offsets = idx.by_file, idx.offsets
    out = "patchrepro-code-index/1\t%s\t%d\t%d\n" % (digest, len(idx.files),
                                                    offsets[-1])
    for i, rel in enumerate(idx.files):
        entries = by_file.get(rel, [])
        out += "%s\t%d\t%d\n" % (rel, len(entries), offsets[i + 1] - offsets[i])
        out += "".join("%s\t%s\t%d\n" % (e.name, e.kind, e.line)
                       for e in entries)
    with open(path, "wb") as fh:
        fh.write(out.encode() + b"end\n")
        for rel in idx.files:
            with open(os.path.join(idx.root, rel), "rb") as src:
                fh.write(src.read())


def _save_format_3(idx, path, digest):
    """``idx`` in the layout of ``patchrepro-code-index/3``: the file and
    definition names as one NUL-separated string, the rows sorted by name
    as an "i" column in place of ``name_keys``, then the store."""
    names = list(idx.names)
    strings = "\0".join(idx.files + names).encode("utf-8", "surrogateescape")
    by_name = array("i", sorted(range(len(names)), key=names.__getitem__))
    columns = [idx.kinds, idx.lines, idx.file_rows, by_name, idx.by_path,
               idx.offsets, idx.words]
    head = ["patchrepro-code-index/3", digest, sys.byteorder,
            str(len(strings))] + ["%s%d:%d" % (c.typecode, c.itemsize,
                                               len(c) * c.itemsize)
                                  for c in columns]
    with open(path, "wb") as fh:
        fh.write(("\t".join(head) + "\n").encode() + strings)
        for column in columns:
            column.tofile(fh)
        for rel in idx.files:
            with open(os.path.join(idx.root, rel), "rb") as src:
                fh.write(src.read())


@pytest.mark.parametrize("spoil", ["missing", "wrong_digest", "truncated",
                                   "bad_version", "truncated_source",
                                   "format_1", "format_2", "format_3",
                                   "foreign_byte_order"])
def test_unusable_saved_index_is_rebuilt(tree, tmp_path, monkeypatch, spoil):
    saved = tmp_path / "index.tsv"
    path = str(saved)
    if spoil == "format_1":
        _save_format_1(codebrowse.build_index(tree), path, "d1")
    elif spoil == "format_2":
        # The layout of patchrepro-code-index/2: the columns before "words".
        with monkeypatch.context() as m:
            m.setattr(codebrowse, "_INDEX_FORMAT", "patchrepro-code-index/2")
            m.setattr(codebrowse, "_COLUMNS", codebrowse._COLUMNS[:-1])
            codebrowse.save_index(codebrowse.build_index(tree), path, "d1")
    elif spoil == "format_3":
        _save_format_3(codebrowse.build_index(tree), path, "d1")
    elif spoil != "missing":
        saved_digest = "other" if spoil == "wrong_digest" else "d1"
        codebrowse.save_index(codebrowse.build_index(tree), path, saved_digest)
        data = saved.read_bytes()
        if spoil == "truncated":
            data = data[:len(data) // 2]
        elif spoil == "truncated_source":
            data = data[:-1]
        elif spoil == "bad_version":
            data = data.replace(codebrowse._INDEX_FORMAT.encode(),
                                b"patchrepro-code-index/0", 1)
        elif spoil == "foreign_byte_order":
            other = {"little": "big", "big": "little"}[sys.byteorder]
            data = data.replace(b"\t%s\t" % sys.byteorder.encode(),
                                b"\t%s\t" % other.encode(), 1)
        saved.write_bytes(data)
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


def _spoil_last_posting(postings, key, past):
    """Point the last entry keyed ``key`` at number ``past``, which must be
    past every number posted, so the postings stay sorted."""
    end = bisect_left(postings, (key + 1) << 32)
    assert postings[end - 1] >> 32 == key
    postings[end - 1] = key << 32 | past


def test_a_posting_past_the_last_fails_the_query(tree, tmp_path):
    """A load checks no posting; the query that reads one naming a file or
    a row past the last raises ``CorruptIndex``, a ValueError, and the
    queries that read none still answer."""
    fresh = codebrowse.build_index(tree)
    path = str(tmp_path / "index.idx")
    for column, key, past, query in (
            ("words", codebrowse._word_hash(b"chain_count"), "files",
             ("chain_count", "references")),
            ("name_keys", codebrowse._name_hash("lookup_chain"), "kinds",
             ("lookup_chain", "definitions"))):
        spoiled = codebrowse.build_index(tree)
        _spoil_last_posting(getattr(spoiled, column), key,
                            len(getattr(spoiled, past)))
        codebrowse.save_index(spoiled, path, "d1")
        idx = codebrowse.load_index(tree, path, "d1")
        with pytest.raises(codebrowse.CorruptIndex, match="past the last"):
            codebrowse.query_symbol(idx, *query)
        assert issubclass(codebrowse.CorruptIndex, ValueError)
        assert codebrowse.query_symbol(idx, "register_chain") == \
            codebrowse.query_symbol(fresh, "register_chain")
        assert codebrowse.list_symbols(idx, "util.h") == \
            codebrowse.list_symbols(fresh, "util.h")


def test_every_truncation_is_refused(tree, tmp_path):
    saved = tmp_path / "index.idx"
    codebrowse.save_index(codebrowse.build_index(tree), str(saved), "d1")
    data = saved.read_bytes()
    cut = tmp_path / "cut.idx"
    for size in range(len(data)):
        cut.write_bytes(data[:size])
        with pytest.raises(ValueError):
            codebrowse.load_index(tree, str(cut), "d1")


def test_odd_file_names_persist(tmp_path, monkeypatch):
    """A tree whose file names hold a tab, a newline or bytes that are not
    UTF-8 saves its index, and the next session loads it."""
    root = tmp_path / "src"
    root.mkdir()
    (root / "a\tb.c").write_text("int tab_fn(void)\n{\n\treturn NL_MACRO;\n}\n")
    (root / "c\nd.h").write_text("#define NL_MACRO 1\n")
    with open(os.path.join(os.fsencode(root), b"e\xff.c"), "w") as fh:
        fh.write("static int odd_global;\n")
    path = str(tmp_path / "index.idx")
    builds = []
    real_build = codebrowse.build_index
    monkeypatch.setattr(codebrowse, "build_index",
                        lambda root: builds.append(root) or real_build(root))
    first = codebrowse.cached_index(str(root), path, "d1")
    again = codebrowse.cached_index(str(root), path, "d1")
    assert builds == [str(root)]
    assert again.files == ["a\tb.c", "c\nd.h", "e\udcff.c"]
    assert _answers(again) == _answers(first) == _answers(real_build(str(root)))


def test_killed_build_leaves_no_spooled_store(tree, tmp_path_factory):
    """The store of a fresh build is never a named file, so not even a
    process killed by SIGKILL leaves one behind."""
    tmpdir = tmp_path_factory.mktemp("tmp")
    src = os.path.dirname(os.path.dirname(codebrowse.__file__))
    child = subprocess.Popen(
        [sys.executable, "-c",
         "import sys, time\n"
         "from patchrepro import codebrowse\n"
         "index = codebrowse.build_index(sys.argv[1])\n"
         "print(index.file_count, flush=True)\n"
         "time.sleep(60)\n", tree],
        env=dict(os.environ, TMPDIR=str(tmpdir), PYTHONPATH=src),
        stdout=subprocess.PIPE, text=True)
    try:
        assert child.stdout.readline() == "2\n"
        os.kill(child.pid, signal.SIGKILL)
        assert child.wait() == -signal.SIGKILL
    finally:
        child.kill()
        child.wait()
        child.stdout.close()
    assert os.listdir(tmpdir) == []


def test_a_store_cut_after_loading_fails_closed(tree, tmp_path):
    """A posted file that the store no longer holds in full is a
    ValueError, not a short text."""
    path = str(tmp_path / "index.idx")
    codebrowse.save_index(codebrowse.build_index(tree), path, "d1")
    idx = codebrowse.load_index(tree, path, "d1")
    os.truncate(path, os.path.getsize(path) - 1)  # net/main.c is stored last
    with pytest.raises(ValueError, match="truncated"):
        codebrowse.query_symbol(idx, "lookup_chain", mode="references")


@pytest.mark.parametrize("name", ["lookup_chain", "lookup_chain("])
def test_a_store_cut_after_loading_fails_every_query_path(tree, tmp_path,
                                                          name):
    """A reference query for one word and one for a name that also holds
    punctuation both raise ``CorruptIndex`` once the store is cut short,
    although the load's read-ahead holds all of this small store."""
    path = str(tmp_path / "index.idx")
    codebrowse.save_index(codebrowse.build_index(tree), path, "d1")
    idx = codebrowse.load_index(tree, path, "d1")
    os.truncate(path, os.path.getsize(path) - 1)
    with pytest.raises(codebrowse.CorruptIndex, match="truncated"):
        codebrowse.query_symbol(idx, name, mode="references")


def test_a_store_copied_in_small_pieces_saves_the_same_file(tree, tmp_path,
                                                            monkeypatch):
    """``save_index`` goes on copying the store however few bytes each
    ``os.sendfile`` call sends."""
    whole = tmp_path / "whole.idx"
    codebrowse.save_index(codebrowse.build_index(tree), str(whole), "d1")
    real_sendfile = os.sendfile
    calls = []

    def sendfile(out_fd, in_fd, offset, count):
        calls.append(count)
        return real_sendfile(out_fd, in_fd, offset, min(count, 7))

    monkeypatch.setattr(os, "sendfile", sendfile)
    pieces = tmp_path / "pieces.idx"
    codebrowse.save_index(codebrowse.build_index(tree), str(pieces), "d1")
    assert len(calls) > 1
    assert pieces.read_bytes() == whole.read_bytes()


def test_saving_an_index_whose_store_was_cut_fails_closed(tree, tmp_path):
    """A loaded index whose store was cut short saves nothing: the copy
    raises ``CorruptIndex`` and leaves no partial file beside the
    target."""
    path = str(tmp_path / "index.idx")
    codebrowse.save_index(codebrowse.build_index(tree), path, "d1")
    idx = codebrowse.load_index(tree, path, "d1")
    os.truncate(path, os.path.getsize(path) - 1)
    out = tmp_path / "out"
    out.mkdir()
    with pytest.raises(codebrowse.CorruptIndex, match="truncated"):
        codebrowse.save_index(idx, str(out / "again.idx"), "d1")
    assert os.listdir(out) == []


def test_a_reference_query_reads_only_the_posted_files(kernel_repo, tmp_path,
                                                       monkeypatch):
    """A name that is not one word is looked up in the postings too: the
    query reads each file posted for its word, by position, and never the
    whole store."""
    root = kernel_repo["repo"]
    fresh = codebrowse.build_index(root)
    path = str(tmp_path / "index.idx")
    codebrowse.save_index(codebrowse.build_index(root), path, "d1")
    for idx in (fresh, codebrowse.load_index(root, path, "d1")):
        offsets = idx.offsets
        posted = [(offsets[i + 1] - offsets[i], idx.store_start + offsets[i])
                  for i in idx.word_files("find_chain")]
        assert 0 < len(posted) < idx.file_count
        reads = []
        real_pread = os.pread
        monkeypatch.setattr(os, "pread", lambda fd, size, at: reads.append(
            (size, at)) or real_pread(fd, size, at))
        monkeypatch.setattr(os, "preadv", lambda *a: reads.append(a))
        hits, truncated = codebrowse.query_symbol(idx, "find_chain(",
                                                  "references")
        monkeypatch.undo()
        assert [h["text"] for h in hits] == [
            "\tstruct nft_chain *chain = find_chain(name);"]
        assert not truncated
        assert reads == posted


def test_loads_and_queries_leave_numpy_out(tree, tmp_path):
    """Only a build imports numpy, to sort the postings."""
    path = str(tmp_path / "index.idx")
    codebrowse.save_index(codebrowse.build_index(tree), path, "d1")
    src = os.path.dirname(os.path.dirname(codebrowse.__file__))
    subprocess.run(
        [sys.executable, "-c",
         "import sys\n"
         "from patchrepro import codebrowse\n"
         "index = codebrowse.load_index(sys.argv[1], sys.argv[2], 'd1')\n"
         "for name in ('lookup_chain', 'lookup_chain('):\n"
         "    assert codebrowse.query_symbol(index, name, 'references')[0]\n"
         "assert 'numpy' not in sys.modules\n", tree, path],
        env=dict(os.environ, PYTHONPATH=src), check=True)


def test_colliding_word_hashes_change_no_answer(kernel_repo, tmp_path,
                                               monkeypatch):
    """With one hash for every word, the postings name every file for every
    name; the answers are still those of the real hash."""
    root = kernel_repo["repo"]
    want = _answers(codebrowse.build_index(root))
    monkeypatch.setattr(codebrowse, "_word_hash", lambda word: 7)
    fresh = codebrowse.build_index(root)
    assert fresh.word_files("absent") == list(range(fresh.file_count))
    path = str(tmp_path / "index.idx")
    codebrowse.save_index(fresh, path, "d1")
    loaded = codebrowse.load_index(root, path, "d1")
    assert _answers(fresh) == _answers(loaded) == want


def _macro_tree(root, symbols):
    """``symbols`` macro definitions spread over ten files."""
    root.mkdir()
    for f in range(10):
        (root / ("f%d.c" % f)).write_text("".join(
            "#define SYM_%d_%d %d\n" % (f, n, n) for n in range(symbols // 10)))


def test_loading_makes_no_per_symbol_objects(tmp_path):
    """A load adds the same few GC-tracked objects whatever the number of
    symbols, so it never sets off a full collection."""
    paths = []
    for symbols in (1000, 5000):
        root = tmp_path / str(symbols)
        _macro_tree(root, symbols)
        paths.append((str(root), str(tmp_path / ("%d.idx" % symbols))))
        codebrowse.save_index(codebrowse.build_index(str(root)), paths[-1][1])

    growth = []
    gc.collect()
    gc.disable()
    try:
        for root, path in paths:
            before = len(gc.get_objects())
            index = codebrowse.load_index(root, path)
            growth.append(len(gc.get_objects()) - before)
            del index
    finally:
        gc.enable()
    assert growth[0] < 50 and growth[1] - growth[0] < 10

    # With everything older frozen and low thresholds, a few hundred new
    # tracked objects would be enough for a full collection.
    full = []

    def watch(phase, info):
        if phase == "start" and info["generation"] == 2:
            full.append(info)

    threshold = gc.get_threshold()
    gc.freeze()
    gc.collect()
    gc.set_threshold(100, 1, 1)
    gc.callbacks.append(watch)
    try:
        for root, path in paths:
            assert codebrowse.load_index(root, path).file_count == 10
    finally:
        gc.callbacks.remove(watch)
        gc.set_threshold(*threshold)
        gc.unfreeze()
    assert full == []


def test_a_load_makes_no_string_per_name(tmp_path):
    """The definition names stay one blob when an index is loaded: the
    blocks that a load allocates in ``codebrowse`` do not grow with the
    number of symbols."""
    blocks = []
    for symbols in (1000, 5000):
        root = tmp_path / str(symbols)
        _macro_tree(root, symbols)
        path = str(tmp_path / ("%d.idx" % symbols))
        codebrowse.save_index(codebrowse.build_index(str(root)), path)
        only = [tracemalloc.Filter(True, codebrowse.__file__)]
        tracemalloc.start()
        try:
            before = tracemalloc.take_snapshot().filter_traces(only)
            index = codebrowse.load_index(str(root), path)
            after = tracemalloc.take_snapshot().filter_traces(only)
        finally:
            tracemalloc.stop()
        blocks.append(sum(stat.count_diff for stat in
                          after.compare_to(before, "filename")))
        assert index.names[symbols - 1] == "SYM_9_%d" % (symbols // 10 - 1)
        del index
    assert blocks[0] < 100 and blocks[1] - blocks[0] < 10


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
               b"(", b";", "\u2028".encode(), b"\x0c", b"->x", b"-x-", b"-",
               b"x", b"_", b"2x")
# Besides plain words: names whose first or last character is not a word
# character, names found only inside longer identifiers, and "-x-", which
# overlaps itself.  The ASCII words among them are looked up in the
# postings; "caf" sits beside "\u00e9", a word character of the decoded
# text but not a word byte, and "x", "y" and "foo" beside "\xff", "\xc3"
# or U+FFFD.
_REF_NAMES = ("foo", "foo_bar", "bar", "caf\u00e9", "x\ufffdy", "\ufffd", "x",
              "y", "foo\nbar", "foo\rbar", "", "absent", "->x", "(foo",
              "foo;", "oo", "_bar", "-x-", "caf", "2x", "2")
# Pieces that names are drawn from besides ``_REF_NAMES``: words, then
# punctuation, "->", a space, "\u00e9", U+FFFD, U+2028 and a lone
# surrogate, which decoded text never holds.  No pieces make the empty name.
_NAME_PIECES = ("foo", "bar", "x", "y", "oo", "2", "_", "(", ";", "->", "-",
                " ", "\u00e9", "\ufffd", "\u2028", "\ud800")
_ref_name = st.one_of(st.sampled_from(_REF_NAMES),
                      st.lists(st.sampled_from(_NAME_PIECES), max_size=4)
                      .map("".join))
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


@settings(max_examples=100, deadline=None)
@given(files=st.lists(_ref_file, min_size=1, max_size=4), name=_ref_name)
# The first two names occur only in the decoded text, where invalid UTF-8
# became U+FFFD.
@example(files=[b"x\xffy;\r\n"], name="x\ufffdy")
@example(files=[b"x\xc3y\r"], name="\ufffd")
@example(files=[b"foo\r\nbar\rfoo\nbar\n"], name="foo\nbar")
@example(files=[b"foo\rfoo\n", b"#define foo 1\nfoo(bar)\n", b"", b"foo"],
         name="foo")
# Only the second, overlapping "-x-" has a word character before it.
@example(files=[b"--x-x-a\n"], name="-x-")
# Posted for "caf", but "\u00e9" makes the decoded text one longer word.
@example(files=[b"caf\xc3\xa9 caf\xff caf\n"], name="caf")
# Each word of the name is a word of the bytes, beside punctuation, a
# space, U+2028 or U+FFFD.
@example(files=[b"a x->foo(bar; x\xe2\x80\xa8foo \xefx\n"],
         name="x->foo(")
@example(files=[b"a x->foo(bar; x\xe2\x80\xa8foo \xefx\n"],
         name="x\u2028foo \ufffdx")
def test_references_match_a_line_scan(tmp_path_factory, files, name):
    """A fresh index and a saved and loaded one give the same references as
    a brute-force line scan, also when truncated at ``limit``; covers CRLF,
    lone CR, invalid UTF-8, non-ASCII names, names no line can hold, and
    names whose whole-word test looks beyond their own first occurrence.
    A name with no ASCII word character, and no line break, is refused."""
    root = tmp_path_factory.mktemp("refs")
    (root / "sub").mkdir()
    for i, raw in enumerate(files):
        (root / ("sub" if i % 2 else ".") / ("f%d.c" % i)).write_bytes(raw)
    fresh = codebrowse.build_index(str(root))
    path = str(tmp_path_factory.mktemp("saved") / "index.tsv")
    codebrowse.save_index(codebrowse.build_index(str(root)), path, "d")
    loaded = codebrowse.load_index(str(root), path, "d")
    expected = _oracle_references(str(root), name)
    refused = not re.search(r"[A-Za-z0-9_\n\r]", name)
    for limit in (1, 2, 10_000):
        want = ("InvalidParams" if refused
                else (expected[:limit], len(expected) > limit))
        assert _references(fresh, name, limit) == want
        assert _references(loaded, name, limit) == want


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


# Lines that define names which are not ASCII.
_UNICODE_LINES = ("#define caf\u00e9_%d 1", "static int \u00fcber_%d;",
                  "struct \u00f1and\u00fa {")


@settings(max_examples=40, deadline=None)
@given(files=st.lists(_file, max_size=4),
       unicode=st.lists(st.tuples(st.sampled_from(_UNICODE_LINES),
                                  st.integers(0, 2)), max_size=4),
       extra=st.lists(st.sampled_from(_REF_NAMES), max_size=3))
def test_a_loaded_index_answers_like_a_fresh_build(tmp_path_factory, files,
                                                   unicode, extra):
    """Every code.* answer of a saved and loaded index equals a fresh
    build's, for defined names, non-ASCII ones and names defined nowhere;
    its names read back as the fresh build's do."""
    root = tmp_path_factory.mktemp("gen")
    (root / "sub").mkdir()
    for i, (lines, final_newline) in enumerate(files):
        (root / ("sub" if i % 2 else ".") / ("f%d.c" % i)).write_bytes(
            _render(lines, final_newline))
    (root / "u.h").write_text("".join(line.replace("%d", str(n)) + "\n"
                                      for line, n in unicode))
    fresh = codebrowse.build_index(str(root))
    path = str(tmp_path_factory.mktemp("saved") / "index.idx")
    codebrowse.save_index(codebrowse.build_index(str(root)), path, "d")
    loaded = codebrowse.load_index(str(root), path, "d")
    assert _answers(loaded, extra) == _answers(fresh, extra)
    names = list(fresh.names)
    assert len(loaded.names) == len(names) and list(loaded.names) == names
    assert loaded.names[::2] == names[::2] and loaded.names[1:-1] == names[1:-1]
    if names:
        assert loaded.names[-len(names)] == names[0]
    with pytest.raises(IndexError):
        loaded.names[-len(names) - 1]


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
