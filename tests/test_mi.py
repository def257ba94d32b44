import os
import re

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from patchrepro import mi
from patchrepro.errors import MalformedRecord
from tests.conftest import MI_DIR


def _corpus_lines():
    with open(os.path.join(MI_DIR, "transcript.txt")) as fh:
        return [ln for ln in fh.read().splitlines()
                if ln and not mi.is_terminator(ln)]


def test_corpus_parses_completely():
    lines = _corpus_lines()
    assert len(lines) >= 20
    for line in lines:
        mi.parse_mi_record(line)


def test_corpus_round_trip_fixpoint():
    for line in _corpus_lines():
        rec = mi.parse_mi_record(line)
        once = mi.serialize_mi_record(rec)
        assert once == line
        twice = mi.serialize_mi_record(mi.parse_mi_record(once))
        assert twice == once


def test_malformed_corpus_raises():
    with open(os.path.join(MI_DIR, "malformed.txt")) as fh:
        lines = [ln for ln in fh.read().splitlines() if ln]
    assert len(lines) == 3
    for line in lines:
        with pytest.raises(MalformedRecord):
            mi.parse_mi_record(line)


def test_record_classes():
    assert mi.parse_mi_record("^done").cls == "result"
    assert mi.parse_mi_record("5^error,msg=\"x\"").token == 5
    assert mi.parse_mi_record("*stopped,reason=\"exited\"").cls == "exec_async"
    assert mi.parse_mi_record("=thread-created,id=\"1\"").cls == "notify_async"
    assert mi.parse_mi_record("+download,progress=\"1\"").cls == "notify_async"
    assert mi.parse_mi_record('~"hi\\n"').cls == "console_stream"
    assert mi.parse_mi_record('@"raw"').cls == "target_stream"
    assert mi.parse_mi_record('&"log"').cls == "log_stream"
    assert mi.is_terminator("(gdb)")
    assert mi.is_terminator("(gdb) ")


def test_structured_payload_access():
    rec = mi.parse_mi_record(
        '*stopped,reason="breakpoint-hit",frame={func="f",'
        'args=[{name="a",value="1"}],line="7"}')
    assert rec.kind == "stopped"
    assert rec.get("reason") == "breakpoint-hit"
    assert rec.get("frame", "func") == "f"
    assert rec.get("frame", "args")[0]["name"] == "a"
    assert rec.get("frame", "missing", default="d") == "d"


def test_escape_round_trip_in_streams():
    line = '~"tab\\there \\"quoted\\" and\\nnewline\\\\done"'
    rec = mi.parse_mi_record(line)
    assert mi.serialize_mi_record(rec) == line
    text = rec.payload["text"]
    assert "\t" in text and "\n" in text and '"' in text


def test_malformed_variants():
    for line in ("", "^", "~unquoted", '3~"stream with token"',
                 '^done,="noname"', '^done,k="v" trailing'):
        with pytest.raises(MalformedRecord):
            mi.parse_mi_record(line)


_TEXT = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=126),
    max_size=20)


@settings(max_examples=100, deadline=None)
@given(token=st.one_of(st.none(), st.integers(0, 999)),
       kind=st.sampled_from(["done", "running", "error"]),
       pairs=st.dictionaries(
           st.from_regex(r"[a-z][a-z0-9-]{0,8}", fullmatch=True),
           _TEXT, max_size=4))
def test_result_record_round_trip_property(token, kind, pairs):
    """Any serialized result record reparses to an equal record."""
    rec = mi.MiRecord(token=token, cls="result", kind=kind,
                      payload=dict(pairs), prefix="^")
    line = mi.serialize_mi_record(rec)
    back = mi.parse_mi_record(line)
    assert back.token == token
    assert back.kind == kind
    assert back.payload == pairs
    assert mi.serialize_mi_record(back) == line


@settings(max_examples=100, deadline=None)
@given(text=st.text(max_size=40))
def test_stream_escape_unescape_property(text):
    rec = mi.MiRecord(token=None, cls="console_stream", kind="",
                      payload={"text": text}, prefix="~")
    try:
        line = mi.serialize_mi_record(rec)
    except ValueError:
        return  # characters outside the supported escape set
    back = mi.parse_mi_record(line)
    assert back.payload["text"] == text


# --- oracle: the character-at-a-time parser this module used to have -------
# Kept verbatim as the reference for the tokenizer.  It differs on purpose in
# three places, each tested on its own below: nesting deeper than
# MAX_DEPTH (it overflows the stack), non-ASCII token digits (str.isdigit),
# and the escapes \a \b \e \f \v and octal \NNN (it keeps the backslash).

class _Cursor:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def peek(self):
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self):
        ch = self.peek()
        self.pos += 1
        return ch

    def expect(self, ch):
        if self.take() != ch:
            raise MalformedRecord("expected %r at %d in %r"
                                  % (ch, self.pos - 1, self.text))

    @property
    def done(self):
        return self.pos >= len(self.text)


def _oracle_unescape(body):
    out = []
    i = 0
    while i < len(body):
        ch = body[i]
        if ch == "\\" and i + 1 < len(body):
            nxt = body[i + 1]
            out.append({"n": "\n", "t": "\t", "r": "\r",
                        '"': '"', "\\": "\\"}.get(nxt, "\\" + nxt))
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def _oracle_cstring(cur):
    cur.expect('"')
    out = []
    while True:
        if cur.done:
            raise MalformedRecord("unterminated string in %r" % cur.text)
        ch = cur.take()
        if ch == "\\":
            if cur.done:
                raise MalformedRecord("dangling escape in %r" % cur.text)
            out.append("\\" + cur.take())
        elif ch == '"':
            break
        else:
            out.append(ch)
    return _oracle_unescape("".join(out))


def _oracle_value(cur):
    ch = cur.peek()
    if ch == '"':
        return _oracle_cstring(cur)
    if ch == "{":
        cur.take()
        tup = {}
        if cur.peek() == "}":
            cur.take()
            return tup
        while True:
            key, val = _oracle_result(cur)
            tup[key] = val
            nxt = cur.take()
            if nxt == "}":
                return tup
            if nxt != ",":
                raise MalformedRecord("bad tuple separator in %r" % cur.text)
    if ch == "[":
        cur.take()
        items = []
        if cur.peek() == "]":
            cur.take()
            return items
        while True:
            if cur.peek() in '"{[':
                items.append(_oracle_value(cur))
            else:
                items.append(_oracle_result(cur))
            nxt = cur.take()
            if nxt == "]":
                return items
            if nxt != ",":
                raise MalformedRecord("bad list separator in %r" % cur.text)
    raise MalformedRecord("expected value at %d in %r" % (cur.pos, cur.text))


def _oracle_result(cur):
    start = cur.pos
    while not cur.done and (cur.peek().isalnum() or cur.peek() in "-_"):
        cur.take()
    name = cur.text[start:cur.pos]
    if not name:
        raise MalformedRecord("expected variable at %d in %r" % (cur.pos, cur.text))
    cur.expect("=")
    return name, _oracle_value(cur)


def _oracle_results(cur):
    payload = {}
    while not cur.done:
        cur.expect(",")
        key, val = _oracle_result(cur)
        payload[key] = val
    return payload


def _oracle_parse(line):
    line = line.rstrip("\r\n")
    if not line:
        raise MalformedRecord("empty line")
    if mi.is_terminator(line):
        raise MalformedRecord("terminator marker is not a record")

    cur = _Cursor(line)
    tok_start = cur.pos
    while cur.peek().isdigit():
        cur.take()
    token = int(line[tok_start:cur.pos]) if cur.pos > tok_start else None

    ch = cur.peek()
    if ch in mi._STREAM_PREFIX:
        if token is not None:
            raise MalformedRecord("stream records take no token: %r" % line)
        cur.take()
        text = _oracle_cstring(cur)
        if not cur.done:
            raise MalformedRecord("trailing junk in %r" % line)
        return mi.MiRecord(None, mi._STREAM_PREFIX[ch], "", {"text": text},
                           prefix=ch)
    if ch == "^" or ch in mi._ASYNC_PREFIX:
        cur.take()
        start = cur.pos
        while not cur.done and (cur.peek().isalnum() or cur.peek() == "-"):
            cur.take()
        kind = line[start:cur.pos]
        if not kind:
            raise MalformedRecord("missing record class in %r" % line)
        payload = _oracle_results(cur)
        cls = mi.RESULT if ch == "^" else mi._ASYNC_PREFIX[ch]
        return mi.MiRecord(token, cls, kind, payload, prefix=ch)
    raise MalformedRecord("line fits no MI production: %r" % line)


def _outcome(parse, line):
    """The record, or the type of the exception raised instead."""
    try:
        return parse(line)
    except Exception as exc:
        return type(exc)


def _assert_agrees_with_oracle(line):
    assert _outcome(mi.parse_mi_record, line) == _outcome(_oracle_parse, line), line


_SEPARATORS = ',}]="'


def test_corpus_truncations_and_separator_swaps_match_oracle():
    variants = 0
    for line in _corpus_lines():
        for cut in range(len(line) + 1):
            _assert_agrees_with_oracle(line[:cut])
            variants += 1
        for i, ch in enumerate(line):
            if ch in _SEPARATORS:
                for other in _SEPARATORS.replace(ch, ""):
                    _assert_agrees_with_oracle(line[:i] + other + line[i + 1:])
                    variants += 1
    assert variants > 2000


# Generated MI lines.  C-string bodies hold plain characters and escapes the
# oracle decodes the same way (known ones and unknown ones such as \q); lines
# where a backslash is followed by an octal digit or one of a b e f v are left
# out, because there the tokenizer decodes a newer escape.
_NEW_ESCAPE = re.compile(r"\\[0-7abefv]")
_PLAIN = st.sampled_from(list("AZz89 ,={}[]()\té "))
_ESCAPED = st.sampled_from(["\\n", "\\t", "\\r", '\\"', "\\\\", "\\q", "\\8",
                            "\\é", "\\ "])
_CSTR = st.lists(st.one_of(_PLAIN, _ESCAPED), max_size=6).map(
    lambda parts: '"%s"' % "".join(parts))
_NAME = st.text(alphabet="az09-_é²٣", min_size=1, max_size=5)


def _containers(children):
    result = st.tuples(_NAME, children).map("%s=%s".__mod__)
    return st.one_of(
        st.lists(result, max_size=3).map(lambda xs: "{%s}" % ",".join(xs)),
        st.lists(st.one_of(children, result), max_size=3).map(
            lambda xs: "[%s]" % ",".join(xs)))


_VALUE = st.recursive(_CSTR, _containers, max_leaves=8)


@st.composite
def _mi_lines(draw):
    token = draw(st.one_of(st.just(""),
                           st.from_regex(r"[0-9]{1,4}", fullmatch=True)))
    prefix = draw(st.sampled_from("^*+=~@&"))
    if prefix in "~@&":
        line = token + prefix + draw(_CSTR)
    else:
        kind = draw(st.text(alphabet="adgnoru-_é٣", max_size=8))
        results = draw(st.lists(st.tuples(_NAME, _VALUE), max_size=4))
        line = token + prefix + kind + "".join(",%s=%s" % r for r in results)
    for _ in range(draw(st.integers(0, 2))):  # corrupt separators and quotes
        i = draw(st.integers(0, len(line)))
        sep = draw(st.sampled_from(_SEPARATORS + "{["))
        how = draw(st.sampled_from(["insert", "replace", "delete"]))
        if how == "insert":
            line = line[:i] + sep + line[i:]
        elif i < len(line) and line[i] in _SEPARATORS + "{[":
            line = line[:i] + (sep if how == "replace" else "") + line[i + 1:]
    return line + draw(st.sampled_from(["", "\n", "\r\n", " "]))


@settings(max_examples=200, deadline=None)
@given(line=_mi_lines())
def test_generated_records_match_oracle(line):
    assume(not _NEW_ESCAPE.search(line))
    _assert_agrees_with_oracle(line)


# Lists of tuples of c-string results, the shape of register and memory
# dumps, and the same lists with one change that takes them off that shape
# or puts a backslash late in them.
_FLAT_CSTR = st.lists(st.one_of(_PLAIN, st.just("\r")), max_size=6).map(
    lambda parts: '"%s"' % "".join(parts))
_TWISTS = ("escape", "empty_tuple", "duplicate_key", "tuple_value",
           "list_value", "named_item", "cut", "swapped_separator")


@st.composite
def _flat_lists(draw):
    tuples = draw(st.lists(
        st.lists(st.tuples(_NAME, _FLAT_CSTR), min_size=1, max_size=4),
        min_size=1, max_size=70))
    twist = draw(st.one_of(st.none(), st.sampled_from(_TWISTS)))
    late = draw(st.integers(len(tuples) // 2, len(tuples) - 1))
    results = tuples[late]
    at = draw(st.integers(0, len(results) - 1))
    name, body = results[at]
    if twist == "escape":
        cut = draw(st.integers(1, len(body) - 1))
        results[at] = (name, body[:cut] + draw(_ESCAPED) + body[cut:])
    elif twist == "duplicate_key":
        results.append((name, draw(_FLAT_CSTR)))
    elif twist == "tuple_value":
        results[at] = (name, "{%s=%s}" % (draw(_NAME), body))
    elif twist == "list_value":
        results[at] = (name, "[%s]" % body)
    items = ["{%s}" % ",".join("%s=%s" % r for r in t) for t in tuples]
    if twist == "empty_tuple":
        items.insert(late, "{}")
    elif twist == "named_item":
        items[late] = "%s=%s" % (draw(_NAME), items[late])
    line = "^done,register-values=[%s]" % ",".join(items)
    if twist == "cut":
        line = line[:draw(st.integers(0, len(line) - 1))]
    elif twist == "swapped_separator":
        at = draw(st.sampled_from([i for i, ch in enumerate(line)
                                   if ch in _SEPARATORS]))
        other = draw(st.sampled_from(_SEPARATORS.replace(line[at], "")))
        line = line[:at] + other + line[at + 1:]
    return line


@settings(max_examples=300, deadline=None)
@given(line=_flat_lists())
@example(line='^done,r=[{a="1"},{a="x\\ty"}]')
@example(line='^done,r=[{a="1"},{a="x\\",b="y"}]')
@example(line='^done,r=[{a="1",b="2",a="3"},{a="4"}]')
def test_flat_lists_match_oracle(line):
    """Equal records, same key order too, or the same exception."""
    assume(not _NEW_ESCAPE.search(line))
    got, want = _outcome(mi.parse_mi_record, line), _outcome(_oracle_parse, line)
    assert got == want, line
    if isinstance(got, mi.MiRecord):
        assert mi.serialize_mi_record(got) == mi.serialize_mi_record(want)


@pytest.mark.parametrize("escaped, text", [
    ("\\n", "\n"), ("\\t", "\t"), ("\\r", "\r"), ('\\"', '"'), ("\\\\", "\\"),
    ("\\a", "\a"), ("\\b", "\b"), ("\\e", "\x1b"), ("\\f", "\f"),
    ("\\v", "\v"), ("\\0", "\0"), ("\\12", "\n"), ("\\177", "\x7f"),
    ("\\0011", "\x011"), ("\\400", "Ā"), ("\\q", "\\q"), ("\\8", "\\8"),
    ("\\\\0", "\\0"),
])
def test_cstring_escapes(escaped, text):
    assert mi.parse_cstring('"%s"' % escaped) == text
    assert mi.parse_mi_record('~"%s"' % escaped).payload["text"] == text


def test_control_characters_are_written_as_octal():
    text = "\0\a\b\x1b\f\v\x1f\x7f\n\t\r\"\\é"
    quoted = mi.quote_cstring(text)
    assert quoted == ('"\\000\\007\\010\\033\\014\\013\\037\\177'
                      '\\n\\t\\r\\"\\\\é"')
    assert mi.parse_cstring(quoted) == text


def test_nesting_deeper_than_the_limit_is_malformed():
    for opener, closer in ("[]", "{}"):
        def line(depth):
            return ("^done," + "x=" + (opener + "x=") * (depth - 1) + opener
                    + closer * depth)
        assert mi.parse_mi_record(line(mi.MAX_DEPTH)).kind == "done"
        for depth in (mi.MAX_DEPTH + 1, 5000):
            with pytest.raises(MalformedRecord):
                mi.parse_mi_record(line(depth))

    # A flat list of c-string tuples, its tuples at ``depth`` (the record's
    # own results are at 0): the limit holds for it as for any tuple.
    def flat(depth):
        return ("^done,x=" + "[x=" * (depth - 1) + '[{a="1"},{b="2"}]'
                + "]" * (depth - 1))
    line = flat(mi.MAX_DEPTH - 1)
    assert mi.parse_mi_record(line) == _oracle_parse(line)
    with pytest.raises(MalformedRecord):
        mi.parse_mi_record(flat(mi.MAX_DEPTH))


def test_token_digits_are_ascii():
    assert mi.parse_mi_record("0042^done").token == 42
    for line in ("²^done", "٣^done", "1²^done"):
        with pytest.raises(MalformedRecord):
            mi.parse_mi_record(line)
