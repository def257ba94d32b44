"""Parser and serializer for the debugger's MI line protocol.

One complete output line in, one classified record out.  The grammar is the
published MI syntax: result records (``^``), async records (``*``, ``+``,
``=``), stream records (``~``, ``@``, ``&``), and the ``(gdb)`` terminator
marker.  Payloads are key-to-value trees; unknown fields are preserved
verbatim so that parse -> serialize -> parse is a fixpoint.

A line is read by compiled patterns matched at a position (record head,
c-string, variable name) and by recursive descent over those positions.  A
list of tuples of c-string results with no backslash in it, the shape of
register and memory dumps, is matched whole by one pattern and read in one
pass.
"""

import re
from dataclasses import dataclass, field
from typing import Optional, Tuple, Union

from .errors import MalformedRecord

RESULT = "result"
EXEC_ASYNC = "exec_async"
NOTIFY_ASYNC = "notify_async"
CONSOLE_STREAM = "console_stream"
TARGET_STREAM = "target_stream"
LOG_STREAM = "log_stream"

TERMINATOR = "(gdb)"

_STREAM_PREFIX = {"~": CONSOLE_STREAM, "@": TARGET_STREAM, "&": LOG_STREAM}
_STREAM_CHAR = {v: k for k, v in _STREAM_PREFIX.items()}
# Status async ("+") carries progress notifications; it shares the
# notify_async class but keeps its own prefix for round-tripping.
_ASYNC_PREFIX = {"*": EXEC_ASYNC, "=": NOTIFY_ASYNC, "+": NOTIFY_ASYNC}

# Lists and tuples nest at most this deep; real replies nest a few levels.
MAX_DEPTH = 64

# On every code point, ``\w`` is ``str.isalnum()`` plus ``_``: a variable
# name is ``[\w-]+``, a record class ``([^\W_]|-)+``.  Token digits are ASCII.
_HEAD = re.compile(r"([0-9]*)([~@&^*+=])((?:[^\W_]|-)*)")
_CSTRING = re.compile(r'"([^"\\]*(?:\\.[^"\\]*)*)"', re.S)
# A result, ``name=``, with its value too when that value is a c-string.
_RESULT = re.compile(r"([\w-]+)=(?:%s)?" % _CSTRING.pattern, re.S)
_ESCAPE = re.compile(r"\\(?:([0-7]{1,3})|(.))", re.S)
# A list of tuples whose results are all c-strings, each item maybe named:
# register and memory dumps, frame lists.  Bodies are read as ``[^"]*``,
# which is a c-string's whole body only where the span holds no backslash.
_FLAT_RESULT = r'[\w-]+="[^"]*"'
_FLAT_ITEM = r"(?:[\w-]+=)?\{%s(?:,%s)*\}" % (_FLAT_RESULT, _FLAT_RESULT)
_FLAT_LIST = re.compile(r"\[%s(?:,%s)*\]" % (_FLAT_ITEM, _FLAT_ITEM))

# GDB's c-string escapes, octal ``\NNN`` included; any other escaped
# character is kept as a backslash and that character.
_UNESCAPES = {"n": "\n", "t": "\t", "r": "\r", '"': '"', "\\": "\\",
              "a": "\a", "b": "\b", "e": "\x1b", "f": "\f", "v": "\v"}
# Written: backslash, double quote, newline, tab and carriage return by
# name, and every other C0 control character and DEL as ``\NNN``.
_ESCAPES = {c: "\\%03o" % c for c in (*range(32), 127)}
_ESCAPES.update({ord("\\"): "\\\\", ord('"'): '\\"', ord("\n"): "\\n",
                 ord("\t"): "\\t", ord("\r"): "\\r"})

# Payload value: c-string, tuple (dict), or list whose items are values or
# named ("key", value) pairs.
MiValue = Union[str, dict, list]


@dataclass
class MiRecord:
    token: Optional[int]
    cls: str
    kind: str  # done/error/stopped/running/... or "" for streams
    payload: MiValue = field(default_factory=dict)
    prefix: str = ""  # original record character, kept for serialization

    def get(self, *path, default=None):
        node = self.payload
        for key in path:
            if isinstance(node, dict) and key in node:
                node = node[key]
            else:
                return default
        return node


def is_terminator(line: str) -> bool:
    return line.strip() == TERMINATOR


def _unescape_one(match) -> str:
    octal, char = match.groups()
    if octal:
        return chr(int(octal, 8))
    return _UNESCAPES.get(char, "\\" + char)


def _decode(body: str) -> str:
    return _ESCAPE.sub(_unescape_one, body) if "\\" in body else body


def _cstring(text: str, pos: int) -> Tuple[str, int]:
    """The c-string that starts at ``pos`` and the position just after it."""
    match = _CSTRING.match(text, pos)
    if match is None:
        raise MalformedRecord("unquoted or unterminated string at %d in %r"
                              % (pos, text))
    return _decode(match.group(1)), match.end()


def quote_cstring(text: str) -> str:
    """``text`` as one MI c-string: quoted, with backslash, double quote,
    newline, tab and carriage return escaped by name and every other
    control character as octal, so it stays one argument on one line."""
    return '"%s"' % text.translate(_ESCAPES)


def parse_cstring(text: str) -> str:
    """The value of one whole c-string such as ``quote_cstring`` makes."""
    value, end = _cstring(text, 0)
    if end != len(text):
        raise MalformedRecord("trailing junk in %r" % text)
    return value


def _flat_items(span: str) -> list:
    """The items of a list ``_FLAT_LIST`` matched whole, with no backslash
    in it.  Split at ``"``, the span alternates punctuation-and-name parts
    with c-string bodies, each body the value of the name just before it."""
    parts = span.split('"')
    items = []
    for sep, body in zip(parts[::2], parts[1::2]):
        if sep[0] == ",":  # ',name=': the tuple's next result
            node[sep[1:-1]] = body
        else:  # '[' or '},', maybe 'item=', then '{name=': a new tuple
            brace = sep.index("{")
            node = {sep[brace + 1:-1]: body}
            items.append(node if sep[brace - 1] != "=" else
                         (sep[:brace - 1].lstrip("[},"), node))
    return items


def _parse_value(text: str, pos: int, depth: int) -> Tuple[MiValue, int]:
    """The value that starts at ``pos`` and the position just after it."""
    opener = text[pos:pos + 1]
    if opener == '"':
        return _cstring(text, pos)
    if opener == "{":
        node, close = {}, "}"
    elif opener == "[":
        if depth + 1 < MAX_DEPTH:  # its tuples must parse at depth + 1
            flat = _FLAT_LIST.match(text, pos)
            if flat is not None and text.find("\\", pos, flat.end()) < 0:
                return _flat_items(flat.group()), flat.end()
        node, close = [], "]"
    else:
        raise MalformedRecord("expected value at %d in %r" % (pos, text))
    if depth >= MAX_DEPTH:
        raise MalformedRecord("nested deeper than %d at %d" % (MAX_DEPTH, pos))
    pos += 1
    if text.startswith(close, pos):
        return node, pos + 1
    while True:
        if close == "]" and text[pos:pos + 1] in '"{[':
            item, pos = _parse_value(text, pos, depth + 1)
            node.append(item)
        else:
            name, item, pos = _parse_result(text, pos, depth + 1)
            if close == "}":
                node[name] = item
            else:
                node.append((name, item))
        sep = text[pos:pos + 1]
        if sep == close:
            return node, pos + 1
        if sep != ",":
            raise MalformedRecord("bad separator at %d in %r" % (pos, text))
        pos += 1


def _parse_result(text: str, pos: int, depth: int) -> Tuple[str, MiValue, int]:
    """The ``name=value`` that starts at ``pos``: name, value, next position."""
    match = _RESULT.match(text, pos)
    if match is None:
        raise MalformedRecord("expected variable at %d in %r" % (pos, text))
    name, body = match.groups()
    if body is None:
        return (name, *_parse_value(text, match.end(), depth))
    return name, _decode(body), match.end()


def parse_mi_record(line: str) -> MiRecord:
    """Parse one complete MI output line; the terminator is not a record."""
    line = line.rstrip("\r\n")
    if not line:
        raise MalformedRecord("empty line")
    if is_terminator(line):
        raise MalformedRecord("terminator marker is not a record")

    head = _HEAD.match(line)
    if head is None:
        raise MalformedRecord("line fits no MI production: %r" % line)
    digits, ch, kind = head.groups()
    if ch in _STREAM_PREFIX:
        if digits:
            raise MalformedRecord("stream records take no token: %r" % line)
        text, end = _cstring(line, head.end(2))
        if end != len(line):
            raise MalformedRecord("trailing junk in %r" % line)
        return MiRecord(None, _STREAM_PREFIX[ch], "", {"text": text},
                        prefix=ch)
    if not kind:
        raise MalformedRecord("missing record class in %r" % line)
    payload = {}
    pos, end = head.end(), len(line)
    while pos < end:
        if line[pos] != ",":
            raise MalformedRecord("expected ',' at %d in %r" % (pos, line))
        name, value, pos = _parse_result(line, pos + 1, 0)
        payload[name] = value
    cls = RESULT if ch == "^" else _ASYNC_PREFIX[ch]
    return MiRecord(int(digits) if digits else None, cls, kind, payload,
                    prefix=ch)


def _serialize_value(value: MiValue) -> str:
    if isinstance(value, str):
        return quote_cstring(value)
    if isinstance(value, dict):
        return "{%s}" % ",".join(
            "%s=%s" % (k, _serialize_value(v)) for k, v in value.items())
    if isinstance(value, list):
        parts = []
        for item in value:
            if isinstance(item, tuple):
                parts.append("%s=%s" % (item[0], _serialize_value(item[1])))
            else:
                parts.append(_serialize_value(item))
        return "[%s]" % ",".join(parts)
    raise TypeError("unserializable payload node %r" % (value,))


def serialize_mi_record(rec: MiRecord) -> str:
    if rec.cls in _STREAM_CHAR:
        return "%s%s" % (rec.prefix or _STREAM_CHAR[rec.cls],
                         _serialize_value(rec.payload["text"]))
    prefix = rec.prefix or ("^" if rec.cls == RESULT
                            else "*" if rec.cls == EXEC_ASYNC else "=")
    tok = "" if rec.token is None else str(rec.token)
    body = "".join(",%s=%s" % (k, _serialize_value(v))
                   for k, v in rec.payload.items())
    return "%s%s%s%s" % (tok, prefix, rec.kind, body)
