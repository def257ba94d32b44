"""Parser and serializer for the debugger's MI line protocol.

One complete output line in, one classified record out.  The grammar is the
published MI syntax: result records (``^``), async records (``*``, ``+``,
``=``), stream records (``~``, ``@``, ``&``), and the ``(gdb)`` terminator
marker.  Payloads are key-to-value trees; unknown fields are preserved
verbatim so that parse -> serialize -> parse is a fixpoint.
"""

from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

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


def _unescape(body: str) -> str:
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


def _escape(text: str) -> str:
    return (text.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n").replace("\t", "\\t").replace("\r", "\\r"))


def _parse_cstring(cur: _Cursor) -> str:
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
    return _unescape("".join(out))


def quote_cstring(text: str) -> str:
    """``text`` as one MI c-string: quoted, with backslash, double quote,
    newline, tab and carriage return escaped, so it stays one argument on
    one line."""
    return '"%s"' % _escape(text)


def parse_cstring(text: str) -> str:
    """The value of one whole c-string such as ``quote_cstring`` makes."""
    cur = _Cursor(text)
    value = _parse_cstring(cur)
    if not cur.done:
        raise MalformedRecord("trailing junk in %r" % text)
    return value


def _parse_value(cur: _Cursor) -> MiValue:
    ch = cur.peek()
    if ch == '"':
        return _parse_cstring(cur)
    if ch == "{":
        cur.take()
        tup = {}
        if cur.peek() == "}":
            cur.take()
            return tup
        while True:
            key, val = _parse_result(cur)
            tup[key] = val
            nxt = cur.take()
            if nxt == "}":
                return tup
            if nxt != ",":
                raise MalformedRecord("bad tuple separator in %r" % cur.text)
    if ch == "[":
        cur.take()
        items: List = []
        if cur.peek() == "]":
            cur.take()
            return items
        while True:
            if cur.peek() in '"{[':
                items.append(_parse_value(cur))
            else:
                items.append(_parse_result(cur))
            nxt = cur.take()
            if nxt == "]":
                return items
            if nxt != ",":
                raise MalformedRecord("bad list separator in %r" % cur.text)
    raise MalformedRecord("expected value at %d in %r" % (cur.pos, cur.text))


def _parse_result(cur: _Cursor) -> Tuple[str, MiValue]:
    start = cur.pos
    while not cur.done and (cur.peek().isalnum() or cur.peek() in "-_"):
        cur.take()
    name = cur.text[start:cur.pos]
    if not name:
        raise MalformedRecord("expected variable at %d in %r" % (cur.pos, cur.text))
    cur.expect("=")
    return name, _parse_value(cur)


def _parse_results(cur: _Cursor) -> dict:
    payload = {}
    while not cur.done:
        cur.expect(",")
        key, val = _parse_result(cur)
        payload[key] = val
    return payload


def parse_mi_record(line: str) -> MiRecord:
    """Parse one complete MI output line; the terminator is not a record."""
    line = line.rstrip("\r\n")
    if not line:
        raise MalformedRecord("empty line")
    if is_terminator(line):
        raise MalformedRecord("terminator marker is not a record")

    cur = _Cursor(line)
    tok_start = cur.pos
    while cur.peek().isdigit():
        cur.take()
    token = int(line[tok_start:cur.pos]) if cur.pos > tok_start else None

    ch = cur.peek()
    if ch in _STREAM_PREFIX:
        if token is not None:
            raise MalformedRecord("stream records take no token: %r" % line)
        cur.take()
        text = _parse_cstring(cur)
        if not cur.done:
            raise MalformedRecord("trailing junk in %r" % line)
        return MiRecord(None, _STREAM_PREFIX[ch], "", {"text": text}, prefix=ch)
    if ch == "^" or ch in _ASYNC_PREFIX:
        cur.take()
        start = cur.pos
        while not cur.done and (cur.peek().isalnum() or cur.peek() == "-"):
            cur.take()
        kind = line[start:cur.pos]
        if not kind:
            raise MalformedRecord("missing record class in %r" % line)
        payload = _parse_results(cur)
        cls = RESULT if ch == "^" else _ASYNC_PREFIX[ch]
        return MiRecord(token, cls, kind, payload, prefix=ch)
    raise MalformedRecord("line fits no MI production: %r" % line)


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
