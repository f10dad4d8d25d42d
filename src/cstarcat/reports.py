"""Report values shared by the CLI and the verification suites.

Reports serialize to JSON with a fixed field order and no volatile fields
(timing is kept out of the payload), so identical seeds and inputs produce
byte-identical report files.

Every text the CLI writes comes from ``json_text``, whose output is byte for
byte ``json.dumps(obj, indent=2)``; ``tests/test_reports.py`` holds it to
that oracle on generated trees. With an indent, CPython's ``json`` runs its
pure-Python encoder, so ``json_text`` writes the same text itself: ASCII
escaping by ``json.encoder.encode_basestring_ascii``, ``NaN`` and
``Infinity`` spelled as json spells them, int, float, bool and ``None`` keys
coerced to strings, and ``TypeError`` on any other value. A list whose
members are all scalars is one join, and a ``matrix_to_json`` matrix (a
regular rows x cols list of ``[re, im]`` float pairs) is one fill of a
cached template. ``Report.dumps`` serializes a payload once and splices that
text into the report, so an artifact file and its report share it.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from itertools import chain

_escape = json.encoder.encode_basestring_ascii
_INF = float("inf")


def _float_text(x: float) -> str:
    if x != x:
        return "NaN"
    if x == _INF:
        return "Infinity"
    if x == -_INF:
        return "-Infinity"
    return float.__repr__(x)


#: the text of a scalar whose type is exactly the key
_SCALAR_TEXT = {
    str: _escape,
    int: int.__repr__,
    float: _float_text,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
}


def _subclass_text(o, nl: str) -> str:
    """Values of a subclass of a JSON type, tested in ``json``'s order."""
    if isinstance(o, str):
        return _escape(o)
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        return _float_text(o)
    if isinstance(o, (list, tuple)):
        return _list_text(o, nl)
    if isinstance(o, dict):
        return _dict_text(o, nl)
    raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


def _text(o, nl: str) -> str:
    """``o`` as ``json.dumps(indent=2)`` writes it on the line that ``nl``
    (a newline and that line's indent) begins."""
    scalar = _SCALAR_TEXT.get(type(o))
    if scalar is not None:
        return scalar(o)
    if type(o) is list:
        return _list_text(o, nl)
    if type(o) is dict:
        return _dict_text(o, nl)
    return _subclass_text(o, nl)


def _join(open_: str, parts, nl: str, close: str) -> str:
    inner = nl + "  "
    return open_ + inner + ("," + inner).join(parts) + nl + close


def _list_text(seq, nl: str) -> str:
    if not seq:
        return "[]"
    if type(seq[0]) is list:
        text = _matrix_text(seq, nl)
        if text is not None:
            return text
    try:
        parts = [_SCALAR_TEXT[type(x)](x) for x in seq]
    except KeyError:
        inner = nl + "  "
        parts = [_text(x, inner) for x in seq]
    return _join("[", parts, nl, "]")


def _key_text(key) -> str:
    if isinstance(key, str):
        return key
    if isinstance(key, float):
        return _float_text(key)
    if key is True:
        return "true"
    if key is False:
        return "false"
    if key is None:
        return "null"
    if isinstance(key, int):
        return int.__repr__(key)
    raise TypeError(f"keys must be str, int, float, bool or None, "
                    f"not {key.__class__.__name__}")


def _dict_text(d: dict, nl: str) -> str:
    if not d:
        return "{}"
    inner = nl + "  "
    parts = [_escape(k if type(k) is str else _key_text(k)) + ": " + _text(v, inner)
             for k, v in d.items()]
    return _join("{", parts, nl, "}")


@functools.lru_cache(maxsize=256)
def _matrix_template(rows: int, cols: int, nl: str) -> str:
    """A %-template of a rows x cols matrix of [re, im] pairs whose opening
    bracket sits on the line that ``nl`` begins."""
    row_nl = nl + "  "
    pair_nl = row_nl + "  "
    num_nl = pair_nl + "  "
    pair = "[" + num_nl + "%r," + num_nl + "%r" + pair_nl + "]"
    row = _join("[", [pair] * cols, row_nl, "]")
    return _join("[", [row] * rows, nl, "]")


def _matrix_text(rows: list, nl: str) -> str | None:
    """The text of a regular list of rows of [re, im] float pairs, or None
    when ``rows`` is not one or holds a nan or an infinity."""
    first = rows[0]
    if not first or type(first[0]) is not list:
        return None
    cols = len(first)
    if set(map(type, rows)) != {list} or set(map(len, rows)) != {cols}:
        return None
    pairs = list(chain.from_iterable(rows))
    if set(map(type, pairs)) != {list} or set(map(len, pairs)) != {2}:
        return None
    values = tuple(chain.from_iterable(pairs))
    if set(map(type, values)) != {float}:
        return None
    text = _matrix_template(len(rows), cols, nl) % values
    # repr spells nan and inf, which json spells NaN and Infinity
    return None if "n" in text else text


def json_text(obj) -> str:
    """``json.dumps(obj, indent=2)``, byte for byte."""
    return _text(obj, "\n")


@dataclass
class CheckEntry:
    """One verdict of a report. A residual that overflowed to an infinity
    or a NaN is written as ``null``, so reports stay standard JSON (RFC
    8259 has no such numbers); the entry keeps its status and detail."""

    name: str
    status: str                 # "pass" | "fail" | "unknown"
    residual: float | None = None
    witness: object = None
    detail: str = ""

    def to_json(self) -> dict:
        out = {"name": self.name, "status": self.status}
        if self.residual is not None:
            out["residual"] = self.residual if math.isfinite(self.residual) else None
        if self.witness is not None:
            out["witness"] = self.witness
        if self.detail:
            out["detail"] = self.detail
        return out


@dataclass
class Report:
    command: str
    checks: list = field(default_factory=list)
    payload: dict | None = None   # command output (category JSON etc.)

    def add(self, name, status, residual=None, witness=None, detail=""):
        self.checks.append(CheckEntry(name, status, residual, witness, detail))

    @property
    def status(self) -> str:
        statuses = {c.status for c in self.checks}
        if "fail" in statuses:
            return "fail"
        if "unknown" in statuses:
            return "unknown"
        return "pass"

    @property
    def exit_code(self) -> int:
        return {"pass": 0, "fail": 1, "unknown": 3}[self.status]

    def to_json(self) -> dict:
        out = {
            "command": self.command,
            "status": self.status,
            "checks": [c.to_json() for c in self.checks],
        }
        if self.payload is not None:
            out["payload"] = self.payload
        return out

    def dumps(self) -> tuple[str, str | None]:
        """The report file's text, and the payload's own file text (None
        without a payload). The payload is serialized once: the report holds
        the same text, indented one level deeper."""
        head = json_text({"command": self.command, "status": self.status,
                          "checks": [c.to_json() for c in self.checks]})
        if self.payload is None:
            return head + "\n", None
        payload = json_text(self.payload)
        # head ends in "\n}"; the payload joins it as its last key
        report = head[:-2] + ',\n  "payload": ' + payload.replace("\n", "\n  ") + "\n}\n"
        return report, payload + "\n"
