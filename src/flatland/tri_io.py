"""Reading and writing the `.tri` text format and its JSON mirror.

`.tri`: line 1 is `n f`; then f lines `a b c` with 0 <= a < b < c < n, faces
in lexicographic order; `#` begins a comment line; UTF-8, LF line endings.
Integers are ASCII `-?[0-9]+` of at most 4300 digits, the most `int()` reads.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path
from typing import Iterable, Optional

from .surface import Triangulation


class TriFormatError(ValueError):
    """Malformed `.tri` or JSON triangulation input.  Names the line where
    the fault is, if it has one (a wrong face count is at the header): a
    missing header and a fault in the decoded JSON value (a face without
    three vertices, a vertex that is no integer) have none."""

    def __init__(self, line: Optional[int], message: str):
        super().__init__(message if line is None else f"line {line}: {message}")


_INTEGER = re.compile(r"-?[0-9]+")
_MAX_DIGITS = sys.int_info.default_max_str_digits
_TOO_LONG = f"a number has more than {_MAX_DIGITS} digits"


def _integers(lineno: int, tokens: list[str], what: str) -> list[int]:
    if not all(_INTEGER.fullmatch(t) for t in tokens):
        raise TriFormatError(lineno, f"{what} must be integers")
    if any(len(t.lstrip("-")) > _MAX_DIGITS for t in tokens):
        raise TriFormatError(lineno, _TOO_LONG)
    return [int(t) for t in tokens]


def parse_tri(text: str) -> tuple[int, list[tuple[int, int, int]]]:
    header: list[int] | None = None
    faces: list[tuple[int, int, int]] = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if header is None:
            if len(parts) != 2:
                raise TriFormatError(lineno, "expected header `n f`")
            header_line, header = lineno, _integers(lineno, parts, "header values")
            continue
        if len(parts) != 3:
            raise TriFormatError(lineno, "expected a face `a b c`")
        a, b, c = _integers(lineno, parts, "face vertices")
        if not a < b < c:
            raise TriFormatError(lineno, f"face {a} {b} {c} is not strictly increasing")
        faces.append((a, b, c))
    if header is None:
        raise TriFormatError(None, "missing header `n f`")
    n, f = header
    if len(faces) != f:
        raise TriFormatError(header_line, f"header promised {f} faces, found {len(faces)}")
    return n, faces


def read_tri(path: str | Path) -> tuple[int, list[tuple[int, int, int]]]:
    text = Path(path).read_text(encoding="utf-8")
    if str(path).endswith(".json"):
        return from_json(text)
    return parse_tri(text)


def format_tri(t: Triangulation, comments: Iterable[str] = ()) -> str:
    lines = [f"# {c}" for c in comments]
    lines.append(f"{t.n} {t.f2}")
    lines.extend(f"{a} {b} {c}" for a, b, c in t.faces)
    return "\n".join(lines) + "\n"


def write_tri(t: Triangulation, path: str | Path, comments: Iterable[str] = ()) -> None:
    Path(path).write_text(format_tri(t, comments), encoding="utf-8", newline="\n")


def to_json_dict(t: Triangulation) -> dict:
    return {"n": t.n, "faces": [list(f) for f in t.faces]}


def _integer(value: object) -> int:
    """A value the schema types as an integer: 7 or 7.0, not 7.5, "7" or true."""
    if type(value) is int or isinstance(value, float) and value.is_integer():
        return int(value)
    raise TypeError(f"{value!r} is not an integer")


def from_json(text: str) -> tuple[int, list[tuple[int, int, int]]]:
    def integer(token: str) -> int:
        if len(token.lstrip("-")) > _MAX_DIGITS:  # name the line where it first appears
            raise TriFormatError(text.count("\n", 0, text.find(token)) + 1, _TOO_LONG)
        return int(token)

    try:
        payload = json.loads(text, parse_int=integer)
        n = _integer(payload["n"])
        faces = [tuple(_integer(v) for v in f) for f in payload["faces"]]
    except TriFormatError:
        raise
    except json.JSONDecodeError as exc:
        raise TriFormatError(exc.lineno, f"bad JSON: {exc.msg} (column {exc.colno})") from None
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        # RecursionError: the decoder recurses once per nesting level.
        raise TriFormatError(None, f"bad JSON triangulation: {exc}") from None
    bad = [f for f in faces if len(f) != 3]
    if bad:
        raise TriFormatError(None, f"face {bad[0]} does not have three vertices")
    return n, faces  # type: ignore[return-value]
