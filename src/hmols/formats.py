"""Interchange formats: grid files for squares, JSON for block designs,
and JSON certificates for cyclotomic searches.

Grid files carry 1-based symbols with "." for blanks, matching how the
squares are usually printed; everything else is 0-based JSON.  Both
printers emit a canonical form (sorted holes, lexicographically sorted
blocks, fixed whitespace) so that parse-then-print is byte-identical.

Design and grid files are read as bytes (a str is read as its UTF-8
encoding): the readers scan the bytes directly, and only the part of a
design file that is not its blocks goes to json.loads, decoded as UTF-8.
Bytes that are not UTF-8 raise UnicodeDecodeError, as reading the file
as text would.

Design and grid bodies are printed and parsed as arrays: each distinct
value is formatted once and rows are assembled by table lookups, and the
readers check the body's grammar and convert its numbers in numpy
passes.  A design file written with the developed GF(401) certificate
has 641,600 blocks, so per-entry Python objects would dominate its cost;
the passes run over pieces of rows, so that no pass allocates arrays the
size of the whole body.  The readers write the numbers of each piece, as
int32, into one immutable bytes buffer, which the design or square set
adopts as its frozen array with no further copy.  The printers yield
their output as bytes pieces, each rendered when it is asked for;
design_dumps and grid_dumps join and decode them, and the command line
writes each piece to its file in binary mode as it comes, so that it
holds one piece of the output at a time.
"""

from __future__ import annotations

import io
import itertools
import json
import re

import numpy as np

from . import gf
from .designs import (
    BLANK,
    HOLE_NONE,
    HOLE_SINGLE,
    HOLE_UNIFORM,
    BlockDesign,
    HoleyLatinSquareSet,
    IncompleteMolsSet,
    LatinSquare,
)
from .errors import MalformedInput

# ---------------------------------------------------------------------------
# array text
# ---------------------------------------------------------------------------


_PIECE = 1 << 18  # bytes of text per piece, so a piece's numpy passes stay in cache


def _pieces(start: int, stop: int, width: int = 1, cut=None):
    """Spans (a, b) cutting range(start, stop) into pieces of about
    _PIECE bytes of text, at width bytes per item: every so many items,
    or, with cut, at cut(at), the first row boundary at or after at."""
    step = max(1, _PIECE // width)
    while start < stop:
        end = min(stop, start + step if cut is None else cut(start + step))
        yield start, end
        start = end


def _utf8(text: str | bytes) -> bytes:
    """The bytes a reader scans: a file's bytes as they are, or a str's
    UTF-8 encoding.  Bytes that are not UTF-8 raise UnicodeDecodeError
    here, as reading the file as text raises it."""
    if isinstance(text, str):
        return text.encode("utf-8", "surrogatepass")
    if not text.isascii():
        text.decode("utf-8")
    return text


def _str(data: bytes) -> str:
    """Bytes from _utf8 back as text."""
    return data.decode("utf-8", "surrogatepass")


def _render_rows(arr, cell, head: str, sep: str, tail: str):
    """One line per row of the 2-D integer array arr:
    head + sep.join(cell(v) for v in row) + tail, yielded as bytes in
    pieces of rows, each rendered when it is asked for.

    Every cell is looked up in a table of NUL-padded tokens, one per
    value, which already carries the row's head or its separator; the
    padding is dropped in one pass per piece.
    """
    arr = np.asarray(arr)
    rows, cols = arr.shape
    if arr.size == 0:
        yield ((head + tail) * rows).encode()
        return
    lo, hi = int(arr.min()), int(arr.max())
    dense = hi - lo < arr.size  # the value range is no larger than the array
    values = range(lo, hi + 1) if dense else np.unique(arr)
    words = [cell(int(v)) for v in values]
    first = [head + w + (tail if cols == 1 else sep) for w in words]
    middle = [w + sep for w in words]
    last = [w + tail for w in words]
    width = max(len(w) for w in first + last)
    first, middle, last = (np.array(t, dtype=f"S{width}") for t in (first, middle, last))
    for a, b in _pieces(0, rows, width * cols):
        idx = np.subtract(arr[a:b], lo, dtype=np.intp) if dense else \
            np.searchsorted(values, arr[a:b])
        out = np.empty(idx.shape, dtype=first.dtype)
        out[:, 0] = first[idx[:, 0]]
        if cols > 1:
            out[:, 1:-1] = middle[idx[:, 1:-1]]
            out[:, -1] = last[idx[:, -1]]
        buf = out.view(np.uint8)
        yield buf[buf != 0].tobytes()


# ---------------------------------------------------------------------------
# grid files
# ---------------------------------------------------------------------------


def _cell_str(x: int) -> str:
    return "." if x == BLANK else str(x + 1)


def _holes_str(holes) -> str:
    return "|".join(",".join(str(x + 1) for x in cell) for cell in holes)


def _number(tok: str) -> int:
    """A header number or hole entry: ASCII digits, no sign, no leading zero."""
    if not re.fullmatch(r"0|[1-9][0-9]*", tok):
        raise MalformedInput(f"bad number {tok!r} in the grid header")
    return int(tok)


def _parse_hole(text: str) -> tuple:
    return tuple(_number(x) - 1 for x in text.split(","))


def grid_dumps(obj) -> str:
    """Canonical grid text for a latin square, HMOLS set, or IMOLS set."""
    return b"".join(_grid_pieces(obj)).decode("ascii")


def _grid_pieces(obj):
    """The pieces of grid_dumps(obj), in order, as bytes, each rendered
    when it is asked for."""
    if isinstance(obj, LatinSquare):
        head = f"latin {obj.n}\n"
        squares = [obj.cells]
    elif isinstance(obj, HoleyLatinSquareSet):
        head = f"hmols {obj.k} {obj.h} {obj.n}\nholes {_holes_str(obj.holes)}\n"
        squares = obj.squares
    elif isinstance(obj, IncompleteMolsSet):
        hole = ",".join(str(x + 1) for x in obj.hole) if obj.hole else "-"
        head = f"imols {obj.k} {obj.n}\nhole {hole}\n"
        squares = obj.squares
    else:
        raise MalformedInput(f"cannot serialize {type(obj).__name__} as a grid")
    return itertools.chain([head.encode()], _squares_text(squares))


def _squares_text(squares):
    for t, sq in enumerate(squares):
        if t:
            yield b"\n"  # the blank line between squares
        yield from _render_rows(sq, _cell_str, "", " ", "\n")


def _parse_cells(rows: list[bytes], size: int) -> np.ndarray:
    """The cells of rows of space-separated tokens, 0-based with BLANK.

    A token is "." or a decimal symbol 1..size without sign or leading
    zero; any other token raises MalformedInput, naming the first one.
    """
    digits = len(str(size))
    b = np.frombuffer(b" ".join([b"", *rows, b""]), np.uint8)
    spaces = np.flatnonzero(b == 32)  # token t lies between spaces t and t + 1
    length = np.diff(spaces) - 1
    first = b[spaces[:-1] + 1]
    number = (length > 0) & (length <= digits) & (first != ord("0"))
    value = np.zeros(len(length), dtype=np.int32 if digits <= 9 else np.int64)
    for j in range(digits):  # right to left; reads left of a token are masked
        more = length > j
        digit = b[spaces[1:] - 1 - j] - 48  # wraps above 9 for a non-digit
        number &= ~more | (digit <= 9)
        value += np.multiply(digit * more, 10 ** j, dtype=value.dtype)
    number &= value <= size
    blank = (first == ord(".")) & (length == 1)
    bad = ~(blank | number)
    if bad.any():
        t = int(np.argmax(bad))
        tok = b[spaces[t] + 1:spaces[t + 1]].tobytes().decode("utf-8", "replace")
        if re.fullmatch(r"[1-9][0-9]*", tok):
            raise MalformedInput(f"symbol {tok} out of range 1..{size}")
        raise MalformedInput(f"bad cell token {tok!r}")
    return np.where(blank, BLANK, value - 1)


def _line(data: bytes, at: int, end: int):
    """The line of data[:end] that starts at at, decoded, and the start of
    the line after it; (None, at) when at is past the last line."""
    if at > end:
        return None, at
    stop = data.find(b"\n", at, end)
    stop = end if stop < 0 else stop
    return _str(data[at:stop]), stop + 1


def _parse_squares(data: bytes, at: int, end: int, count, side, size):
    """count squares of side rows of side cells, from the lines of
    data[:end] that start at at, with one blank line between squares and
    nothing after them.

    The lines are checked in one walk over their newlines, keeping each
    row's span; then the cells are read in pieces of rows and written
    into the squares' one frozen buffer.
    """
    rows = []  # (start, stop) of each row in data
    for t in range(count):
        if t:
            if at > end or at < end and data[at] != ord("\n"):
                raise MalformedInput("expected a blank line between squares")
            at += 1
        for _ in range(side):
            if at > end:
                raise MalformedInput("grid body ended early")
            stop = data.find(b"\n", at, end)
            stop = end if stop < 0 else stop
            cells = data.count(b" ", at, stop) + 1
            if cells != side:
                raise MalformedInput(f"row has {cells} cells, expected {side}")
            rows.append((at, stop))
            at = stop + 1
    if at <= end:
        raise MalformedInput("trailing content after grid body")
    width = rows[0][1] - rows[0][0] + 1 if rows else 1
    pieces = (_parse_cells([data[a:b] for a, b in rows[i:j]], size)
              for i, j in _pieces(0, len(rows), width))
    return gf.frozen_from(pieces, np.int32, (count, side, side))


def grid_loads(text: str | bytes):
    """Read a grid file from its bytes or its text."""
    data = _utf8(text)
    if not data:
        raise MalformedInput("empty grid file")
    end = len(data) - data.endswith(b"\n")  # the canonical trailing newline
    head, at = _line(data, 0, end)
    head = head.split(" ")
    if head[0] == "latin":
        if len(head) != 2:
            raise MalformedInput("latin header is 'latin n'")
        n = _number(head[1])
        squares = _parse_squares(data, at, end, 1, n, n)
        return LatinSquare.from_array(squares[0])
    line, at = _line(data, at, end)
    if head[0] == "hmols":
        if len(head) != 4 or line is None or not line.startswith("holes "):
            raise MalformedInput("hmols header is 'hmols k h n' + holes line")
        k, h, n = (_number(x) for x in head[1:])
        holes = tuple(_parse_hole(part) for part in line[len("holes "):].split("|"))
        squares = _parse_squares(data, at, end, k, h * n, h * n)
        return HoleyLatinSquareSet.from_arrays(h=h, n=n, holes=holes, squares=squares)
    if head[0] == "imols":
        if len(head) != 3 or line is None or not line.startswith("hole "):
            raise MalformedInput("imols header is 'imols k n' + hole line")
        k, n = _number(head[1]), _number(head[2])
        hole_txt = line[len("hole "):]
        hole = () if hole_txt == "-" else _parse_hole(hole_txt)
        squares = _parse_squares(data, at, end, k, n, n)
        return IncompleteMolsSet.from_arrays(n=n, hole=hole, squares=squares)
    raise MalformedInput(f"unknown grid kind {head[0]!r}")


# ---------------------------------------------------------------------------
# block design JSON
# ---------------------------------------------------------------------------

_KIND_BY_HOLES = {HOLE_NONE: "TD", HOLE_UNIFORM: "HTD", HOLE_SINGLE: "ITD"}
_HOLES_BY_KIND = {v: k for k, v in _KIND_BY_HOLES.items()}


def _json_rows(rows):
    """A JSON array of integer arrays, one inner array per line, in pieces."""
    if len(rows) == 0:
        yield b"[]"
        return
    yield b"[\n"
    lines = _render_rows(np.asarray(rows), str, "  [", ", ", "],\n")
    last = next(lines)
    for line in lines:
        yield last
        last = line
    yield last[:-2] + b"\n ]"  # the last row takes no comma


def design_dumps(d: BlockDesign) -> str:
    """Canonical design JSON: sorted keys, blocks in lexicographic order,
    one block (and one hole) per line."""
    return b"".join(_design_pieces(d)).decode("ascii")


def _design_pieces(d: BlockDesign):
    """The pieces of design_dumps(d), in order, as bytes, each rendered
    when it is asked for."""
    fields = {
        "blocks": _json_rows(d.sorted_blocks()),
        "group_size": [json.dumps(d.group_size).encode()],
        "holes": _json_rows(d.holes),
        "index": [json.dumps(d.index).encode()],
        "k": [json.dumps(d.k).encode()],
        "kind": [json.dumps(_KIND_BY_HOLES[d.hole_kind]).encode()],
    }
    before = b"{\n"
    for key in sorted(fields):
        yield before + f' "{key}": '.encode()
        yield from fields[key]
        before = b",\n"
    yield b"\n}\n"


# each byte of a JSON integer matrix with its white space deleted, as a
# bytes.translate table: a digit's value, then "-", "[", "]", "," and the rest
_MINUS, _OPEN, _CLOSE, _COMMA, _OTHER = range(10, 15)
_BYTE = bytes(b"0123456789-[],".find(c) if c in b"0123456789-[]," else _OTHER
              for c in range(256))
_SPACE = b" \t\n\r"
_MAX_DIGITS = 18  # longer numbers may not fit int64; json.loads takes those
_BLOCKS_KEY = re.compile(rb'"blocks"[ \t\n\r]*:[ \t\n\r]*\[')
_GAP = re.compile(rb"[ \t\n\r]*(,?)")  # between two pieces of rows
_SENTINEL = b'"\\u0000"'  # a JSON string no unescaped document can contain
_INT32 = np.iinfo(np.int32)


def _int_matrix(body: bytes):
    """body as an (R, C) integer array when it is exactly a JSON array of
    R >= 1 arrays of C >= 1 integers of at most _MAX_DIGITS digits, with
    JSON whitespace anywhere between tokens; None otherwise.

    One scan for the separators of body without its white space gives
    every number's start and stop.
    """
    stripped = body.translate(_BYTE, _SPACE)
    if bytes([_OTHER]) in stripped:
        return None
    s = np.frombuffer(stripped, dtype=np.uint8)
    where = np.flatnonzero(s > _MINUS)
    seps = s[where]
    cols = seps.tobytes().find(bytes([_CLOSE])) - 1
    if cols < 1 or s[0] != _OPEN or s[-1] != _CLOSE:
        return None
    rows, extra = divmod(len(where) - 1, cols + 2)
    if rows < 1 or extra:
        return None
    # "[", then per row "[", cols - 1 times ",", "]" and "," ("]" for the last)
    seps = seps[1:].reshape(rows, cols + 2)
    row = np.array([_OPEN] + [_COMMA] * (cols - 1) + [_CLOSE], dtype=np.uint8)
    if not ((seps[:, :-1] == row).all() and (seps[:-1, -1] == _COMMA).all()):
        return None
    where = where[1:].reshape(rows, cols + 2)
    starts, stops = where[:, :cols] + 1, where[:, 1:-1]
    digits = stops - starts
    # body holds one run of "-" and digits (bytes 45..57) per number: no
    # byte lies outside a number's span, and no white space splits one
    number = np.subtract(np.frombuffer(body, dtype=np.uint8), 45, dtype=np.uint8) < 13
    if np.count_nonzero(number[:-1] > number[1:]) != rows * cols:
        return None
    negative = None
    if b"-" in body:
        negative = s[starts] == _MINUS
        if stripped.count(bytes([_MINUS])) != np.count_nonzero(negative):
            return None
        digits = digits - negative
    most = int(digits.max())
    if digits.min() < 1 or most > _MAX_DIGITS or \
            ((s[stops - digits] == 0) & (digits > 1)).any():
        return None
    # right to left; reads left of a number (negative indices included)
    # are masked out by digits > j
    at = stops - 1
    value = s[at].astype(np.int32 if most <= 9 else np.int64)
    for j in range(1, most):
        at -= 1
        value += np.multiply(s[at] * (digits > j), 10 ** j, dtype=value.dtype)
    if negative is not None:
        value[negative] *= -1
    return value


def _blocks_span(data: bytes, at: int):
    """(start, end) of the array after the "blocks" key at at: from its
    "[" to past the last "]" before the next '"' or "}" (end is 0 when
    there is none); None when no key and "[" start at at."""
    key = _BLOCKS_KEY.match(data, at)
    if key is None:
        return None
    start = key.end() - 1
    stop = data.find(b'"', start)
    stop = len(data) if stop < 0 else stop
    close = data.find(b"}", start, stop)
    stop = close if close >= 0 else stop
    return start, data.rfind(b"]", start, stop) + 1


def _fast_design_doc(data: bytes):
    """The design document with its "blocks" value parsed by _int_matrix
    into one frozen int32 array, or None when the fast reading cannot
    prove it equals json.loads of the text, or an entry does not fit in
    int32 (json.loads then reads the text, and BlockDesign.new refuses
    that entry after the other fields are checked).

    The blocks array is cut out and replaced by a sentinel string that
    only an escape can spell; the rest goes to json.loads.  A text
    without backslashes whose top-level "blocks" then reads back as the
    sentinel had the cut array exactly as that value.
    """
    at = data.find(b'"blocks"')
    if at < 0 or b"\\" in data:
        return None
    # the last "blocks", found forward: searching bytes for a word is slow
    # but a blocks array holds no '"', so the search skips it
    while True:
        span = _blocks_span(data, at)
        later = data.find(b'"blocks"', max(at + 1, span[1]) if span else at + 1)
        if later < 0:
            break
        at = later
    if span is None:
        return None
    start, end = span
    # the rows data[start + 1:end - 1] in pieces cut after a "]", each read
    # as a matrix of its own and written as int32 into one buffer; a later
    # piece starts after the white space and "," that follow the cut, and
    # white space alone ends the rows
    blocks, width = io.BytesIO(), None
    for a, b in _pieces(start + 1, end - 1,
                        cut=lambda at: data.find(b"]", at, end - 1) + 1 or end - 1):
        if a > start + 1:
            gap = _GAP.match(data, a, b)
            if not gap.group(1):
                if gap.end() == b:
                    continue
                return None
            a = gap.end()
        part = _int_matrix(b"[" + data[a:b] + b"]")
        if part is None or part.shape[1] != (width or part.shape[1]):
            return None
        if part.dtype != np.int32:
            if part.min() < _INT32.min or part.max() > _INT32.max:
                return None
            part = part.astype(np.int32)
        width = part.shape[1]
        blocks.write(part)
    if width is None:
        return None
    try:
        doc = json.loads(_str(data[:start] + _SENTINEL + data[end:]))
    except (ValueError, RecursionError):
        return None
    if not isinstance(doc, dict) or doc.get("blocks") != "\0":
        return None
    # getvalue hands the buffer over without copying it
    doc["blocks"] = np.frombuffer(blocks.getvalue(), np.int32).reshape(-1, width)
    return doc


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_rows(x, entry_ok=_is_int) -> bool:
    """x is a JSON list of lists whose every entry passes entry_ok."""
    return isinstance(x, list) and all(
        isinstance(row, list) and all(map(entry_ok, row)) for row in x)


def design_loads(text: str | bytes) -> BlockDesign:
    """Read a design file in any JSON layout, from its bytes or its text;
    a missing field, or a field of the wrong JSON type, raises
    MalformedInput."""
    data = _utf8(text)
    doc = _fast_design_doc(data)
    if doc is None:
        doc = json.loads(text if isinstance(text, str) else _str(data))
    if not isinstance(doc, dict):
        raise MalformedInput("a design file holds one JSON object")
    for key in ("kind", "k", "group_size", "index", "blocks", "holes"):
        if key not in doc:
            raise MalformedInput(f"design file misses field {key!r}")
    kind = doc["kind"]
    if not (isinstance(kind, str) and kind in _HOLES_BY_KIND):
        raise MalformedInput(f"design field 'kind' is not TD, HTD or ITD: {kind!r}")
    for key in ("k", "group_size", "index"):
        if not _is_int(doc[key]):
            raise MalformedInput(f"design field {key!r} is not an integer")
    for key in ("blocks", "holes"):  # the fast reading's blocks are integers already
        if not (isinstance(doc[key], np.ndarray) or _is_rows(doc[key])):
            raise MalformedInput(f"design field {key!r} is not a list of integer lists")
    rows = doc["blocks"]
    if isinstance(rows, list):  # the fast reading's blocks are a matrix already
        for i, row in enumerate(rows):
            if len(row) != len(rows[0]):
                raise MalformedInput(f"design field 'blocks': row {i} has "
                                     f"{len(row)} entries, row 0 has {len(rows[0])}")
    return BlockDesign.new(k=doc["k"], group_size=doc["group_size"],
                           index=doc["index"], blocks=doc["blocks"],
                           hole_kind=_HOLES_BY_KIND[kind],
                           holes=tuple(tuple(c) for c in doc["holes"]))


# ---------------------------------------------------------------------------
# search certificates
# ---------------------------------------------------------------------------


def cert_dumps(cert: dict) -> str:
    """Certificate: {h, d, q, omega, col_selection, u_vectors, seed}.

    col_selection may be null when the template column assignment is yet
    to be recovered; u_vectors then carry null blanks at template width.
    """
    doc = {
        "h": cert["h"],
        "d": cert["d"],
        "q": cert["q"],
        "omega": cert.get("omega"),
        "col_selection": cert.get("col_selection"),
        "u_vectors": [[None if x is None else int(x) for x in u]
                      for u in cert["u_vectors"]],
        "seed": cert.get("seed"),
    }
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


def cert_loads(text: str) -> dict:
    """Read a certificate; a field of the wrong JSON type raises
    MalformedInput."""
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise MalformedInput("a certificate file holds one JSON object")
    for key in ("h", "d", "q", "u_vectors"):
        if key not in doc:
            raise MalformedInput(f"certificate misses field {key!r}")
    for key in ("h", "d", "q", "omega", "seed"):
        value = doc.get(key)
        if not (_is_int(value) or value is None and key in ("omega", "seed")):
            raise MalformedInput(f"certificate field {key!r} is not an integer")
    cols, vecs = doc.get("col_selection"), doc["u_vectors"]
    if cols is not None and not (isinstance(cols, list) and all(map(_is_int, cols))):
        raise MalformedInput("col_selection is neither null nor a list of integers")
    # null blanks stand at template width, where col_selection is null
    entry_ok = _is_int if cols is not None else (lambda x: x is None or _is_int(x))
    if not _is_rows(vecs, entry_ok):
        raise MalformedInput("u_vectors must be lists of integers, with null "
                             "blanks only where col_selection is null")
    return doc
