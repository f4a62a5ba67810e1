"""Interchange formats: grid files for squares, JSON for block designs,
and JSON certificates for cyclotomic searches.

Grid files carry 1-based symbols with "." for blanks, matching how the
squares are usually printed; everything else is 0-based JSON.  Both
printers emit a canonical form (sorted holes, lexicographically sorted
blocks, fixed whitespace) so that parse-then-print is byte-identical.

Design and grid files are read as bytes (a str is read as its UTF-8
encoding), and the readers scan the bytes directly.  A design file in
any JSON spelling, escapes included, goes through one scan that finds
its blocks (_fast_design_doc); only the rest goes to json.loads, decoded
as UTF-8, and json.loads of the whole text only names the fault of a
file that is refused.  Bytes that are not UTF-8 raise UnicodeDecodeError,
as reading the file as text would.

Design and grid bodies are printed and parsed as arrays: each distinct
value is formatted once and rows are assembled by table lookups, and the
readers check the body's grammar and convert its numbers in numpy
passes.  Both readers map a piece's bytes through one bytes.translate
table (_CODE: a digit's value, a code above 9 for any other byte), scan
it once for its separators, and read its numbers with one right-to-left
digit loop (_decimal) on piece-local positions; the grid reader checks
a piece's lines from the same scan.  A design file written with the
developed GF(401) certificate has 641,600 blocks, so per-entry Python
objects would dominate its cost; the passes run over pieces of rows, so
that no pass allocates arrays the size of the whole body.  The readers
write the numbers of each piece, as int32, into one immutable bytes
buffer, which the design or square set adopts as its frozen array with
no further copy; a design's buffer holds its blocks column by column,
(k, B), so each piece of rows goes transposed into its column slots.
The printers yield their output as bytes pieces, each rendered when it
is asked for, its padding dropped by one bytes.translate; design_dumps
and grid_dumps join and decode them, and the command line writes each
piece to its file in binary mode as it comes, so that it holds one
piece of the output at a time.
"""

from __future__ import annotations

import collections
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


def _count(data: bytes, byte: bytes, start: int, stop: int) -> int:
    """data.count(byte, start, stop), counted by numpy a piece at a time."""
    b = np.frombuffer(data, np.uint8)
    return sum(np.count_nonzero(b[a:z] == byte[0]) for a, z in _pieces(start, stop))


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


# each byte of a design or grid body, as one bytes.translate table: a
# digit's value, then ".", "-", "[", "]", ",", any other byte, " " and "\n"
_DOT, _MINUS, _OPEN, _CLOSE, _COMMA, _OTHER, _SPACE, _NEWLINE = range(10, 18)
_CODE = bytes(b"0123456789.-[],".find(c) if c in b"0123456789.-[]," else
              _SPACE if c == ord(" ") else _NEWLINE if c == ord("\n") else _OTHER
              for c in range(256))


def _positions(n: int):
    """The dtype of positions in an n-byte piece: int32 while they fit."""
    return np.int32 if n < 2**31 else np.intp


def _decimal(codes, stops, digits, most: int):
    """The numbers whose digit codes in codes end just before stops, of
    digits codes each (most at the most), read right to left: a read left
    of a number, at a negative index too, is masked out by digits > j."""
    dtype = np.int32 if most <= 9 else np.int64
    at = stops - 1
    value = codes.take(at).astype(dtype)
    for j in range(1, most):
        at -= 1
        value += np.multiply(codes.take(at) * (digits > j), 10 ** j, dtype=dtype)
    return value


def _render_rows(arr, cell, head: str, sep: str, tail: str):
    """One line per row of the 2-D integer array arr:
    head + sep.join(cell(v) for v in row) + tail, yielded as bytes in
    pieces of rows, each rendered when it is asked for.

    Every cell is looked up in a table of NUL-padded tokens, one per
    value, which already carries the row's head or its separator: a
    piece's cells are taken from the middle table in one gather, its
    first and last columns then from their own; the padding is dropped
    by one bytes.translate per piece.
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
        out = np.take(middle, idx, mode="clip")  # idx is in range: nothing to clip
        out[:, 0] = first[idx[:, 0]]
        if cols > 1:
            out[:, -1] = last[idx[:, -1]]
        yield out.tobytes().translate(None, b"\0")


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

    The cells are read in pieces of lines and written into the squares'
    one frozen buffer.  A body with fewer bytes than cells is read to its
    fault before that buffer is allocated.
    """
    cells = _square_cells(data, at, end, count, side, size)
    if end - at < count * side * side:
        collections.deque(cells, maxlen=0)  # raises the body's fault
    return gf.frozen_from(cells, np.int32, (count * side * side,)).reshape(
        count, side, side)


def _square_cells(data: bytes, at: int, end: int, count, side, size):
    """The cells of _parse_squares, 0-based with BLANK, one array per piece
    of lines.

    Each piece is mapped through _CODE and scanned once for its
    separators, the spaces and newlines: its lines are checked from them
    (row, blank line or one too many, and the cells of a row), then its
    tokens read.  A token is "." or a decimal symbol 1..size without sign
    or leading zero.  A fault of the lines raises MalformedInput at once;
    a bad token, the first one, only after every line is checked, so that
    a fault of the lines comes first wherever it is.
    """
    lines = count * (side + 1) - 1 if count else 0  # rows and blank lines
    period = side + 1  # line i is blank when i % period == side
    digits = len(str(size))
    line, fault = 0, None
    for a, b in _pieces(at, end + 1,
                        cut=lambda p: data.find(b"\n", p - 1, end) + 1 or end + 1):
        # the piece's lines, after the newline that ends the line before
        text = (data[a - 1:b] if b <= end else data[a - 1:end] + b"\n").translate(_CODE)
        c = np.frombuffer(text, np.uint8)
        seps = (c > _DOT).nonzero()[0]  # separators, and bytes no token holds
        kinds = c[seps]
        stray = kinds.min() < _SPACE
        if stray:
            seps = seps[kinds >= _SPACE]
            kinds = c[seps]
        seps = seps.astype(_positions(len(c)))
        ends = (kinds == _NEWLINE).nonzero()[0]  # in seps; ends[0] == 0
        wrong = ends[1:] - ends[:-1] != side  # a row of other than side cells
        blank = slice((side - line) % period, len(wrong), period)  # the piece's blank lines
        breaks = seps[ends[blank.start:]]  # newlines, from the one before the first blank line
        wrong[blank] = breaks[1::period] - breaks[:-1:period] > 1  # a blank line not empty
        if line + len(wrong) > lines:
            wrong[lines - line:] = True
        if wrong.any():
            n = line + int(np.argmax(wrong))
            if n >= lines:
                raise MalformedInput("trailing content after grid body")
            if n % period == side:
                raise MalformedInput("expected a blank line between squares")
            raise MalformedInput(f"row has {ends[n - line + 1] - ends[n - line]} cells, "
                                 f"expected {side}")
        line += len(wrong)
        # token t ends at stops[t]; a blank line holds none
        stops = seps[1:]
        length = stops - seps[:-1]
        length -= 1
        if blank.start < len(wrong):
            keep = np.ones(len(stops), dtype=bool)
            keep[ends[1:][blank] - 1] = False
            stops, length = stops[keep], length[keep]
        first = c.take(stops - length)
        value = _decimal(c, stops, length, digits)
        dot = (first == _DOT) & (length == 1)
        bad = ~(dot | (length > 0) & (length <= digits) & (first != 0) & (value <= size))
        if stray or np.count_nonzero(c == _DOT) != np.count_nonzero(dot):
            # the tokens that hold a byte other than a digit, but for a lone "."
            held = np.zeros(len(stops), dtype=bool)
            held[np.searchsorted(stops, np.flatnonzero((c >= _DOT) & (c < _SPACE)))] = True
            bad |= held & ~dot
        if fault is None and bad.any():
            t = int(np.argmax(bad))
            stop = a - 1 + int(stops[t])
            tok = data[stop - int(length[t]):stop].decode("utf-8", "replace")
            fault = f"symbol {tok} out of range 1..{size}" \
                if re.fullmatch(r"[1-9][0-9]*", tok) else f"bad cell token {tok!r}"
        value -= 1
        value[dot] = BLANK
        yield value
    if line < lines:
        raise MalformedInput("expected a blank line between squares" if line % period == side
                             else "grid body ended early")
    if fault is not None:
        raise MalformedInput(fault)


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


_WHITE = b" \t\n\r"  # JSON white space
# a longer number may not fit int64, and lies outside int32 in any case: a
# design file that holds one is refused, its fault named by json.loads
_MAX_DIGITS = 18
_STRING = re.compile(rb'"[^"\\]*(?:\\.[^"\\]*)*"')  # a JSON string, escapes and all
_COLON = re.compile(rb"[ \t\n\r]*:[ \t\n\r]*")  # after a key
_GAP = re.compile(rb"[ \t\n\r]*(,?)")  # between two pieces of rows
_INT32 = np.iinfo(np.int32)


def _int_matrix(body: bytes):
    """body as an (R, C) integer array when it is exactly a JSON array of
    R >= 1 arrays of C >= 1 integers of at most _MAX_DIGITS digits, with
    JSON whitespace anywhere between tokens; None otherwise.

    One scan for the separators of body without its white space gives
    every number's start and stop.
    """
    stripped = body.translate(_CODE, _WHITE)
    if bytes([_OTHER]) in stripped or bytes([_DOT]) in stripped:
        return None
    s = np.frombuffer(stripped, dtype=np.uint8)
    where = np.flatnonzero(s > _MINUS)
    seps = s[where].tobytes()
    cols = seps.find(bytes([_CLOSE])) - 1
    if cols < 1 or s[0] != _OPEN or s[-1] != _CLOSE:
        return None
    rows, extra = divmod(len(where) - 1, cols + 2)
    if rows < 1 or extra:
        return None
    # "[", then per row "[", cols - 1 times ",", "]" and "," ("]" for the last)
    row = bytes([_OPEN, *[_COMMA] * (cols - 1), _CLOSE, _COMMA])
    if seps != bytes([_OPEN]) + row * (rows - 1) + row[:-1] + bytes([_CLOSE]):
        return None
    where = where[1:].astype(_positions(len(s))).reshape(rows, cols + 2)
    stops = where[:, 1:-1]
    digits = stops - where[:, :cols]
    digits -= 1  # each number's length, a negative one's "-" included
    # body holds one run of "-" and digits (bytes 45..57) per number: no
    # byte lies outside a number's span, and no white space splits one
    number = np.subtract(np.frombuffer(body, dtype=np.uint8), 45, dtype=np.uint8) < 13
    if np.count_nonzero(number[:-1] > number[1:]) != rows * cols:
        return None
    negative = None
    if b"-" in body:
        negative = s.take(stops - digits) == _MINUS
        if stripped.count(bytes([_MINUS])) != np.count_nonzero(negative):
            return None
        digits -= negative
    most = int(digits.max())
    if digits.min() < 1 or most > _MAX_DIGITS or \
            ((s.take(stops - digits) == 0) & (digits > 1)).any():
        return None
    value = _decimal(s, stops, digits, most)
    if negative is not None:
        value[negative] *= -1
    return value


def _blocks_at(data: bytes, start: int):
    """(start, end, blocks) when data[start:end] is a JSON array of rows of
    int32 numbers, or empty, ending at the last "]" before the next '"'
    (a top-level value of a JSON object is followed by a key or by its
    end); blocks is its (B, k) view of one frozen (k, B) array.  Else None."""
    stop = data.find(b'"', start)
    end = data.rfind(b"]", start, len(data) if stop < 0 else stop) + 1
    if data[start:start + 1] != b"[" or not end:
        return None
    # every row ends in a "]", and the first row's commas give the width:
    # the blocks fill one frozen (width, rows) buffer, each piece of rows
    # written transposed into its column slots
    rows = _count(data, b"]", start + 1, end - 1)
    width = data.count(b",", start + 1, data.find(b"]", start + 1)) + 1
    try:
        blocks = gf.frozen_from(_block_columns(data, start, end, width),
                                np.int32, (width, rows), axis=1)
    except _NotFast:
        return None
    return start, end, blocks.T


def _fast_design_doc(data: bytes):
    """The design document with the value of its last top-level "blocks"
    key read by _blocks_at, in any JSON spelling; None when that value is
    no array _blocks_at reads or the text is no JSON, so that json.loads
    of the whole text names the fault of a file refused (or reads rows of
    no entries, [[]], which BlockDesign.new refuses).

    The scan walks the JSON strings, each matched whole with its escapes,
    and counts "{[" minus "}]" in the gaps between them to tell the
    top-level keys; a key holding a backslash is decoded on its own.  A
    blocks array read is skipped, so its rows are scanned once, and is cut
    out for json.loads with "[]" in its place: any text that may follow
    one array may follow any other, so the rest is JSON exactly when the
    whole text is, and its "blocks" is the cut array.
    """
    depth, at, found = 0, 0, None
    try:
        while (quote := data.find(b'"', at)) >= 0:
            depth += sum(data.count(c, at, quote) for c in b"{[") - \
                sum(data.count(c, at, quote) for c in b"}]")
            key = _STRING.match(data, quote)
            if key is None:
                return None
            at, key = key.end(), key.group()
            colon = _COLON.match(data, at)
            if depth == 1 and colon and (key == b'"blocks"' or b"\\" in key and
                                         json.loads(_str(key)) == "blocks"):
                found = _blocks_at(data, colon.end())
                at = found[1] if found else at
        if found is None:
            return None
        start, end, blocks = found
        doc = json.loads(_str(data[:start] + b"[]" + data[end:]))
    except (ValueError, RecursionError):  # from json.loads: the text is no JSON
        return None
    doc["blocks"] = blocks
    return doc


class _NotFast(Exception):
    """A blocks array is not read by _blocks_at."""


def _block_columns(data: bytes, start: int, end: int, width: int):
    """The rows of the blocks array data[start:end], transposed, in
    pieces cut after a "]", each read as a matrix of its own; _NotFast
    when a piece is no matrix of width columns of int32 numbers.  A later
    piece starts after the white space and "," that follow the cut; white
    space alone holds no rows (an empty array, or after the last row)."""
    for a, b in _pieces(start + 1, end - 1,
                        cut=lambda at: data.find(b"]", at, end - 1) + 1 or end - 1):
        gap = _GAP.match(data, a, b)
        if gap.end() == b and not gap.group(1):
            continue
        if bool(gap.group(1)) != (a > start + 1):  # a "," comes before each later piece
            raise _NotFast
        part = _int_matrix(b"".join((b"[", memoryview(data)[gap.end():b], b"]")))
        if part is None or part.shape[1] != width or part.dtype != np.int32 and \
                (part.min() < _INT32.min or part.max() > _INT32.max):
            raise _NotFast
        yield part.T


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
                           holes=doc["holes"])


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
