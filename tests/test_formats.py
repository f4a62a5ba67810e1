import contextlib
import json
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hmols import cyclotomic as cy
from hmols import designs as dz
from hmols import formats
from hmols.errors import MalformedInput
from hmols.fixtures import fixture_text, hmols_pair_2_4, imols_pair_6_2
from test_search_traversal import Q97_SEED2_BUDGET


FIXTURE_FILES = ["hmols_2_4.grid", "imols_6_2.grid", "cert_2_401.json"]


@pytest.mark.parametrize("name", ["hmols_2_4.grid", "imols_6_2.grid"])
def test_grid_fixtures_round_trip_byte_identical(name):
    text = fixture_text(name)
    assert formats.grid_dumps(formats.grid_loads(text)) == text


def test_cert_fixture_round_trip_byte_identical():
    text = fixture_text("cert_2_401.json")
    assert formats.cert_dumps(formats.cert_loads(text)) == text


def test_latin_grid_round_trip():
    sq = dz.LatinSquare.from_array([[(i + j) % 4 for j in range(4)]
                                    for i in range(4)])
    text = formats.grid_dumps(sq)
    again = formats.grid_loads(text)
    assert np.array_equal(again.cells, sq.cells)
    assert formats.grid_dumps(again) == text


def test_grid_rejects_garbage():
    with pytest.raises(MalformedInput):
        formats.grid_loads("nonsense 3\n1 2 3\n")
    with pytest.raises(MalformedInput):
        formats.grid_loads("latin 2\n1 2\n1\n")
    with pytest.raises(MalformedInput):
        formats.grid_loads("latin 2\n1 5\n2 1\n")


def test_design_json_round_trip():
    htd = dz.hmols_to_htd(hmols_pair_2_4())
    text = formats.design_dumps(htd)
    again = formats.design_loads(text)
    assert again.k == htd.k and again.hole_kind == htd.hole_kind
    assert again.holes == htd.holes
    assert np.array_equal(again.sorted_blocks(), htd.sorted_blocks())
    assert formats.design_dumps(again) == text


def test_design_json_kinds():
    td = dz.td_from_field(3, 4)
    assert '"kind": "TD"' in formats.design_dumps(td)
    itd = dz.imols_to_itd(imols_pair_6_2())
    assert '"kind": "ITD"' in formats.design_dumps(itd)


def test_imols_empty_hole_round_trip():
    sq = np.array([[[(a * x + y) % 3 for y in range(3)] for x in range(3)]
                   for a in (1, 2)])
    s = dz.IncompleteMolsSet.from_arrays(n=3, hole=(), squares=sq)
    text = formats.grid_dumps(s)
    assert "hole -" in text
    again = formats.grid_loads(text)
    assert again.hole == ()
    assert formats.grid_dumps(again) == text


# -- the array readers and writers --------------------------------------------

GRID = fixture_text("hmols_2_4.grid")


def developed_design():
    """HTD(8, 2^97) with 37,248 blocks, developed from a seeded search."""
    sol = cy.search_uvectors(2, 3, list(range(8)), 97, seed=2,
                             budget=Q97_SEED2_BUDGET)
    return cy.develop_rdf(cy.assemble_rdf(sol))


def test_developed_design_and_grid_round_trip_byte_identical():
    htd = developed_design()
    text = formats.design_dumps(htd)
    assert text.count("\n") == len(htd.blocks) + len(htd.holes) + 10
    again = formats.design_loads(text)
    assert formats.design_dumps(again) == text
    assert np.array_equal(again.blocks, htd.sorted_blocks())
    doc = json.loads(text)
    assert doc["blocks"] == htd.sorted_blocks().tolist()
    for layout in (json.dumps(doc), json.dumps(doc, sort_keys=True, indent=1)):
        assert formats.design_dumps(formats.design_loads(layout)) == text
    grid = formats.grid_dumps(dz.htd_to_hmols(again))
    assert formats.grid_dumps(formats.grid_loads(grid)) == grid


def test_design_json_one_block_per_line():
    td = dz.td_from_field(3, 3)
    text = formats.design_dumps(td)
    assert text.startswith('{\n "blocks": [\n  [0, 0, 0],\n  [0, 1, 2],\n')
    assert text.endswith('\n ],\n "group_size": 3,\n "holes": [],\n'
                         ' "index": 1,\n "k": 3,\n "kind": "TD"\n}\n')
    itd = dz.imols_to_itd(imols_pair_6_2())
    assert '"holes": [\n  [0, 1]\n ],\n' in formats.design_dumps(itd)


def reference_design_loads(text: str) -> dz.BlockDesign:
    """The design reader before the array parse: every text through
    json.loads, then the same field checks.  design_loads must agree with
    it on every input."""
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise MalformedInput("a design file holds one JSON object")
    for key in ("kind", "k", "group_size", "index", "blocks", "holes"):
        if key not in doc:
            raise MalformedInput(f"design file misses field {key!r}")
    if doc["kind"] not in ("TD", "HTD", "ITD"):
        raise MalformedInput(f"design field 'kind' is not TD, HTD or ITD: {doc['kind']!r}")
    for key in ("k", "group_size", "index"):
        if type(doc[key]) is not int:
            raise MalformedInput(f"design field {key!r} is not an integer")
    for key in ("blocks", "holes"):
        rows = doc[key]
        if not (type(rows) is list and all(type(r) is list for r in rows)
                and all(type(x) is int for r in rows for x in r)):
            raise MalformedInput(f"design field {key!r} is not a list of integer lists")
    widths = [len(r) for r in doc["blocks"]]
    if len(set(widths)) > 1:
        row = next(i for i, w in enumerate(widths) if w != widths[0])
        raise MalformedInput(f"design field 'blocks': row {row} has "
                             f"{widths[row]} entries, row 0 has {widths[0]}")
    return dz.BlockDesign.new(k=doc["k"], group_size=doc["group_size"],
                              index=doc["index"], blocks=doc["blocks"],
                              hole_kind=formats._HOLES_BY_KIND[doc["kind"]],
                              holes=tuple(tuple(c) for c in doc["holes"]))


def outcome(read, text):
    try:
        d = read(text)
    except Exception as exc:  # the class and the message are the outcome
        return type(exc), str(exc)
    return (d.k, d.group_size, d.index, d.hole_kind, d.holes,
            d.blocks.dtype, d.blocks.shape, d.blocks.tobytes())


ENTRIES = st.one_of(st.integers(0, 30), st.integers(-5, 5),
                    st.integers(-2**31, 2**31 - 1))


@st.composite
def designs(draw):
    k = draw(st.integers(2, 4))
    kind = draw(st.sampled_from([dz.HOLE_NONE, dz.HOLE_UNIFORM, dz.HOLE_SINGLE]))
    if kind == dz.HOLE_UNIFORM:
        h, n = draw(st.integers(1, 3)), draw(st.integers(1, 4))
        g, holes = h * n, tuple(tuple(range(t * h, t * h + h)) for t in range(n))
    elif kind == dz.HOLE_SINGLE:
        g = draw(st.integers(1, 8))
        holes = (tuple(draw(st.sets(st.integers(0, g - 1), min_size=1))),)
    else:
        g, holes = draw(st.integers(1, 8)), ()
    blocks = draw(st.lists(st.lists(ENTRIES, min_size=k, max_size=k), max_size=6))
    return dz.BlockDesign.new(k=k, group_size=g, index=draw(st.integers(1, 3)),
                              blocks=blocks, hole_kind=kind, holes=holes)


@st.composite
def design_texts(draw):
    canonical = formats.design_dumps(draw(designs()))
    doc = json.loads(canonical)
    keys = draw(st.permutations(sorted(doc)))
    text = draw(st.sampled_from([
        canonical,
        json.dumps(doc),
        json.dumps(doc, sort_keys=True, indent=1) + "\n",
        json.dumps({key: doc[key] for key in keys},
                   indent=draw(st.sampled_from([None, 0, 3, "\t"])),
                   separators=draw(st.sampled_from([(",", ":"), (" ,", " : ")]))),
    ]))
    for _ in range(draw(st.integers(0, 2))):  # single-character mutations
        at = draw(st.integers(0, len(text)))
        char = draw(st.sampled_from(list('0123456789-[],:{} \n\t\r"\\.eE+x')))
        how = draw(st.sampled_from(["replace", "insert", "delete"]))
        text = text[:at] + ("" if how == "delete" else char) + \
            text[at + (how != "insert"):]
    return text


@contextlib.contextmanager
def pieces_of(size):
    """The readers and printers cut their work into pieces of about size
    bytes of text (at least one row each) inside the block."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(formats, "_PIECE", size)
        yield


@settings(max_examples=300, deadline=None)
@given(design_texts())
def test_design_loads_agrees_with_reference_reader(text):
    assert outcome(formats.design_loads, text) == \
        outcome(reference_design_loads, text)


@settings(max_examples=300, deadline=None)
@given(design_texts(), st.integers(1, 16))
def test_design_loads_agrees_with_reference_reader_in_small_pieces(text, size):
    with pieces_of(size):
        assert outcome(formats.design_loads, text) == \
            outcome(reference_design_loads, text)


# bytes that a design or grid file may hold outside ASCII: UTF-8 text, a
# BOM, an encoded surrogate, and bytes that are not UTF-8 at all
NON_ASCII = [b"\xc3\xa9", "\u20ac".encode(), "\u0661".encode(), b"\xef\xbb\xbf",
             b"\xed\xa0\x80", b"\xff", b"\x80", b"\xc3"]
BOM = b"\xef\xbb\xbf"


def as_text(read):
    """read on bytes as the command line once read a file: decoded as
    UTF-8 first, with no BOM stripped."""
    return lambda data: read(data.decode("utf-8"))


@st.composite
def design_bytes(draw):
    """The UTF-8 bytes of a design text, perhaps after a BOM, with at most
    two byte sequences from NON_ASCII put in or over a byte anywhere:
    inside the blocks array, or outside it."""
    data = draw(st.sampled_from([b"", BOM])) + draw(design_texts()).encode()
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(data)))
        seq = draw(st.sampled_from(NON_ASCII))
        data = data[:at] + seq + data[at + draw(st.integers(0, 1)):]
    return data


_NOTE = '"kind": "TD", "note": "caf\u00e9"'.encode()
TD_3_3 = formats.design_dumps(dz.td_from_field(3, 3)).encode()


@settings(max_examples=300, deadline=None)
@given(design_bytes())
@example(TD_3_3.replace(b"[0, 1, 2]", b"[0, \xff1, 2]"))
@example(TD_3_3.replace(b'"TD"', b'"T\xc3D"'))
@example(TD_3_3.replace(b'"kind": "TD"', _NOTE))
@example(BOM + TD_3_3)
def test_design_loads_of_bytes_agrees_with_reference_reader(data):
    assert outcome(formats.design_loads, data) == \
        outcome(as_text(reference_design_loads), data)


@settings(max_examples=200, deadline=None)
@given(design_bytes(), st.integers(1, 16))
def test_design_loads_of_bytes_agrees_with_reference_reader_in_small_pieces(data, size):
    with pieces_of(size):
        assert outcome(formats.design_loads, data) == \
            outcome(as_text(reference_design_loads), data)


def test_text_outside_the_blocks_keeps_the_fast_reading():
    data = TD_3_3.replace(b'"kind": "TD"', _NOTE)
    doc = formats._fast_design_doc(data)
    assert doc is not None and doc["note"] == "caf\u00e9"
    assert np.array_equal(doc["blocks"], dz.td_from_field(3, 3).sorted_blocks())


def reference_int_matrix(body: str):
    """The rows of body by json.loads when they form a matrix of at least
    one row and one column of integers of at most 18 digits, else None."""
    try:
        doc = json.loads(body)
    except ValueError:
        return None
    if not (isinstance(doc, list) and doc and all(isinstance(r, list) for r in doc)
            and doc[0] and all(len(r) == len(doc[0]) for r in doc)):
        return None
    if not all(type(x) is int and len(str(abs(x))) <= 18 for r in doc for x in r):
        return None
    return doc


@st.composite
def matrix_texts(draw):
    rows = draw(st.lists(st.lists(st.integers(-10**19, 10**19), min_size=1,
                                  max_size=3), min_size=1, max_size=4))
    text = json.dumps(rows, indent=draw(st.sampled_from([None, 0, 1])))
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(text)))
        char = draw(st.sampled_from(list("0123456789-[], \n.e")))
        how = draw(st.sampled_from(["replace", "insert", "delete"]))
        text = text[:at] + ("" if how == "delete" else char) + \
            text[at + (how != "insert"):]
    return text


@settings(max_examples=500, deadline=None)
@given(matrix_texts())
@example("[[1, 2]3, [4, 5]]")
@example("[[1], [2],")
@example("[[1]]5")
@example("[[1], [-]]")
@example("[[1]] ")
@example("[[1]][2]]")
@example(",[1],[2]]")
def test_int_matrix_agrees_with_json(body):
    got, want = formats._int_matrix(body.encode()), reference_int_matrix(body)
    if want is None:
        assert got is None
    else:
        assert got is not None and got.tolist() == want


def _design_with_blocks(blocks: str) -> str:
    return ('{"blocks": ' + blocks + ', "group_size": 2, "holes": [], '
            '"index": 1, "k": 2, "kind": "TD"}')


@pytest.mark.parametrize("blocks", [
    "[[0, 0] ,[0, 1],\n [1, 0] , [1, 1]]",
    "[[0, 0],  [0, 1],\t[1, 0]\n,[1, 1]  ]",
    "[[0, 0], [0, 1], [1, 0], [1, 1], [0, 1, 1]]",
    "[[0, 0], [0, 1], [1, 0, 1], [1, 1, 0]]",
    "[[0, 0], [0, 1], [1, 0], [1000000000, 1]]",
    "[[0, 0], [0, 1], [1, 0], [2147483648, 1]]",
    "[[0, 0], [0, 1], [1, 0], [1, 9999999999999999999]]",
    "[[0, 0], [0, 1], [1, 0], [1, 1 0]]",
    "[[0, 0], [0, 1], [1, 0], [1, -01]]",
    "[[0, 0], [0, 1], [1, 0], [1, 1],]",
    "[[0, 0], [0, 1]], [[1, 0], [1, 1]]",
    "[[0, 0] ,[0, 1] , [1, 0] ,[1, 1] , \n]",
    "[[0, 0] ,[0, 1] \n [1, 0] ,[1, 1]]",
    "[[0, 0] ,[0, 1] ,, [1, 0] ,[1, 1]]",
], ids=["space-before-comma", "space-after-comma", "ragged-later-row",
        "wider-later-piece", "ten-digits-later", "beyond-int32-later",
        "nineteen-digits-later", "split-number-later", "leading-zero-later",
        "trailing-comma", "two-matrices", "spaced-trailing-comma",
        "no-comma-after-space", "two-commas"])
def test_design_loads_agrees_with_reference_reader_at_every_cut(blocks):
    text = _design_with_blocks(blocks)
    want = outcome(reference_design_loads, text)
    for size in range(1, len(blocks) + 2):
        with pieces_of(size):
            assert outcome(formats.design_loads, text) == want, size


def test_spaced_rows_are_read_in_pieces(monkeypatch):
    # rows separated by "] ," have no "]," to cut at; they are cut after
    # each "]" all the same, and white space after the last row is skipped
    doc = json.loads(formats.design_dumps(dz.td_from_field(3, 8)))
    text = json.dumps(doc, separators=(" ,", " : ")).replace("]] ,", "] \n] ,", 1)
    assert "]," not in text and "] \n]" in text
    read = formats._int_matrix
    bodies = []
    monkeypatch.setattr(formats, "_int_matrix", lambda body: bodies.append(body) or read(body))
    monkeypatch.setattr(formats, "_PIECE", 100)
    got = formats.design_loads(text)
    assert len(bodies) > 1 and all(read(body) is not None for body in bodies)
    want = reference_design_loads(text)
    assert got.blocks.dtype == want.blocks.dtype
    assert np.array_equal(got.blocks, want.blocks)


@pytest.mark.parametrize("text", [
    '{"blocks": [[0, 1], [1, 0]], "blocks": [[1, 1]], "group_size": 2, '
    '"holes": [], "index": 1, "k": 2, "kind": "TD"}',
    '{"x": {"blocks": [[0, 1]]}, "blocks": [[1, 1]], "group_size": 2, '
    '"holes": [], "index": 1, "k": 2, "kind": "TD"}',
    '{"blocks": [[0, 1]], "group_size": 2, "holes": [], "index": 1, '
    '"k": 2, "kind": "TD", "note": "\\"blocks\\": [[5, 5]]"}',
    '{"blocks": [[1, 2], [3]], "group_size": 4, "holes": [], "index": 1, '
    '"k": 2, "kind": "TD"}',
    '{"blocks": [[01, 2]], "group_size": 4, "holes": [], "index": 1, '
    '"k": 2, "kind": "TD"}',
    '{"blocks": [[1.0, 2]], "group_size": 4, "holes": [], "index": 1, '
    '"k": 2, "kind": "TD"}',
    '{"blocks": [[-0, 3], [- 1, 2]], "group_size": 4, "holes": [], '
    '"index": 1, "k": 2, "kind": "TD"}',
    '{"blocks": [[99999999999999999999, 3]], "group_size": 4, "holes": [], '
    '"index": 1, "k": 2, "kind": "TD"}',
    '{"blocks": [[9999999999999999999, 3]], "group_size": 4, "holes": [], '
    '"index": 1, "k": 2, "kind": "TD"}',
    '{"blocks": [[1, 2], [3], [3, 1, 0], [1, 0]], "group_size": 4, '
    '"holes": [], "index": 1, "k": 2, "kind": "TD"}',
    '{"blocks": [[1-2, 3]], "group_size": 4, "holes": [], "index": 1, '
    '"k": 2, "kind": "TD"}',
    '{"blocks": [[1, 2]], "group_size": 4, "holes": [], "index": 1, '
    '"k": 2, "kind": "TD", "x": {"blocks": [[3, 3]]}}',
    '{"blocks": "\\u0000", "group_size": 4, "holes": [], "index": 1, '
    '"k": 2, "kind": "TD", "x": {"blocks": [[3, 3]]}}',
])
def test_design_loads_edge_cases_agree_with_reference_reader(text):
    assert outcome(formats.design_loads, text) == \
        outcome(reference_design_loads, text)


def _row_token(text, row, col, token):
    lines = text.split("\n")
    toks = lines[row].split(" ")
    toks[col] = token
    lines[row] = " ".join(toks)
    return "\n".join(lines)


@pytest.mark.parametrize("bad", [
    _row_token(GRID, 2, 2, "0"),
    _row_token(GRID, 2, 2, "05"),
    _row_token(GRID, 2, 2, "+5"),
    _row_token(GRID, 2, 2, "1.5"),
    _row_token(GRID, 2, 0, ".."),
    _row_token(GRID, 2, 2, "1_0"),
    GRID.replace("7 6 . .", "7  6 . .", 1),
    GRID.replace("7 6 . .", "7\t6 . .", 1),
    GRID.replace("7 6 . . 1 8 5 2\n", "7 6 . . 1 8 5\n", 1),
    GRID.replace("\n\n", "\n", 1),
    GRID + "1 2 3 4 5 6 7 8\n",
    GRID + "\n",
], ids=["zero", "leading-zero", "plus", "decimal", "double-dot", "underscore",
        "double-space", "tab", "short-row", "no-blank-line",
        "trailing-row", "trailing-blank"])
def test_grid_rejects_malformed_tokens_and_shapes(bad):
    with pytest.raises(MalformedInput):
        formats.grid_loads(bad)


def test_grid_names_the_first_bad_token():
    with pytest.raises(MalformedInput, match="symbol 9 out of range 1..8"):
        formats.grid_loads(_row_token(GRID, 2, 2, "9"))
    with pytest.raises(MalformedInput, match="bad cell token '05'"):
        formats.grid_loads(_row_token(_row_token(GRID, 2, 2, "05"), 3, 2, "0"))


@pytest.mark.parametrize("size", [1, 20, 40])
def test_grid_names_the_first_bad_token_of_a_later_piece(size):
    """Rows of 16 bytes: pieces of 1, 1 and 2 rows, so the bad tokens lie
    in the second piece or later."""
    bad = _row_token(_row_token(_row_token(GRID, 4, 5, "05"), 5, 1, "9"), 8, 0, "x")
    with pieces_of(size):
        with pytest.raises(MalformedInput, match="bad cell token '05'"):
            formats.grid_loads(bad)
        with pytest.raises(MalformedInput, match="symbol 9 out of range 1..8"):
            formats.grid_loads(_row_token(bad, 4, 5, "5"))


def reference_cells(rows, n):
    """Cells by the strict token grammar, one token at a time; None when
    a row or a token is malformed."""
    cells = []
    for row in rows:
        toks = row.split(" ")
        if len(toks) != n:
            return None
        for tok in toks:
            if tok == ".":
                cells.append(-1)
            elif re.fullmatch(r"[1-9][0-9]*", tok) and int(tok) <= n:
                cells.append(int(tok) - 1)
            else:
                return None
    return cells


BAD_TOKENS = ["0", "00", "05", "+5", "-1", "1.5", "..", "", " ", "1e1", "\t3",
              "١", ":", ";", "1:", "99"]


@st.composite
def latin_rows(draw):
    """Rows of valid tokens for a latin header of order n, with at most
    two tokens replaced by malformed or out-of-range ones."""
    n = draw(st.integers(1, 12))
    valid = st.sampled_from(["."] + [str(v) for v in range(1, n + 1)])
    cells = draw(st.lists(valid, min_size=n * n, max_size=n * n))
    for _ in range(draw(st.integers(0, 2))):
        cells[draw(st.integers(0, n * n - 1))] = draw(st.sampled_from(BAD_TOKENS))
    return n, [" ".join(cells[r * n:(r + 1) * n]) for r in range(n)]


@settings(max_examples=300, deadline=None)
@given(latin_rows())
@example((10, [" ".join([":"] + ["."] * 9)] * 10))  # ":" is "0" + 10
def test_grid_cells_agree_with_token_grammar(case):
    check_grid_cells(case)


@settings(max_examples=300, deadline=None)
@given(latin_rows())
@example((10, [" ".join([":"] + ["."] * 9)] * 10))
def test_grid_cells_agree_with_token_grammar_in_small_pieces(case):
    with pieces_of(1):  # one row per piece
        check_grid_cells(case)


def check_grid_cells(case, encode=False):
    n, rows = case
    text = f"latin {n}\n" + "\n".join(rows) + "\n"
    want = reference_cells(rows, n)
    if want is None:
        with pytest.raises(MalformedInput):
            formats.grid_loads(text.encode() if encode else text)
    else:
        got = formats.grid_loads(text.encode() if encode else text)
        assert got.cells.ravel().tolist() == want


@st.composite
def latin_bytes(draw):
    """The bytes of a latin grid from latin_rows, perhaps after a BOM, with
    at most two cell tokens replaced by byte sequences from NON_ASCII."""
    n, rows = draw(latin_rows())
    cells = [tok.encode() for row in rows for tok in row.split(" ")]
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(cells) - 1))
        cells[at] = draw(st.sampled_from([b"", b"1"])) + draw(st.sampled_from(NON_ASCII))
    body = b"\n".join(b" ".join(cells[r * n:(r + 1) * n]) for r in range(n))
    return n, draw(st.sampled_from([b"", BOM])) + f"latin {n}\n".encode() + body + b"\n"


@settings(max_examples=300, deadline=None)
@given(latin_rows())
def test_grid_cells_of_bytes_agree_with_token_grammar(case):
    check_grid_cells(case, encode=True)


@settings(max_examples=300, deadline=None)
@given(latin_bytes(), st.sampled_from([1, 20, 1 << 18]))
@example((2, b"latin 2\n1 \xff\n. 1\n"), 1)
@example((2, BOM + b"latin 2\n1 2\n2 1\n"), 1)
def test_grid_loads_of_bytes_agrees_with_the_text_reading(case, size):
    """Bytes read as their UTF-8 text: a decoding error and its message
    as the text reading raised them, then the reference token grammar."""
    n, data = case
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        with pytest.raises(UnicodeDecodeError) as got, pieces_of(size):
            formats.grid_loads(data)
        assert str(got.value) == str(exc)
        return
    if text.startswith("\ufeff"):
        with pytest.raises(MalformedInput, match=re.escape("unknown grid kind '\\ufefflatin'")):
            formats.grid_loads(data)
        return
    want = reference_cells(text.split("\n")[1:-1], n)
    with pieces_of(size):
        if want is None:
            with pytest.raises(MalformedInput):
                formats.grid_loads(data)
        else:
            assert formats.grid_loads(data).cells.ravel().tolist() == want


def test_printers_agree_across_piece_sizes():
    td = dz.td_from_field(4, 64)
    squares = td.sorted_blocks()[:, 2:].T.reshape(2, 64, 64)
    mols = dz.IncompleteMolsSet.from_arrays(n=64, hole=(), squares=squares)
    assert dz.verify_imols(mols).valid
    with pieces_of(1 << 30):
        design, grid = formats.design_dumps(td), formats.grid_dumps(mols)
    assert design.count("\n") == 4096 + 9 and len(grid) > 4 * 64 * 64
    for size in (1, 100, 4096, formats._PIECE):
        with pieces_of(size):
            assert formats.design_dumps(td) == design
            assert formats.grid_dumps(mols) == grid
            assert formats.design_dumps(formats.design_loads(design)) == design
            doc = formats._fast_design_doc(design.encode())  # no fallback to json.loads
            assert np.array_equal(doc["blocks"], td.sorted_blocks())
            assert formats.grid_dumps(formats.grid_loads(grid)) == grid
