"""Independent output checker for the benchmark.

Everything here is plain numpy and the standard library: it never
imports hmols, so a defect in the package's own verifiers cannot hide a
wrong output.  It checks

- block designs (HTDs) by counting every cross-group pair;
- HMOLS grid files by the same counts the HMOLS conditions define;
- search certificates by rebuilding the relative difference family
  from the vectors and counting every difference (prime h and q only).

Violation counts follow the definitions the package documents for
`hmols verify --json`, so the rejection commands can be cross-checked.

Run as a script, it checks the files one `cert-401` pass wrote and
derives the seeded corrupted copies (see `cert_pass_main`).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import sys
from pathlib import Path

import numpy as np

BLANK = -1


# ---------------------------------------------------------------------------
# parsing, standard library plus numpy only
# ---------------------------------------------------------------------------

def load_hmols_grid(path) -> dict:
    """Header `hmols k h n`, a `holes` line of 1-based cells, then k squares
    of side h*n with 1-based symbols and `.` blanks."""
    lines = Path(path).read_text().split("\n")
    head = lines[0].split()
    if head[0] != "hmols" or not lines[1].startswith("holes "):
        raise ValueError(f"{path}: not an hmols grid")
    k, h, n = (int(x) for x in head[1:4])
    holes = [[int(x) - 1 for x in cell.split(",")]
             for cell in lines[1][len("holes "):].split("|")]
    body = " ".join(ln for ln in lines[2:] if ln.strip())
    g = h * n
    cells = np.fromstring(body.replace(".", "0"), dtype=np.int64, sep=" ")
    if cells.size != k * g * g:
        raise ValueError(f"{path}: {cells.size} cells, expected {k * g * g}")
    return {"k": k, "h": h, "n": n, "holes": holes,
            "squares": cells.reshape(k, g, g) - 1}


def grid_blocks(grid: dict) -> np.ndarray:
    """The HTD(k+2, h^n) read off the squares: one block (row, column,
    symbol in each square) per cell outside the holes."""
    hole_of = _hole_of(grid["holes"], grid["h"] * grid["n"])
    fi, fj = np.nonzero(hole_of[:, None] != hole_of[None, :])
    cols = [fi, fj] + [sq[fi, fj] for sq in grid["squares"]]
    return np.stack(cols, axis=1).astype(np.int64)


# ---------------------------------------------------------------------------
# pair counting
# ---------------------------------------------------------------------------

def _hole_of(holes, size: int) -> np.ndarray:
    hole_of = np.full(size, -1, dtype=np.int64)
    for t, cell in enumerate(holes):
        hole_of[list(cell)] = t
    return hole_of


def design_violations(blocks, group_size: int, index: int, holes) -> int:
    """Violations as `hmols verify` counts them for a design file: one per
    out-of-range block, else one for a wrong block count plus one per
    (group pair, point pair) whose multiplicity is off."""
    g = group_size
    blocks = np.asarray(blocks, dtype=np.int64)
    out_of_range = (blocks < 0) | (blocks >= g)
    if out_of_range.any():
        return int(np.count_nonzero(out_of_range.any(axis=1)))
    expected_count = index * (g * g - sum(len(c) ** 2 for c in holes))
    v = int(len(blocks) != expected_count)
    hole_of = _hole_of(holes, g)
    same = (hole_of[:, None] == hole_of[None, :]) & (hole_of[:, None] >= 0)
    expected = np.where(same, 0, index).ravel()
    k = blocks.shape[1]
    for r, s in itertools.combinations(range(k), 2):
        counts = np.bincount(blocks[:, r] * g + blocks[:, s], minlength=g * g)
        v += int(np.count_nonzero(counts != expected))
    return v


def _square_violations(sq, hole_of, g: int) -> int:
    in_same = (hole_of[:, None] == hole_of[None, :]) & (hole_of[:, None] >= 0)
    blank = sq == BLANK
    v = int(np.count_nonzero(blank != in_same))
    fi, fj = np.nonzero(~blank)
    syms = sq[fi, fj]
    for idx in (fi, fj):
        v += int(np.count_nonzero(np.bincount(idx * g + syms, minlength=g * g) > 1))
    hs = hole_of[syms]
    return v + int(np.count_nonzero((hs >= 0) & ((hs == hole_of[fi]) | (hs == hole_of[fj]))))


def _pair_violations(a, b, hole_of, g: int) -> int:
    expected = np.where(hole_of[:, None] == hole_of[None, :], 0, 1).ravel()
    mask = (a != BLANK) & (b != BLANK)
    counts = np.bincount(a[mask] * g + b[mask], minlength=g * g)
    return int(np.count_nonzero(counts != expected))


def hmols_violations(squares, holes, g: int) -> int:
    """Violations as `hmols verify` counts them for an HMOLS grid: blank
    placement, row and column repeats, hole symbols in their own hole's
    rows or columns, and every ordered symbol pair off its multiplicity."""
    hole_of = _hole_of(holes, g)
    return sum(_square_violations(sq, hole_of, g) for sq in squares) + \
        sum(_pair_violations(a, b, hole_of, g)
            for a, b in itertools.combinations(squares, 2))


def htd_problems(blocks, k: int, h: int, n: int, group_size: int, index: int,
                 holes) -> list[str]:
    """Empty when the design is a valid HTD(k, h^n) of index 1."""
    probs = []
    blocks = np.asarray(blocks)
    if blocks.ndim != 2 or blocks.shape[1] != k:
        return [f"blocks have shape {blocks.shape}, expected (*, {k})"]
    if group_size != h * n or index != 1:
        probs.append(f"group size {group_size}, index {index}; expected {h * n}, 1")
    flat = sorted(int(x) for c in holes for x in c)
    if len(holes) != n or any(len(c) != h for c in holes) or flat != list(range(h * n)):
        probs.append(f"holes are not {n} cells of size {h} partitioning the points")
    if probs:
        return probs
    v = design_violations(blocks, group_size, index, holes)
    return [f"{v} pair-count violations"] if v else []


def design_digest(blocks, group_size: int, index: int, holes) -> str:
    """sha256 of the parameters and the lexicographically sorted blocks;
    independent of file format and block order."""
    blocks = np.asarray(blocks, dtype=np.int64)
    g = max(group_size, 1)
    key = blocks[:, 0] * g + blocks[:, 1]
    order = np.argsort(key, kind="stable")
    if np.any(np.diff(key[order]) == 0):  # ties: sort on every column
        order = np.lexsort(blocks.T[::-1])
    norm = sorted(sorted(int(x) for x in c) for c in holes)
    head = json.dumps({"k": blocks.shape[1], "group_size": group_size,
                       "index": index, "holes": norm}, sort_keys=True)
    hsh = hashlib.sha256(head.encode())
    hsh.update(np.ascontiguousarray(blocks[order]).astype("<i8").tobytes())
    return hsh.hexdigest()


# ---------------------------------------------------------------------------
# certificates: relative difference families over Z_q x Z_h
# ---------------------------------------------------------------------------

def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % p for p in range(2, int(n ** 0.5) + 1))


def _prime_factors(n: int) -> list[int]:
    return [p for p in range(2, n + 1) if n % p == 0 and _is_prime(p)]


def cert_problems(cert: dict, h: int, d: int, q: int, cols=None) -> list[str]:
    """Empty when the certificate's vectors develop into a relative
    difference family over Z_q x Z_h: for every column pair, the
    differences of the base blocks cover each element outside the
    subgroup Z_h x {0} exactly once.  cols, when given, must equal the
    certificate's column selection."""
    if (cert.get("h"), cert.get("d"), cert.get("q")) != (h, d, q):
        return [f"certificate is for {(cert.get('h'), cert.get('d'), cert.get('q'))}"]
    if not (_is_prime(h) and _is_prime(q)):
        return ["the checker handles prime h and q only"]
    sel = cert.get("col_selection")
    if sel is None or (cols is not None and list(sel) != list(cols)):
        return [f"column selection {sel}, expected {cols}"]
    u = np.asarray(cert["u_vectors"], dtype=np.int64)
    lam = h ** (d - 1)
    if u.shape != (h, len(sel)) or u.min() < 0 or u.max() >= q:
        return [f"vectors of shape {u.shape} or entries outside 0..{q - 1}"]
    if (q - 1) % lam:
        return [f"q = {q} is not 1 mod {lam}"]
    omega = cert.get("omega")
    if not isinstance(omega, int) or not 0 < omega < q or \
            any(pow(omega, (q - 1) // p, q) == 1 for p in _prime_factors(q - 1)):
        return [f"omega = {omega} is not a primitive root mod {q}"]
    vecs = np.array(list(itertools.product(range(h), repeat=d)), dtype=np.int64)
    template = (vecs @ vecs.T) % h
    c0 = np.array([pow(omega, lam * j, q) for j in range((q - 1) // lam)],
                  dtype=np.int64)
    zs, alphas = [], []
    for m in range(h ** d):
        i, e = divmod(m, lam)
        u_m = pow(omega, e, q) * u[i] % q
        zs.append(c0[:, None] * u_m[None, :] % q)
        alphas.append(np.broadcast_to(template[m, list(sel)], (len(c0), len(sel))))
    z, alpha = np.concatenate(zs), np.concatenate(alphas)
    expected = np.ones(q * h, dtype=np.int64)
    expected[:h] = 0
    bad = 0
    for r, s in itertools.combinations(range(len(sel)), 2):
        diff = ((z[:, r] - z[:, s]) % q) * h + (alpha[:, r] - alpha[:, s]) % h
        bad += int(np.count_nonzero(np.bincount(diff, minlength=q * h) != expected))
    return [f"{bad} difference-count violations"] if bad else []


# ---------------------------------------------------------------------------
# seeded corruption, standard library only
# ---------------------------------------------------------------------------

def corrupt_design(doc: dict, dst, rng: random.Random) -> dict:
    """Write the parsed design file doc to dst with one block entry moved
    to another point of its group; doc itself is left unchanged."""
    b = rng.randrange(len(doc["blocks"]))
    i = rng.randrange(doc["k"])
    row = doc["blocks"][b]
    old = row[i]
    new = rng.choice([x for x in range(doc["group_size"]) if x != old])
    row[i] = new
    try:
        Path(dst).write_text(json.dumps(doc))
    finally:
        row[i] = old
    return {"block": b, "group": i, "new": new}


def corrupt_grid(src, dst, rng: random.Random) -> dict:
    """Copy an HMOLS grid with one filled cell given another symbol."""
    lines = Path(src).read_text().split("\n")
    k, h, n = (int(x) for x in lines[0].split()[1:4])
    g = h * n
    rows = [p for p in range(2, len(lines)) if lines[p].strip()]
    while True:
        t, i, j = rng.randrange(k), rng.randrange(g), rng.randrange(g)
        toks = lines[rows[t * g + i]].split(" ")
        if toks[j] != ".":
            break
    new = rng.choice([s for s in range(1, g + 1) if str(s) != toks[j]])
    toks[j] = str(new)
    lines[rows[t * g + i]] = " ".join(toks)
    Path(dst).write_text("\n".join(lines))
    return {"square": t, "row": i, "col": j, "new": new}


# ---------------------------------------------------------------------------
# the cert-401 pass check, run in its own process
# ---------------------------------------------------------------------------

def cert_pass_main(workdir: str, seed: int, spec: dict) -> dict:
    """Check htd.json, h.grid and full.json as one cert-401 pass wrote them,
    then write the seeded corrupted copies and count their violations.

    spec gives the certificate's h, d, q, the design's group count k and
    the reference digest of the developed design.  The grid is valid when
    its blanks sit exactly on the holes and the design read off it has the
    digest of the checked htd.json.  The corrupted copies differ from the
    checked files in one entry, so only the counts that entry enters are
    redone."""
    wd = Path(workdir)
    k, h, n, d = spec["k"], spec["h"], spec["q"], spec["d"]
    g = h * n
    problems = []
    doc = json.loads((wd / "htd.json").read_text())
    blocks = np.asarray(doc["blocks"], dtype=np.int64).reshape(-1, doc["k"])
    holes = doc["holes"]
    for p in htd_problems(blocks, k, h, n, doc["group_size"], doc["index"], holes):
        problems.append(f"htd.json: {p}")
    if design_digest(blocks, doc["group_size"], doc["index"], holes) != spec["digest"]:
        problems.append("htd.json: sorted-block digest differs from the reference")
    grid = load_hmols_grid(wd / "h.grid")
    hole_of = _hole_of(grid["holes"], g)
    same = hole_of[:, None] == hole_of[None, :]
    if (grid["k"] + 2, grid["h"], grid["n"]) != (k, h, n):
        problems.append(f"h.grid: header {grid['k']} {grid['h']} {grid['n']}")
    elif np.any((grid["squares"] == BLANK) != same):
        problems.append("h.grid: blanks off the hole cells")
    elif design_digest(grid_blocks(grid), g, 1, grid["holes"]) != spec["digest"]:
        problems.append("h.grid: sorted-block digest differs from the reference")
    for p in cert_problems(json.loads((wd / "full.json").read_text()), h, d, n):
        problems.append(f"full.json: {p}")

    rng = random.Random(seed)
    edit = corrupt_design(doc, wd / "htd_bad.json", rng)
    b, i = edit["block"], edit["group"]
    blocks[b, i] = edit["new"]
    bad_design = sum(design_violations(blocks[:, sorted((i, j))], g, 1, holes)
                     for j in range(k) if j != i)
    del doc, blocks
    edit = corrupt_grid(wd / "h.grid", wd / "h_bad.grid", rng)
    squares = grid["squares"]
    t = edit["square"]
    squares[t, edit["row"], edit["col"]] = edit["new"] - 1
    bad_grid = _square_violations(squares[t], hole_of, g) + \
        sum(_pair_violations(squares[min(t, u)], squares[max(t, u)], hole_of, g)
            for u in range(len(squares)) if u != t)
    return {"problems": problems,
            "expected_violations": {"htd_bad.json": bad_design,
                                    "h_bad.grid": bad_grid}}


if __name__ == "__main__":
    print(json.dumps(cert_pass_main(sys.argv[1], int(sys.argv[2]),
                                    json.loads(sys.argv[3]))))
