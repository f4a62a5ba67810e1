import hashlib
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import hmols
from hmols import cli
from hmols import cyclotomic as cy
from hmols import designs as dz
from hmols import formats
from hmols import gf
from hmols.cli import run
from hmols.fixtures import fixture_path, hmols_pair_2_4, template_3_2_matrix


def test_verify_fixture_exits_zero(capsys):
    assert run(["verify", str(fixture_path("hmols_2_4.grid"))]) == 0
    assert "valid" in capsys.readouterr().out


def test_verify_mutated_fixture_exits_one(tmp_path, capsys):
    pair = hmols_pair_2_4()
    arr = np.array(pair.squares, copy=True)
    arr[0, 2, 0], arr[0, 2, 7] = arr[0, 2, 7], arr[0, 2, 0]
    mutated = dz.HoleyLatinSquareSet.from_arrays(h=2, n=4, holes=pair.holes,
                                                 squares=arr)
    path = tmp_path / "hmols_2_4_mutated.grid"
    path.write_text(formats.grid_dumps(mutated))
    assert run(["verify", str(path)]) == 1
    out = capsys.readouterr().out
    assert "INVALID" in out and "HoleSymbol" in out


def test_verify_json_flag(capsys):
    assert run(["--json", "verify", str(fixture_path("imols_6_2.grid"))]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["valid"] is True and doc["violations"] == []


def test_bound_lambda(capsys):
    assert run(["bound", "lambda", "2", "11"]) == 0
    assert capsys.readouterr().out.strip() == "8"


def test_bound_prime_and_frobenius(capsys):
    assert run(["bound", "prime", "8", "400", "800"]) == 0
    assert capsys.readouterr().out.strip() == "401"
    assert run(["bound", "frobenius", "3", "5", "2", "130"]) == 0
    assert capsys.readouterr().out.strip() == "5 23"
    assert run(["bound", "prime", "100", "2", "50"]) == 3


@pytest.mark.parametrize("argv, usage", [
    (["frobenius", "3", "5"], "frobenius a b c n"),
    (["frobenius", "3", "5", "1"], "frobenius a b c n"),
    (["prime", "4", "10"], "prime m lo hi")])
def test_bound_with_a_missing_argument_is_a_usage_error(capsys, argv, usage):
    assert run(["bound", *argv]) == 2
    err = capsys.readouterr().err
    assert f"usage: hmols bound {usage}" in err and "Traceback" not in err


@pytest.mark.parametrize("argv, usage", [
    (["upper", "2", "4", "99", "7"], "upper a b"),
    (["lambda", "2", "4", "5"], "lambda a b"),
    (["asymptotic", "2", "1000", "5"], "asymptotic a b"),
    (["prime", "4", "10", "50", "7"], "prime m lo hi")])
def test_bound_with_a_surplus_argument_is_a_usage_error(capsys, argv, usage):
    # the calculator would ignore it and answer as if it were not there
    assert run(["bound", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"usage: hmols bound {usage}" in captured.err and "Traceback" not in captured.err


def test_bound_upper_and_asymptotic(capsys):
    assert run(["bound", "upper", "2", "4"]) == 0
    assert capsys.readouterr().out.strip() == "2"
    assert run(["bound", "asymptotic", "2", "1000", "--delta", "3.0"]) == 0
    assert "asymptotic, not a certificate" in capsys.readouterr().out


def test_usage_error_exits_two(capsys):
    assert run(["bound", "nonsense", "1", "2"]) == 2
    assert run(["no-such-command"]) == 2
    assert run(["verify", "/no/such/file.grid"]) == 2


def test_template_output_matches_fixture(capsys):
    assert run(["template", "3", "2"]) == 0
    rows = [[int(t) for t in line.split()]
            for line in capsys.readouterr().out.strip().splitlines()]
    assert np.array_equal(np.array(rows), template_3_2_matrix())


def test_project_verify_flow(tmp_path, capsys):
    out = tmp_path / "proj.json"
    assert run(["project", "2", "2", "3", "--out", str(out)]) == 0
    assert run(["verify", str(out)]) == 0


def test_search_and_develop_flow(tmp_path, capsys):
    cert = tmp_path / "cert.json"
    assert run(["search", "2", "2", "5", "--cols", "0", "1", "2", "3",
                "--seed", "0", "--out", str(cert)]) == 0
    doc = formats.cert_loads(cert.read_text())
    assert doc["q"] == 5 and doc["col_selection"] == [0, 1, 2, 3]
    out = tmp_path / "htd.json"
    assert run(["develop", str(cert), "--out", str(out)]) == 0
    design = formats.design_loads(out.read_text())
    assert design.k == 4 and dz.verify_design(design).valid


def test_search_verify_recovers_columns(tmp_path, capsys):
    completed = tmp_path / "complete.json"
    assert run(["search", "--verify", str(fixture_path("cert_2_401.json")),
                "--out", str(completed)]) == 0
    doc = formats.cert_loads(completed.read_text())
    assert doc["col_selection"] is not None and len(doc["col_selection"]) == 11


def _cert_401_with(**fields):
    doc = json.loads(fixture_path("cert_2_401.json").read_text())
    doc.update(fields)
    return json.dumps(doc)


U_401 = json.loads(fixture_path("cert_2_401.json").read_text())["u_vectors"]


def _cert_9_with(entry):
    return json.dumps({"h": 2, "d": 2, "q": 9, "omega": None, "col_selection": None,
                       "u_vectors": [[0, 1, entry, None], [0, 2, 5, None]], "seed": None})


# the first five used to end in an uncaught TypeError (a traceback and
# exit 1); a non-canonical omega passed, an entry outside GF(9) raised an
# IndexError or wrapped around, and q = 10**30 + 57 hung in factoring
BROKEN_CERTS = {
    "not-an-object": "3",
    "nested-entry": _cert_401_with(u_vectors=[[[1]] + U_401[0][1:], U_401[1]]),
    "vectors-not-a-list": _cert_401_with(u_vectors=5),
    "q-a-string": _cert_401_with(q="401"),
    "blanks-with-columns": _cert_401_with(
        col_selection=[0, 1, 2, 3, 4, 5, 6, 7, 9, 10, 12]),
    "omega-not-canonical": _cert_401_with(omega=5),
    "gf9-entry-99": _cert_9_with(99),
    "gf9-entry-negative": _cert_9_with(-1),
    "q-beyond-int32": _cert_401_with(q=10**30 + 57),
}


def test_unbounded_column_matching_exits_two_at_once(tmp_path, capsys):
    # matching the 1024 columns of the (2, 10) template took 4.5 s before
    # the work bound; q = 7681 is 1 mod lam = 512
    blanks = [None] * 1021
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps({"h": 2, "d": 10, "q": 7681, "omega": None,
                                "col_selection": None, "seed": None,
                                "u_vectors": [[0, 1, 2] + blanks, [0, 3, 7] + blanks]}))
    start = time.perf_counter()
    assert run(["develop", str(cert)]) == 2
    assert time.perf_counter() - start < 1.0
    assert "(bound 67108864)" in capsys.readouterr().err


@pytest.mark.parametrize("name", sorted(BROKEN_CERTS))
@pytest.mark.parametrize("command", [["search", "--verify"], ["develop"]])
def test_malformed_certificate_exits_two(tmp_path, capsys, name, command):
    cert = tmp_path / "cert.json"
    cert.write_text(BROKEN_CERTS[name])
    assert run(command + [str(cert)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


@pytest.mark.parametrize("command", [["search", "--verify"], ["develop"]])
def test_certificate_without_omega_is_accepted(tmp_path, capsys, command):
    cert = tmp_path / "cert.json"
    cert.write_text(_cert_401_with(omega=None))
    assert run(command + [str(cert)]) == 0


# the first 16 hex digits of the sha256 of stdout
COSETS_DIGESTS = {
    "2 2": "e8f8c19fc4c1e50e",
    "3 2": "9a51dcd0e707b353",
    "4 2 --k 6": "38b12bfcb5acfd6c",
    "2 4 --cols 0 1 2 3 4 5 6 7 9 10 12": "7b92f643ff5220db",
    "9 2 --k 5": "adbffba91f87fb6a",
}


@pytest.mark.parametrize("args", sorted(COSETS_DIGESTS))
def test_cosets_output_is_pinned(capsys, args):
    assert run(["cosets"] + args.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == COSETS_DIGESTS[args]


def test_verify_degenerate_design_exits_two(tmp_path, capsys):
    path = tmp_path / "index0.json"
    path.write_text('{"kind":"TD","k":3,"group_size":4,"index":0,'
                    '"holes":[],"blocks":[]}')
    assert run(["verify", str(path)]) == 2
    assert "valid" not in capsys.readouterr().out


@pytest.mark.parametrize("field, value", [("group_size", 10**11), ("index", 10**30)])
def test_verify_group_size_or_index_beyond_int32_exits_two(tmp_path, capsys, field, value):
    # once an allocation of g^2 cells, or an OverflowError in the pair count
    doc = {"blocks": [[0, 0, 0]], "group_size": 2, "holes": [], "index": 1,
           "k": 3, "kind": "TD"}
    doc[field] = value
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc, sort_keys=True))
    assert run(["verify", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "must be below 2^31" in captured.err


# (fixture, header or hole line, its mutation): each once read through
# int(), which takes a sign, spaces, underscores and non-ASCII digits
GRID_NUMBER_MUTATIONS = {
    "plus-k": ("hmols_2_4.grid", "hmols 2 2 4", "hmols +2 2 4"),
    "leading-zero-n": ("hmols_2_4.grid", "hmols 2 2 4", "hmols 2 2 04"),
    "fullwidth-h": ("hmols_2_4.grid", "hmols 2 2 4", "hmols 2 \uff12 4"),
    "plus-and-space-hole": ("hmols_2_4.grid", "holes 1,2|", "holes +1, 2|"),
    "underscore-hole": ("hmols_2_4.grid", "|7,8", "|7,0_8"),
    "arabic-indic-hole": ("hmols_2_4.grid", "|7,8", "|7,\u0668"),
    "plus-imols-n": ("imols_6_2.grid", "imols 2 6", "imols 2 +6"),
    "space-imols-hole": ("imols_6_2.grid", "hole 1,2", "hole 1, 2"),
}


@pytest.mark.parametrize("name", sorted(GRID_NUMBER_MUTATIONS))
def test_grid_header_numbers_follow_the_token_grammar(tmp_path, capsys, name):
    fixture, old, new = GRID_NUMBER_MUTATIONS[name]
    text = fixture_path(fixture).read_text()
    assert old in text
    path = tmp_path / fixture
    path.write_text(text.replace(old, new, 1), encoding="utf-8")
    assert run(["verify", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "bad number" in captured.err


@pytest.mark.parametrize("entry", ["4294967296", "12345678901234567890123"])
def test_verify_entry_outside_int32_exits_two(tmp_path, capsys, entry):
    text = formats.design_dumps(dz.td_from_field(3, 2))
    head, sep, tail = text.partition("[0, ")  # the first block starts with 0
    assert sep
    path = tmp_path / "wide.json"
    path.write_text(f"{head}[{entry}, {tail}")
    assert run(["verify", str(path)]) == 2
    assert "valid" not in capsys.readouterr().out


@pytest.mark.parametrize("doc", ["[1]", "3", '"x"'])
def test_verify_non_object_design_file_exits_two(tmp_path, capsys, doc):
    path = tmp_path / "design.json"
    path.write_text(doc)
    assert run(["verify", str(path)]) == 2
    assert "valid" not in capsys.readouterr().out


# (base design, field, edit): each once ended in "valid" with the value
# truncated to an integer, in a TypeError traceback with exit 1, or in a
# message that did not name the field
WRONGLY_TYPED_DESIGNS = {
    "half-block-entry": ("td", "blocks", lambda doc: doc["blocks"][0].__setitem__(0, 0.5)),
    "bool-block-entry": ("td", "blocks", lambda doc: doc["blocks"][0].__setitem__(0, True)),
    "fractional-group-size": ("td", "group_size", lambda doc: doc.update(group_size=2.5)),
    "holes-number": ("td", "holes", lambda doc: doc.update(holes=5)),
    "kind-list": ("td", "kind", lambda doc: doc.update(kind=["TD"])),
    "k-string": ("td", "k", lambda doc: doc.update(k="3")),
    "index-bool": ("td", "index", lambda doc: doc.update(index=True)),
    "fractional-hole-entry": ("htd", "holes", lambda doc: doc["holes"][1].__setitem__(0, 1.5)),
}


@pytest.mark.parametrize("name", sorted(WRONGLY_TYPED_DESIGNS))
def test_verify_wrongly_typed_design_exits_two(tmp_path, capsys, name):
    base, field, edit = WRONGLY_TYPED_DESIGNS[name]
    design = dz.td_from_field(3, 3) if base == "td" else dz.unit_hole_htd(3, 3)
    doc = json.loads(formats.design_dumps(design))
    edit(doc)
    path = tmp_path / "design.json"
    path.write_text(json.dumps(doc))
    assert run(["verify", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"design field '{field}'" in captured.err


@pytest.mark.parametrize("blocks, row", [("[[1, 2], [3]]", 1),
                                         ("[[1], [2, 3], [0, 1]]", 1),
                                         ("[[0, 1], [1, 0], [0, 1, 1]]", 2)])
def test_verify_ragged_blocks_name_the_row(tmp_path, capsys, blocks, row):
    # once numpy's "inhomogeneous shape after 1 dimensions", naming neither
    path = tmp_path / "ragged.json"
    path.write_text('{"kind": "TD", "k": 2, "group_size": 2, "index": 1, '
                    f'"holes": [], "blocks": {blocks}}}')
    assert run(["verify", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"design field 'blocks': row {row} has" in captured.err


def test_search_exhausted_exit_code(tmp_path, capsys):
    assert run(["search", "2", "2", "5", "--cols", "0", "1", "2", "3",
                "--budget", "0"]) == 3
    # the search's counters go to stderr; stdout stays empty
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("exhausted: budget 0 consumed: 0 evaluations, "
                            "0 restarts, deepest position 3 of 8\n")


def test_search_bytes_identical_across_runs(tmp_path):
    outs = []
    for attempt in ("a", "b"):
        out = tmp_path / f"cert_{attempt}.json"
        assert run(["search", "2", "2", "5",
                    "--cols", "0", "1", "2", "3", "--seed", "7",
                    "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_parser_reused_across_subcommands(capsys):
    # the parser is built once per process and keeps no state between runs
    assert cli._build_parser() is cli._build_parser()
    assert run(["bound", "lambda", "2", "11"]) == 0
    assert capsys.readouterr().out.strip() == "8"
    assert run(["verify", str(fixture_path("hmols_2_4.grid"))]) == 0
    assert "valid" in capsys.readouterr().out
    assert run(["bound", "lambda", "2", "11"]) == 0
    assert capsys.readouterr().out.strip() == "8"


def test_budget_variable_read_at_each_search(tmp_path, monkeypatch):
    # seed 0 finds (2, 2) over GF(5) with 9 evaluations and not with 8
    argv = ["search", "2", "2", "5", "--cols", "0", "1", "2", "3",
            "--seed", "0", "--out", str(tmp_path / "cert.json")]
    monkeypatch.setenv("HMOLS_BUDGET", "8")
    assert run(argv) == 3
    monkeypatch.setenv("HMOLS_BUDGET", "9")
    assert run(argv) == 0


def test_search_negative_seed_exits_two(capsys):
    assert run(["search", "2", "2", "5", "--cols", "0", "1", "2", "3",
                "--seed", "-3"]) == 2
    assert "seed must be non-negative, got -3" in capsys.readouterr().err


SEARCH_2_2_5 = ["search", "2", "2", "5", "--cols", "0", "1", "2", "3"]


def test_negative_budget_flag_exits_two(capsys):
    assert run(SEARCH_2_2_5 + ["--budget", "-1"]) == 2
    assert "--budget must be a non-negative integer, got -1" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["abc", "-5", "1.5", ""])
def test_bad_budget_variable_exits_two(tmp_path, monkeypatch, capsys, value):
    monkeypatch.setenv("HMOLS_BUDGET", value)
    assert run(SEARCH_2_2_5) == 2
    err = capsys.readouterr().err
    assert f"HMOLS_BUDGET must be a non-negative integer, got {value!r}" in err
    # the flag takes precedence, and certificate checks need no budget
    cert = tmp_path / "cert.json"
    assert run(SEARCH_2_2_5 + ["--budget", "19", "--out", str(cert)]) == 0
    assert run(["search", "--verify", str(cert)]) == 0


def test_expand_negative_seed_exits_two(tmp_path, capsys):
    proj = tmp_path / "proj.json"
    assert run(["project", "2", "2", "3", "--out", str(proj)]) == 0
    assert run(["expand", str(proj), "7", "--seed", "-1"]) == 2
    assert "seed must be non-negative, got -1" in capsys.readouterr().err


def test_jobs_flag_is_gone():
    assert run(["--jobs", "4", "search", "2", "2", "5",
                "--cols", "0", "1", "2", "3"]) == 2


def test_expand_flow(tmp_path):
    proj = tmp_path / "proj.json"
    assert run(["project", "2", "2", "3", "--out", str(proj)]) == 0
    out = tmp_path / "htd.json"
    assert run(["expand", str(proj), "7", "--seed", "1", "--out", str(out)]) == 0
    design = formats.design_loads(out.read_text())
    assert design.group_size == 14 and dz.verify_design(design).valid


def test_convert_round_trip(tmp_path):
    htd_path = tmp_path / "htd.json"
    assert run(["convert", str(fixture_path("hmols_2_4.grid")),
                "--to", "htd", "--out", str(htd_path)]) == 0
    back = tmp_path / "back.grid"
    assert run(["convert", str(htd_path), "--to", "hmols",
                "--out", str(back)]) == 0
    assert back.read_text() == fixture_path("hmols_2_4.grid").read_text()


def test_compose_product_cli(tmp_path):
    a, b, out = (tmp_path / x for x in ("a.json", "b.json", "out.json"))
    a.write_text(formats.design_dumps(dz.td_from_field(3, 2)))
    b.write_text(formats.design_dumps(dz.td_from_field(3, 3)))
    assert run(["compose", "product", str(a), str(b), "--out", str(out)]) == 0
    design = formats.design_loads(out.read_text())
    assert design.group_size == 6 and dz.verify_design(design).valid


def test_plan_and_execute_cli(tmp_path, capsys):
    from hmols import planner as pl
    reg = pl.Registry()
    reg.add(pl.RECIPE, ("cyclotomic",), pl.CONSTRUCTIBLE)
    reg_path = tmp_path / "reg.json"
    reg_path.write_text(reg.to_json())
    plan_path = tmp_path / "plan.json"
    assert run(["plan", "2", "1", "67", "--registry", str(reg_path),
                "--out", str(plan_path)]) == 0
    assert run(["execute", str(plan_path), "--registry", str(reg_path)]) == 0
    assert "valid" in capsys.readouterr().out
    assert run(["plan", "2", "6", "59201", "--registry", str(reg_path)]) == 3


def _cyclotomic_registry(tmp_path):
    from hmols import planner as pl
    reg = pl.Registry()
    reg.add(pl.RECIPE, ("cyclotomic",), pl.CONSTRUCTIBLE)
    path = tmp_path / "reg.json"
    path.write_text(reg.to_json())
    return str(path)


BROKEN_PLANS = {
    "no-goal": '{"step": {"kind": "trivial"}, "children": {}}',
    "no-kind": '{"goal": [2, 67, 1], "step": {}, "children": {}}',
    "not-an-object": "[1]",
    # used to exit 3 with an "exhausted:" message
    "broken-arithmetic": '{"goal": [2, 67, 1], "step": {"kind": "cyclotomic", '
                         '"q": 61, "lam": 2}, "children": {}}',
}


@pytest.mark.parametrize("name", sorted(BROKEN_PLANS))
def test_execute_broken_plan_exits_two(tmp_path, capsys, name):
    plan = tmp_path / "plan.json"
    plan.write_text(BROKEN_PLANS[name])
    assert run(["execute", str(plan), "--registry", _cyclotomic_registry(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


@pytest.mark.parametrize("text", ['[{"kind": "TD"}]', '{"a": 1}'])
def test_plan_broken_registry_exits_two(tmp_path, capsys, text):
    reg = tmp_path / "reg.json"
    reg.write_text(text)
    assert run(["plan", "2", "1", "67", "--registry", str(reg)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_execute_range_fact_plan_exits_two(tmp_path, capsys):
    # HTD(3, 1^n) for n >= 5 from one recipe for n = 5: executing it used to
    # print "HTD(3,2^20): valid" for the goal 2^28 and exit 0
    from hmols import planner as pl
    reg = pl.Registry()
    reg.add(pl.HTD, (4, 2, 4), pl.CONSTRUCTIBLE,
            recipe={"op": "fixture", "name": "hmols_2_4"})
    reg.add(pl.TD, (3, 8), pl.CONSTRUCTIBLE,
            recipe={"op": "td_from_field", "k": 3, "q": 8})
    reg.add(pl.HTD_ATLEAST, (3, 1, 5), pl.CONSTRUCTIBLE,
            recipe={"op": "unit_hole_htd", "k": 3, "q": 5})
    reg_path, plan_path = tmp_path / "reg.json", tmp_path / "plan.json"
    reg_path.write_text(reg.to_json())
    assert run(["plan", "2", "1", "28", "--registry", str(reg_path),
                "--out", str(plan_path)]) == 0
    assert run(["execute", str(plan_path), "--registry", str(reg_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "range fact" in captured.err


def _diag_plan_files(tmp_path, fact=None, provenance=None):
    """Plan and registry files for HTD(3, 2^20) as the diagonal product of
    HTD(3, 1^5), TD(3, 8) and the HMOLS(2^4) fixture, with one fact's
    provenance replaced in the registry file."""
    from hmols import planner as pl
    reg = pl.Registry()
    reg.add(pl.HTD, (4, 2, 4), pl.CONSTRUCTIBLE,
            recipe={"op": "fixture", "name": "hmols_2_4"})
    reg.add(pl.HTD, (3, 1, 5), pl.CONSTRUCTIBLE,
            recipe={"op": "unit_hole_htd", "k": 3, "q": 5})
    reg.add(pl.TD, (3, 8), pl.CONSTRUCTIBLE,
            recipe={"op": "td_from_field", "k": 3, "q": 8})
    plan_path, reg_path = tmp_path / "plan.json", tmp_path / "reg.json"
    plan_path.write_text(pl.plan_hmols(2, 1, 20, reg).to_json())
    if fact is not None:
        reg.facts[fact] = provenance
    reg_path.write_text(reg.to_json())
    return str(plan_path), str(reg_path)


# the TD is read by the root (2, 20, 1), the fixture by its child (2, 4, 1)
TD_3_8, FIXTURE_2_4 = ("TD", (3, 8)), ("HTD", (4, 2, 4))
# a recipe is outside input: each of these exits 2 with the failing subtree
# named, and none may leave cli.run as a KeyError or AttributeError
BROKEN_RECIPES = {
    "no-k": (TD_3_8, {"op": "td_from_field", "q": 8}),
    "k-string": (TD_3_8, {"op": "td_from_field", "k": "3", "q": 8}),
    "k-list": (TD_3_8, {"op": "td_from_field", "k": [3], "q": 8}),
    "not-an-object": (TD_3_8, [3, 8]),
    "no-recipe": (TD_3_8, None),
    "fixture-without-name": (FIXTURE_2_4, {"op": "fixture"}),
}


@pytest.mark.parametrize("name", sorted(BROKEN_RECIPES))
def test_execute_broken_recipe_exits_two(tmp_path, capsys, name):
    fact, recipe = BROKEN_RECIPES[name]
    provenance = {"source": "constructible"}
    if recipe is not None:
        provenance["recipe"] = recipe
    plan, reg = _diag_plan_files(tmp_path, fact, provenance)
    assert run(["execute", plan, "--registry", reg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    goal = (2, 4, 1) if fact == FIXTURE_2_4 else (2, 20, 1)
    assert captured.err.startswith(f"error: subtree {goal} failed: ")


def _refused_in_a_small_child(*argv) -> str:
    """Run the command line in a child process that may have 1 GiB of
    address space; assert that it exits 2 at once, printing nothing on
    stdout and no traceback, and return its stderr."""
    env = {**os.environ, "PYTHONPATH": str(Path(hmols.__file__).parents[1])}
    start = time.perf_counter()
    child = subprocess.run(
        [sys.executable, "-m", "hmols.cli", *map(str, argv)],
        env=env, capture_output=True, text=True, timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)))
    elapsed = time.perf_counter() - start
    assert child.returncode == 2, child.stderr
    assert "Traceback" not in child.stderr and child.stdout == ""
    assert elapsed < 2
    return child.stderr


def test_oversized_recipe_is_refused_before_allocating(tmp_path):
    # td_from_field over GF(46309) would ask for 16 GiB
    plan, reg = _diag_plan_files(
        tmp_path, TD_3_8, {"source": "constructible",
                           "recipe": {"op": "td_from_field", "k": 3, "q": 46309}})
    assert "over the cap" in _refused_in_a_small_child("execute", plan, "--registry", reg)


def test_recipe_of_too_many_entries_is_refused_before_allocating(tmp_path):
    # 3,996,001 rows pass the row cap, but 2000 entries a row would ask for
    # about 61 GB
    plan, reg = _diag_plan_files(
        tmp_path, TD_3_8, {"source": "constructible",
                           "recipe": {"op": "td_from_field", "k": 2000, "q": 1999}})
    assert "7992002000 entries, over the cap" in \
        _refused_in_a_small_child("execute", plan, "--registry", reg)


def test_developing_too_many_blocks_is_refused_before_allocating(tmp_path):
    # the certificate `search 2 1 1000003 --cols 0 1` writes: developing its
    # 2,000,004 base blocks over 2,000,006 shifts would first ask for a
    # 29.1 TiB addition table
    cert = tmp_path / "cert.json"
    cert.write_text(formats.cert_dumps({
        "h": 2, "d": 1, "q": 1000003, "omega": 2, "col_selection": [0, 1],
        "u_vectors": [[0, 150050], [0, 833711]], "seed": 0}))
    assert len(cert.read_bytes()) == 163
    err = _refused_in_a_small_child("develop", cert)
    assert f"would build 4000020000024 blocks, over the cap {dz.MAX_EXEC_BLOCKS}" in err


def test_expanding_to_too_many_blocks_is_refused_before_allocating(tmp_path):
    # expanding TD(3, 2) over GF(2147483629) would first ask for 16 GiB of
    # field tables
    td = tmp_path / "td.json"
    td.write_text(formats.design_dumps(dz.td_from_field(3, 2)))
    err = _refused_in_a_small_child("expand", td, 2147483629)
    assert f"blocks over GF(2147483629) would build {4 * 2147483629 * 2147483628} " \
        f"blocks, over the cap {dz.MAX_EXEC_BLOCKS}" in err


def test_a_field_too_large_for_tables_is_refused_before_allocating():
    # the search's field tables over GF(2147483629) would ask for 16 GiB
    err = _refused_in_a_small_child("search", 2, 2, 2147483629, "--cols", 0, 1)
    assert f"field order 2147483629 is over the table bound {gf.MAX_TABLE_ORDER}" in err


def test_execute_names_the_subtree_of_a_refused_seed(tmp_path, capsys):
    reg_path = _cyclotomic_registry(tmp_path)
    plan_path = tmp_path / "plan.json"
    assert run(["plan", "2", "1", "67", "--registry", reg_path,
                "--out", str(plan_path)]) == 0
    capsys.readouterr()
    assert run(["execute", str(plan_path), "--registry", reg_path, "--seed", "-1"]) == 2
    assert capsys.readouterr().err == ("error: subtree (2, 67, 1) failed: "
                                       "seed must be non-negative, got -1\n")


def test_execute_exhausted_exits_three(tmp_path, capsys):
    # a search out of budget inside a plan once read as a refused input
    reg_path = _cyclotomic_registry(tmp_path)
    plan_path = tmp_path / "plan.json"
    assert run(["plan", "2", "1", "67", "--registry", reg_path,
                "--out", str(plan_path)]) == 0
    capsys.readouterr()
    assert run(["execute", str(plan_path), "--registry", reg_path,
                "--budget", "0"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("exhausted: subtree (2, 67, 1) failed: "
                            "per-block budget 0 consumed\n")


def test_a_bug_in_execution_is_not_an_exit_code(tmp_path, monkeypatch):
    # an AssertionError is a bug: it keeps its traceback and exit 1, and is
    # never relabelled as a refused input
    from hmols import compose as cp

    def broken(*args):
        raise AssertionError("broken composition")

    monkeypatch.setattr(cp, "diag_product", broken)
    plan, reg = _diag_plan_files(tmp_path)
    with pytest.raises(AssertionError, match="^broken composition$"):
        run(["execute", plan, "--registry", reg])


# a grid file where a design file is expected: each but convert once
# ended in an AttributeError traceback with exit 1, the invalid-design code
GRID_AS_DESIGN = {"convert": (["convert"], 1, ["--to", "hmols"]),
                  "expand": (["expand"], 1, ["7"]),
                  "product": (["compose", "product"], 2, []),
                  "diag": (["compose", "diag"], 3, []),
                  "wilson": (["compose", "wilson"], 3, [])}


@pytest.mark.parametrize("grid", ["hmols_2_4.grid", "imols_6_2.grid"])
@pytest.mark.parametrize("op", sorted(GRID_AS_DESIGN))
def test_grid_where_a_design_is_expected_exits_two(tmp_path, capsys, grid, op):
    command, slots, rest = GRID_AS_DESIGN[op]
    out = tmp_path / "out.json"
    argv = [*command, *[str(fixture_path(grid))] * slots, *rest, "--out", str(out)]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "not a block design" in captured.err
    assert not out.exists()


def test_compose_product_of_one_design_exits_two(tmp_path, capsys):
    # once an IndexError traceback with exit 1
    proj = tmp_path / "proj.json"
    assert run(["project", "2", "2", "3", "--out", str(proj)]) == 0
    assert run(["compose", "product", str(proj)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


# each once ran anyway: product ignored a third file, diag ended in
# "not enough values to unpack", truncate in a TypeError traceback and
# wilson read a fourth file it never used
COMPOSE_MISUSE = {"product-three": ["product", 3], "diag-two": ["diag", 2],
                  "wilson-two": ["wilson", 2], "wilson-four": ["wilson", 4],
                  "wilson-six": ["wilson", 6], "truncate-three": ["truncate", 3]}


@pytest.mark.parametrize("name", sorted(COMPOSE_MISUSE))
def test_compose_misuse_exits_two_before_building(tmp_path, capsys, name):
    op, count, *options = COMPOSE_MISUSE[name]
    td = tmp_path / "td.json"
    td.write_text(formats.design_dumps(dz.td_from_field(3, 3)))
    out = tmp_path / "out.json"
    assert run(["compose", op, *[str(td)] * count, *options, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"usage: hmols compose {op} " in captured.err
    assert not out.exists()


def test_written_files_equal_the_printers(tmp_path, capsys):
    # the HTD(8, 2^97) of this certificate prints to several text pieces
    cert, htd_path, grid_path, back = (
        tmp_path / x for x in ("cert.json", "htd.json", "h.grid", "back.json"))
    assert run(["search", "2", "3", "97", "--cols", *map(str, range(8)),
                "--seed", "0", "--out", str(cert)]) == 0
    sol = cli._solution_from_cert(formats.cert_loads(cert.read_text()))
    htd = cy.develop_rdf(cy.assemble_rdf(sol))
    text = formats.design_dumps(htd)
    assert len(text) > 4 * formats._PIECE
    assert run(["develop", str(cert), "--out", str(htd_path)]) == 0
    assert htd_path.read_bytes() == text.encode()
    assert run(["convert", str(htd_path), "--to", "hmols", "--out", str(grid_path)]) == 0
    hm = dz.htd_to_hmols(htd)
    assert grid_path.read_bytes() == formats.grid_dumps(hm).encode()
    assert run(["convert", str(grid_path), "--to", "htd", "--out", str(back)]) == 0
    assert back.read_bytes() == formats.design_dumps(dz.hmols_to_htd(hm)).encode()
    capsys.readouterr()
    assert run(["project", "2", "3", "8"]) == 0
    assert capsys.readouterr().out == formats.design_dumps(cy.td_projection(2, 3, 8))


def test_execute_writes_the_printed_design(tmp_path, capsys):
    from hmols import planner as pl
    reg_path = _cyclotomic_registry(tmp_path)
    plan_path, out = tmp_path / "plan.json", tmp_path / "htd.json"
    assert run(["plan", "2", "1", "67", "--registry", reg_path,
                "--out", str(plan_path)]) == 0
    assert run(["execute", str(plan_path), "--registry", reg_path,
                "--budget", str(cy.DEFAULT_BUDGET), "--out", str(out)]) == 0
    design = pl.execute_plan(pl.PlanTree.from_json(plan_path.read_text()),
                             pl.Registry.from_json(open(reg_path).read()),
                             seed=0, budget=cy.DEFAULT_BUDGET)
    assert out.read_bytes() == formats.design_dumps(design).encode()


TD_3_3 = formats.design_dumps(dz.td_from_field(3, 3)).encode()
GRID_2_4 = fixture_path("hmols_2_4.grid").read_bytes()


@pytest.mark.parametrize("name, data, message", [
    ("blocks.json", TD_3_3.replace(b"[0, 1, 2]", b"[0, \xff1, 2]"),
     "byte 0xff in position 34: invalid start byte"),
    ("kind.json", TD_3_3.replace(b'"TD"', b'"T\xc3D"'),
     "byte 0xc3 in position 200: invalid continuation byte"),
    ("cell.grid", GRID_2_4.replace(b"7 6", b"7 \xe96", 1),
     "byte 0xe9 in position 68: invalid continuation byte"),
    ("crlf.grid", GRID_2_4.replace(b"\n", b"\r\n").replace(b"7 6", b"7 \xe96", 1),
     "byte 0xe9 in position 72: invalid continuation byte"),
], ids=["in-blocks", "outside-blocks", "grid", "crlf-grid"])
def test_files_that_are_not_utf8_exit_two(tmp_path, capsys, name, data, message):
    # the message names the byte and its place in the file as it was
    # before the file was read as bytes
    path = tmp_path / name
    path.write_bytes(data)
    assert run(["verify", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: 'utf-8' codec can't decode {message}\n"


@pytest.mark.parametrize("name, data", [
    ("crlf.grid", GRID_2_4.replace(b"\n", b"\r\n")),
    ("cr.grid", GRID_2_4.replace(b"\n", b"\r")),
    ("crlf.json", TD_3_3.replace(b"\n", b"\r\n")),
])
def test_files_with_carriage_returns_read_as_text(tmp_path, capsys, name, data):
    path = tmp_path / name
    path.write_bytes(data)
    assert run(["verify", str(path)]) == 0
    assert capsys.readouterr().out == f"{path}: valid\n"


def test_a_bom_is_refused_as_before(tmp_path, capsys):
    for name, data, message in [
            ("bom.json", TD_3_3, "Unexpected UTF-8 BOM (decode using utf-8-sig): "
                                 "line 1 column 1 (char 0)"),
            ("bom.grid", GRID_2_4, "unknown grid kind '\\ufeffhmols'")]:
        path = tmp_path / name
        path.write_bytes(b"\xef\xbb\xbf" + data)
        assert run(["verify", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


def test_designs_and_grids_print_to_any_stdout(tmp_path, monkeypatch):
    """Without --out the byte pieces go to stdout's binary buffer, after
    what was printed before, or decoded to a stdout that has none."""
    import contextlib
    import io
    path = tmp_path / "h.json"
    path.write_text(formats.design_dumps(dz.hmols_to_htd(hmols_pair_2_4())))
    want = formats.grid_dumps(hmols_pair_2_4())
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        assert run(["convert", str(path), "--to", "hmols"]) == 0
    binary = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    monkeypatch.setattr(sys, "stdout", binary)
    print("before", end="\n")
    assert run(["convert", str(path), "--to", "hmols"]) == 0
    binary.flush()
    assert text.getvalue() == want
    assert binary.buffer.getvalue().decode() == "before\n" + want
