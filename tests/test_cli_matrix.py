"""Every subcommand with every kind of input in every file slot.

The inputs are the HMOLS grid, the IMOLS grid, a certificate, a TD file,
an HTD file, a registry and a plan, each as written and with three
single-byte mutations.  A command runs once per file slot and input,
with its other slots holding files it accepts, so the input in the slot
meets the work behind it.  Every run must end in an exit code of the
command line (0, 1, 2 or 3), exit 1 only with an INVALID verdict on
stdout, and no exception may leave cli.run.
"""

import numpy as np
import pytest

from hmols import compose as cp
from hmols import cyclotomic as cy
from hmols import designs as dz
from hmols import formats
from hmols import planner as pl
from hmols.cli import run
from hmols.fixtures import fixture_path, hmols_pair_2_4

INPUTS = ("hmols.grid", "imols.grid", "cert.json", "td.json", "htd.json",
          "registry.json", "plan.json")
MUTATIONS = 3
VARIED = [*INPUTS, *(f"{i}~{name}" for name in INPUTS for i in range(MUTATIONS))]

# a token "@name" is a file slot, holding the file name until it is varied
COMMANDS = {
    "verify": ["verify", "@td.json"],
    "convert-hmols": ["convert", "@htd.json", "--to", "hmols"],
    "convert-htd": ["convert", "@hmols.grid", "--to", "htd"],
    "develop": ["develop", "@cert.json"],
    "search-verify": ["search", "--verify", "@cert.json"],
    "expand": ["expand", "@td.json", "7", "--budget", "2000"],
    "product": ["compose", "product", "@td34.json", "@td33.json"],
    "diag": ["compose", "diag", "@unit33.json", "@td38.json", "@htd3.json"],
    "wilson": ["compose", "wilson", "@td45.json", "@htd3.json", "@td38.json",
               "@itd.json", "@htd3.json"],
    "wilson-u0": ["compose", "wilson", "@td45.json", "@htd3.json", "@td38.json"],
    "truncate": ["compose", "truncate", "@td55.json", "@td33.json", "@td34.json",
                 "@td35.json", "@td32.json", "--v", "2"],
    "truncate-u0": ["compose", "truncate", "@td55.json", "@td33.json",
                    "@td34.json", "@td35.json"],
    "plan": ["plan", "2", "2", "4", "--registry", "@registry.json"],
    "execute": ["execute", "@plan.json", "--registry", "@registry.json"],
}


def _mutations(text: str, seed: int) -> list[str]:
    """MUTATIONS copies of text, each with one byte replaced by another
    byte that a design, grid or JSON file is made of."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(MUTATIONS):
        at = int(rng.integers(len(text)))
        choices = [c for c in '0123456789 .,:[]{}"\n' if c != text[at]]
        out.append(text[:at] + choices[int(rng.integers(len(choices)))] + text[at + 1:])
    return out


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """File name -> path: the ingredients that fill the slots, and the
    inputs with their mutations (i~name)."""
    wd = tmp_path_factory.mktemp("matrix")
    reg = pl.Registry()
    reg.add(pl.HTD, (4, 2, 4), pl.CONSTRUCTIBLE,
            recipe={"op": "fixture", "name": "hmols_2_4"})
    htd3 = dz.restrict_groups(dz.hmols_to_htd(hmols_pair_2_4()), [0, 1, 2])
    sol = cy.search_uvectors(2, 2, [0, 1, 2, 3], 13, seed=0)
    texts = {
        "hmols.grid": fixture_path("hmols_2_4.grid").read_text(),
        "imols.grid": fixture_path("imols_6_2.grid").read_text(),
        "cert.json": formats.cert_dumps(sol.to_cert()),
        "td.json": formats.design_dumps(cy.td_projection(2, 2, 3)),
        "htd.json": formats.design_dumps(dz.hmols_to_htd(hmols_pair_2_4())),
        "registry.json": reg.to_json(),
        "plan.json": pl.plan_hmols(2, 2, 4, reg).to_json(),
        "htd3.json": formats.design_dumps(htd3),
        "unit33.json": formats.design_dumps(dz.unit_hole_htd(3, 3)),
        "itd.json": formats.design_dumps(
            cp.product_itd(dz.td_from_field(3, 5), dz.td_from_field(3, 2))),
    }
    for k, q in ((3, 2), (3, 3), (3, 4), (3, 5), (3, 8), (4, 5), (5, 5)):
        texts[f"td{k}{q}.json"] = formats.design_dumps(dz.td_from_field(k, q))
    for seed, name in enumerate(INPUTS):
        for i, text in enumerate(_mutations(texts[name], seed)):
            texts[f"{i}~{name}"] = text
    paths = {}
    for name, text in texts.items():
        paths[name] = wd / name
        paths[name].write_text(text)
    return paths


def _ends_in_an_exit_code(line, capsys):
    """None if run(line) ends as the command line promises, else what
    went wrong."""
    try:
        code = run(line)
    except Exception as exc:  # noqa: BLE001 - an escape is the failure
        return f"{type(exc).__name__}: {exc}"
    out = capsys.readouterr().out
    if code not in (0, 1, 2, 3) or code == 1 and "INVALID" not in out:
        return code
    return None


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_every_slot_and_input_ends_in_an_exit_code(files, tmp_path, capsys, command):
    argv = COMMANDS[command]
    base = [str(files[token[1:]]) if token.startswith("@") else token for token in argv]
    assert run(base) == 0, "the command with its own files succeeds"
    capsys.readouterr()
    failures = []
    for slot in [i for i, token in enumerate(argv) if token.startswith("@")]:
        # every input, and three mutations of the slot's own file
        own = files[argv[slot][1:]]
        paths = [files[name] for name in VARIED]
        for i, text in enumerate(_mutations(own.read_text(), 100 + slot)):
            paths.append(tmp_path / f"{i}~{own.name}")
            paths[-1].write_text(text)
        for path in map(str, paths):
            line = base[:slot] + [path] + base[slot + 1:]
            failure = _ends_in_an_exit_code(line, capsys)
            if failure is not None:
                failures.append((slot, path, failure))
    assert failures == []
