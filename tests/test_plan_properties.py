"""validate_plan and execute_plan agree on what a plan needs.

Over small registries whose facts are all constructible, every plan that
validate_plan accepts, the planner's own and copies with one fact or one
child swapped, either executes to a verified design of its goal's type or
raises MalformedInput naming a subtree goal.  The registries are
truthful except for range facts, whose one recipe covers only the bound,
so a range fact is the only thing allowed to fail.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hmols import designs as dz
from hmols import planner as pl
from hmols.errors import MalformedInput, NoPlan

PRIME_POWERS = (3, 4, 5, 7, 8, 9)
MAX_N = 44  # Wilson plans over TD(4, 9) reach 4 * 9 + 8


def _add(reg, kind, params, **recipe):
    reg.add(kind, params, pl.CONSTRUCTIBLE, recipe=recipe)


TD_FACTS = [(k, q) for q in PRIME_POWERS for k in range(3, min(5, q + 1) + 1)]
UNIT_FACTS = [(k, q) for q in PRIME_POWERS[:-1] for k in range(3, min(4, q) + 1)]


@st.composite
def registries(draw):
    """Each candidate fact is in or out, in by default, so that the draws
    Hypothesis favours give rich registries; the HMOLS(2^4) fixture is
    always in."""
    reg = pl.Registry()
    _add(reg, pl.HTD, (4, 2, 4), op="fixture", name="hmols_2_4")
    for k, q in TD_FACTS:
        if not draw(st.booleans()):
            _add(reg, pl.TD, (k, q), op="td_from_field", k=k, q=q)
    for k, q in UNIT_FACTS:
        if not draw(st.booleans()):
            _add(reg, pl.HTD, (k, 1, q), op="unit_hole_htd", k=k, q=q)
    if not draw(st.booleans()):
        _add(reg, pl.ITD, (3, 10, 2), op="marked_product_itd", k=3, q1=5, q2=2)
    if draw(st.booleans()):
        q = draw(st.sampled_from(PRIME_POWERS))
        _add(reg, pl.HTD_ATLEAST, (3, 1, q), op="unit_hole_htd", k=3, q=q)
    return reg


def nodes(tree):
    yield tree
    for sub in tree.children.values():
        yield from nodes(sub)


def planned(reg, k):
    out = []
    for n in range(1, MAX_N + 1):
        try:
            out.append(pl.plan_hmols(2, k, n, reg))
        except NoPlan:
            pass
    return out


@st.composite
def cases(draw):
    """A registry and a plan over it: a planner plan, or one with a fact
    or a child swapped for another from the same registry's plans."""
    reg = draw(registries())
    found = planned(reg, draw(st.sampled_from([1, 2])))
    composed = [t for t in found if t.children]  # leaves recur inside these
    pick = draw(st.sampled_from((composed or found)[::-1]))  # largest goal first
    tree = pl.PlanTree.from_json(pick.to_json())
    mutation = draw(st.sampled_from(["none", "fact", "child"]))
    if mutation == "fact":
        slots = [(node, role) for node in nodes(tree)
                 for role in node.step if role.endswith("fact")]
        if slots:
            node, role = draw(st.sampled_from(slots))
            kind, params = draw(st.sampled_from(sorted(reg.facts)))
            node.step[role] = [kind, list(params)]
    elif mutation == "child":
        slots = [(node, role) for node in nodes(tree) for role in node.children]
        if slots:
            node, role = draw(st.sampled_from(slots))
            donors = [sub for t in found for sub in nodes(t)]
            node.children[role] = draw(st.sampled_from(donors))
    return reg, tree


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(cases())
def test_accepted_plans_execute_or_name_the_failing_subtree(case):
    reg, tree = case
    try:
        pl.validate_plan(tree, reg)
    except MalformedInput:
        return
    h, n, k = tree.goal
    try:
        out = pl.execute_plan(tree, reg)
    except MalformedInput as exc:
        assert str(exc).startswith("subtree ")
        assert any(str(node.goal) in str(exc) for node in nodes(tree))
        assert any(node.step[role][0] == pl.HTD_ATLEAST for node in nodes(tree)
                   for role in node.step if role.endswith("fact"))
        return
    assert (out.k, out.hole_size, out.hole_count) == (k + 2, h, n)
    assert dz.verify_design(out).valid
