"""Tests for groupoids, the regular-representation C*-category, the
adjunction with unitary subgroupoids, fundamental groupoids and nerves."""

import json
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from cstarcat import groupoids as gp
from cstarcat import randgen as rg
from cstarcat.categories import (
    full_matrix_category,
    functors_agree,
    identity_functor,
    nat_space,
    validate_category,
    validate_functor,
)
from cstarcat.errors import InvalidFunctor, InvalidGroupoid, MalformedInput, NotUnitary
from cstarcat.linalg import Tolerance, is_unitary, split_pair_key
from cstarcat.simplicial import FiniteSimplicialSet, SimplexRef, standard


# ---------------------------------------------------------------------------
# basic constructors


def test_interval_groupoid_shape():
    interval = gp.interval_groupoid()
    assert interval.hom("i0", "i1") == ["i0>0>i1"]
    assert interval.inverses["i0>0>i1"] == "i1>0>i0"
    assert interval.identities == {"i0": "i0>0>i0", "i1": "i1>0>i1"}
    assert len(interval.arrows) == 4


def test_product_with_terminal_and_counting():
    z2, z3 = gp.cyclic_groupoid(2), gp.cyclic_groupoid(3)
    assert len(gp.product_groupoid(z2, z3).arrows) == 6
    t = gp.terminal_groupoid()
    p = gp.product_groupoid(z2, t)
    assert len(p.arrows) == len(z2.arrows)
    # one object whose vertex group has order 2, so Z/2 again
    [[x]] = p.components()
    assert len(p.hom(x, x)) == 2


def test_groupoid_validation_catches_bad_tables():
    for g_inverse in ("e", "g"):  # g has no inverse, whichever arrow is named
        with pytest.raises(InvalidGroupoid, match="inverse of 'g'"):
            gp.FiniteGroupoid(["x"], {"e": ("x", "x"), "g": ("x", "x")},
                              {("e", "e"): "e", ("e", "g"): "g",
                               ("g", "e"): "g", ("g", "g"): "g"},
                              {"e": "e", "g": g_inverse})
    z2 = gp.cyclic_groupoid(2)
    with pytest.raises(InvalidGroupoid):  # z>1>z is a loop but not neutral
        gp.FiniteGroupoid(z2.objects, z2.arrows, z2.compose, z2.inverses,
                          identities={"z": "z>1>z"})
    # no arrow has an inverse, or z>1>z lacks one
    for inverses in ({}, {"z>0>z": "z>0>z"}):
        with pytest.raises(InvalidGroupoid):
            gp.FiniteGroupoid(z2.objects, z2.arrows, z2.compose, inverses)


@pytest.mark.parametrize("unit, p", [("e", "p"), ("e", "a")])
def test_an_idempotent_that_is_not_an_identity_is_rejected(unit, p):
    """The monoid {1, p} with p.p = p. Both arrows are idempotent loops, so
    when p's name sorts first the identity finder picks p; the table is
    rejected either way, read from a file or built directly."""
    compose = {(unit, unit): unit, (unit, p): p, (p, unit): p, (p, p): p}
    arrows = {unit: ("x", "x"), p: ("x", "x")}
    with pytest.raises(InvalidGroupoid):
        gp.FiniteGroupoid(["x"], arrows, compose, {f: f for f in arrows})
    data = {"objects": ["x"],
            "arrows": [{"name": f, "src": "x", "tgt": "x", "inv": f} for f in arrows],
            "compose": {f"{g}|{f}": h for (g, f), h in compose.items()}}
    with pytest.raises(InvalidGroupoid):
        gp.FiniteGroupoid.from_json(data)


def test_a_file_whose_inverse_names_the_wrong_arrow_is_rejected():
    data = gp.cyclic_groupoid(3).to_json()
    assert data["arrows"][1] == {"name": "z>1>z", "src": "z", "tgt": "z", "inv": "z>2>z"}
    data["arrows"][1]["inv"] = "z>1>z"
    with pytest.raises(InvalidGroupoid, match="inverse of 'z>1>z'"):
        gp.FiniteGroupoid.from_json(data)


def test_components_are_ordered_by_least_member():
    # three components, declared out of sorted order
    objects = ["q", "p", "r", "b", "a"]
    arrows, compose, inverses = {}, {}, {}
    for part in (["q", "b"], ["p"], ["r", "a"]):
        piece = gp.connected_groupoid(part, [[0]])
        arrows.update(piece.arrows)
        compose.update(piece.compose)
        inverses.update(piece.inverses)
    expected = [["a", "r"], ["b", "q"], ["p"]]
    assert gp.FiniteGroupoid(objects, arrows, compose, inverses).components() == expected
    pres = gp.FPGroupoid(objects, {"u": ("q", "b"), "v": ("r", "a")})
    assert pres.components() == expected


def test_groupoid_json_round_trip():
    z3 = gp.cyclic_groupoid(3)
    blob = z3.to_json()
    again = gp.FiniteGroupoid.from_json(blob)
    assert again.to_json() == blob


def relabelled(table, rng):
    """The same group with its elements renamed by a random permutation."""
    perm = [int(p) for p in rng.permutation(len(table))]
    inv = {p: i for i, p in enumerate(perm)}
    return [[perm[table[inv[a]][inv[b]]] for b in range(len(table))]
            for a in range(len(table))]


def per_entry_connected_compose(objects, table):
    """``connected_groupoid``'s table formatted entry by entry, three names
    per entry, in the order x, y, z, h1, h2."""
    name = "{}>{}>{}".format
    return [((name(y, h2, z), name(x, h1, y)), name(x, table[h2][h1], z))
            for x in objects for y in objects for z in objects
            for h1 in range(len(table)) for h2 in range(len(table))]


def sorted_compose_json(groupoid):
    """The groupoid file's ``compose`` by sorting the pairs."""
    return {f"{g}|{f}": h for (g, f), h in sorted(groupoid.compose.items())}


def serialized_instances():
    rng = rg.rng_from_seed(29)
    connected = [gp.connected_groupoid(objects, relabelled(rg.group_table(kind, order), rng))
                 for objects in (["z"], ["q", "b"], ["x2", "x10", "x1"])
                 for kind, order in (("cyclic", 5), ("klein", 4), ("s3", 6))]
    randoms = [rg.random_groupoid(rng, n_objects=n, max_order=8) for n in (2, 4, 5)]
    normalized = [gp.normalize_fp(gp.fundamental_groupoid(standard("delta", 2))).groupoid,
                  gp.normalize_fp(gp.FPGroupoid(
                      ["v", "u"], {"a": ("v", "v"), "e": ("v", "u")},
                      [(gp.FPWord("v", "v", (("a", False),) * 6), gp.FPWord("v", "v"))])).groupoid]
    built = [gp.disjoint_groupoid([connected[1], gp.interval_groupoid()]),
             gp.product_groupoid(connected[4], gp.cyclic_groupoid(2)),
             gp.product_groupoid(gp.interval_groupoid(), randoms[0]),
             gp.terminal_groupoid(), gp.cyclic_groupoid(7)]
    return connected + randoms + normalized + built


def test_to_json_compose_is_the_sorted_table():
    for g in serialized_instances():
        blob = g.to_json()
        assert list(blob["compose"].items()) == list(sorted_compose_json(g).items())
        again = gp.FiniteGroupoid.from_json(json.loads(json.dumps(blob)))
        assert list(again.compose.items()) == [
            (split_pair_key(key), h) for key, h in blob["compose"].items()]
        assert again.to_json() == blob


def test_connected_groupoid_table_matches_the_per_entry_formula():
    rng = rg.rng_from_seed(31)
    for objects in (["a"], ["q", "b"], ["x2", "x10", "x1"]):
        for kind, order in (("cyclic", 1), ("cyclic", 6), ("klein", 4), ("s3", 6)):
            table = relabelled(rg.group_table(kind, order), rng)
            g = gp.connected_groupoid(objects, table)
            assert list(g.compose.items()) == per_entry_connected_compose(objects, table)
            names = [f"{x}>{h}>{y}" for x in objects for y in objects for h in range(order)]
            assert list(g.arrows) == names


@pytest.mark.parametrize("bad", ["a|b|c", "ab"])
def test_from_json_rejects_a_key_without_exactly_one_bar(bad):
    blob = gp.cyclic_groupoid(2).to_json()
    pairs = list(blob["compose"].items())
    # the malformed key comes second, after a well-formed one and before a
    # second malformed one: the first malformed key is the one named
    blob["compose"] = dict([pairs[0], (bad, "z>0>z"), ("x|y|z|w", "z>0>z"), *pairs[1:]])
    with pytest.raises(MalformedInput) as raised:
        gp.FiniteGroupoid.from_json(json.loads(json.dumps(blob)))
    assert str(raised.value) == f"key {bad!r} is not of the form 'a|b'"


# ---------------------------------------------------------------------------
# the endpoint index


def index_instances():
    rng = rg.rng_from_seed(17)
    randoms = [rg.random_groupoid(rng, n_objects=n, max_order=6)
               for n in (1, 2, 3, 4, 5) for _ in range(2)]
    products = [gp.product_groupoid(gp.interval_groupoid(), gp.cyclic_groupoid(3)),
                gp.product_groupoid(randoms[4], gp.cyclic_groupoid(2))]
    built = [gp.terminal_groupoid(), gp.interval_groupoid(), gp.cyclic_groupoid(5)]
    return randoms + products + built


def test_endpoint_index_agrees_with_brute_force_scans():
    for g in index_instances():
        for x in g.objects:
            for y in g.objects:
                assert g.hom(x, y) == sorted(f for f, ends in g.arrows.items()
                                             if ends == (x, y))
            assert g.arrows_into(x) == sorted(
                (f for f, (_s, t) in g.arrows.items() if t == x),
                key=lambda f: (g.arrows[f][0], f))
        # oracle: the one loop neutral against every arrow, and for each arrow
        # the one arrow that composes to identities on both sides
        identities = {}
        for x in g.objects:
            neutral = [e for e, ends in g.arrows.items() if ends == (x, x) and all(
                g.compose[(e, f)] == f for f, (_s, t) in g.arrows.items() if t == x)
                and all(g.compose[(f, e)] == f for f, (s, _t) in g.arrows.items() if s == x)]
            assert len(neutral) == 1
            identities[x] = neutral[0]
        inverses = {}
        for f, (src, tgt) in g.arrows.items():
            two_sided = [h for h in g.arrows
                         if g.compose.get((h, f)) == identities[src]
                         and g.compose.get((f, h)) == identities[tgt]]
            assert len(two_sided) == 1
            inverses[f] = two_sided[0]
        assert g.identities == identities and g.inverses == inverses
        # the identity search runs again when no identity table is given
        again = gp.FiniteGroupoid(g.objects, g.arrows, g.compose, inverses)
        assert again.identities == identities


# ---------------------------------------------------------------------------
# the regular representation


def test_cstar_max_z2_is_the_swap_matrix():
    # oracle, by hand: the regular representation of Z/2 sends the generator
    # to the permutation swapping the basis {e, g}
    gc = gp.cstar_max(gp.cyclic_groupoid(2))
    assert np.array_equal(gc.embed["z>1>z"], np.array([[0, 1], [1, 0]], dtype=complex))
    assert gc.category.hom("z", "z").dim == 2
    assert validate_category(gc.category) == []


def test_cstar_max_interval_carriers_and_hom_dims():
    gc = gp.cstar_max(gp.interval_groupoid())
    assert [o.dim for o in gc.category.objects] == [2, 2]
    for x in ("i0", "i1"):
        for y in ("i0", "i1"):
            assert gc.category.hom(x, y).dim == 1


def test_cstar_max_terminal_is_the_unit_category():
    gc = gp.cstar_max(gp.terminal_groupoid())
    assert len(gc.category.objects) == 1
    assert gc.category.objects[0].dim == 1
    assert gc.category.hom("pt", "pt").dim == 1


def test_cstar_max_stacks_one_hom_at_a_time():
    # each hom's scaled images are stacked before the next hom's are made,
    # so the peak is what the category holds plus one hom (the images of
    # every hom at once peaked at 1.5 times what is held)
    groupoid = gp.connected_groupoid(["a", "b"], gp.cyclic_group_table(40), check=False)
    tracemalloc.start()
    try:
        gc = gp.cstar_max(groupoid)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert gc.category.hom("a", "b").dim == 40
    assert peak <= 1.25 * held


def test_cstar_max_images_are_unitary_and_dims_count_arrows():
    g = rg.random_groupoid(rg.rng_from_seed(5), n_objects=3, max_order=4)
    gc = gp.cstar_max(g)
    assert validate_category(gc.category) == []
    for name, mat in gc.embed.items():
        assert is_unitary(mat)
    for x in g.objects:
        for y in g.objects:
            assert gc.category.hom(x, y).dim == len(g.hom(x, y))


def test_membership_predicates():
    assert is_unitary(np.diag([1.0, -1.0]).astype(complex))
    col = np.array([[1.0], [0.0]], dtype=complex)
    assert np.allclose(col.conj().T @ col, np.eye(1))  # an isometry
    assert not is_unitary(col)
    assert is_unitary(np.eye(3))


# ---------------------------------------------------------------------------
# the adjunction


def test_extend_of_the_arrow_embedding_is_the_identity():
    z3 = gp.cyclic_groupoid(3)
    gc = gp.cstar_max(z3)
    rep = gp.UnitaryRep(z3, gc.category, {"z": "z"},
                        {g: gc.embed[g] for g in z3.arrows})
    assert functors_agree(gp.adjunction_extend(gc, rep),
                          identity_functor(gc.category))


def test_extend_accepts_only_a_representation_of_the_same_groupoid():
    z2 = gp.cyclic_groupoid(2)
    gc = gp.cstar_max(z2)
    rep = gp.UnitaryRep(z2, gc.category, {"z": "z"},
                        {g: gc.embed[g] for g in z2.arrows})
    with pytest.raises(InvalidFunctor, match="representation is of a different groupoid"):
        gp.adjunction_extend(gp.cstar_max(gp.cyclic_groupoid(3)), rep)
    # an equal groupoid built separately is the same groupoid
    other = gp.cstar_max(gp.cyclic_groupoid(2))
    assert other.groupoid is not z2
    assert validate_functor(gp.adjunction_extend(other, rep)) == []


def test_sign_character_of_z2():
    z2 = gp.cyclic_groupoid(2)
    gc = gp.cstar_max(z2)
    unit = full_matrix_category([1], ["pt"])
    rep = gp.UnitaryRep(z2, unit, {"z": "pt"},
                        {"z>0>z": np.eye(1), "z>1>z": -np.eye(1)})
    functor = gp.adjunction_extend(gc, rep)
    assert validate_functor(functor) == []
    # the linear extension respects g^2 = e through the character values
    img = functor.apply("z", "z", gc.embed["z>1>z"] @ gc.embed["z>1>z"])
    assert np.allclose(img, np.eye(1))


def test_adjunction_round_trips():
    rng = rg.rng_from_seed(11)
    for _ in range(5):
        g = rg.random_groupoid(rng, n_objects=2, max_order=4)
        gc = gp.cstar_max(g)
        rep = rg.random_unitary_rep(rng, g, gc)
        functor = gp.adjunction_extend(gc, rep)
        assert validate_functor(functor) == []
        back = gp.adjunction_restrict(gc, functor)
        assert back.object_map == rep.object_map
        for arrow in g.arrows:
            assert np.allclose(back.arrow_map[arrow], rep.arrow_map[arrow],
                               atol=1e-9)
        again = gp.adjunction_extend(gc, back)
        assert functors_agree(again, functor)


def test_unitary_rep_rejects_non_unitary_images():
    z2 = gp.cyclic_groupoid(2)
    unit = full_matrix_category([1], ["pt"])
    with pytest.raises(NotUnitary):
        gp.UnitaryRep(z2, unit, {"z": "pt"},
                      {"z>0>z": np.eye(1), "z>1>z": 2 * np.eye(1)})
    with pytest.raises(InvalidFunctor):
        gp.UnitaryRep(z2, unit, {"z": "pt"},
                      {"z>0>z": np.eye(1), "z>1>z": 1j * np.eye(1)})  # breaks g^2 = e


def test_unitary_rep_is_judged_by_its_categorys_tolerance():
    z2 = gp.cyclic_groupoid(2)
    arrows = {"z>0>z": np.eye(1), "z>1>z": -(1 + 1e-5) * np.eye(1)}
    loose = full_matrix_category([1], names=["pt"], tol=Tolerance(1e-3))
    rep = gp.UnitaryRep(z2, loose, {"z": "pt"}, arrows)
    assert np.allclose(rep.arrow_map["z>1>z"], arrows["z>1>z"])
    with pytest.raises(NotUnitary):
        gp.UnitaryRep(z2, full_matrix_category([1], ["pt"]), {"z": "pt"}, arrows)


def test_naturality_detected_on_generators_suffices():
    """A unitary family natural against the groupoid generators is natural
    for the whole C*-category, and conversely."""
    rng = rg.rng_from_seed(23)
    z2 = gp.cyclic_groupoid(2)
    gc = gp.cstar_max(z2)
    rep1 = rg.random_unitary_rep(rng, z2, gc)
    # second functor: rep1 twisted by an inner automorphism, same target
    f1 = gp.adjunction_extend(gc, rep1)
    f2 = gp.adjunction_extend(
        gc, gp.UnitaryRep(z2, rep1.category, rep1.object_map,
                          {g: rep1.arrow_map["z>1>z"] @ rep1.arrow_map[g]
                           @ rep1.arrow_map["z>1>z"].conj().T for g in z2.arrows}))
    space = nat_space(f1, f2)
    # one object, so each transformation is its one component
    for alpha in space.basis:
        # full naturality implies generator-level naturality
        for g, (x, y) in z2.arrows.items():
            lhs = alpha @ f1.apply(x, y, gc.embed[g])
            rhs = f2.apply(x, y, gc.embed[g]) @ alpha
            assert np.linalg.norm(lhs - rhs) <= 1e-9
    # conversely: solve the generator system directly and check membership
    hom = rep1.category.hom(rep1.object_map["z"], rep1.object_map["z"])
    rows = []
    for g in z2.arrows:
        a1 = f1.apply("z", "z", gc.embed[g])
        a2 = f2.apply("z", "z", gc.embed[g])
        rows.append(np.kron(np.eye(a1.shape[0]), a1.T) -
                    np.kron(a2, np.eye(a1.shape[0])))
    proj = hom._rows.T @ hom._rows.conj()
    rows.append(np.eye(proj.shape[0]) - proj)
    system = np.vstack(rows)
    _, svals, vh = np.linalg.svd(system)
    null = vh[np.sum(svals > 1e-9 * svals[0]):].conj()
    assert null.shape[0] == space.dim
    for row in null:
        comp = row.reshape(a1.shape)
        assert space.contains(comp, f1.tol)
        for fa, ga in zip(f1.hom_maps[("z", "z")], f2.hom_maps[("z", "z")]):
            assert np.linalg.norm(comp @ fa - ga @ comp) <= 1e-9


# ---------------------------------------------------------------------------
# fundamental groupoids and normalization


def test_fundamental_groupoid_of_point_and_edge():
    fp0 = gp.fundamental_groupoid(standard("delta", 0, dim_cap=2))
    assert len(fp0.objects) == 1 and not fp0.generators
    fp1 = gp.fundamental_groupoid(standard("delta", 1, dim_cap=2))
    assert len(fp1.objects) == 2 and len(fp1.generators) == 1
    assert not fp1.relations


def test_fundamental_groupoid_of_triangle():
    fp = gp.fundamental_groupoid(standard("delta", 2))
    assert len(fp.objects) == 3 and len(fp.generators) == 3
    assert len(fp.relations) == 1
    lhs, rhs = fp.relations[0]
    # d0 . d2 = d1: edges 1.2 then 0.1 compose to 0.2
    assert [g for g, _ in lhs.factors] == ["1.2", "0.1"]
    assert [g for g, _ in rhs.factors] == ["0.2"]


def test_normalize_triangle_is_codiscrete():
    # oracle: the single relation collapses the vertex group to the trivial
    # group, so every hom set is a singleton
    res = gp.normalize_fp(gp.fundamental_groupoid(standard("delta", 2)))
    assert res.finite
    for x in res.groupoid.objects:
        for y in res.groupoid.objects:
            assert len(res.groupoid.hom(x, y)) == 1


def test_normalize_free_loop_exceeds_budget():
    free = gp.FPGroupoid(["v"], {"a": ("v", "v")})
    res = gp.normalize_fp(free, bound=500)
    assert not res.finite
    assert res.status == "not_finite_within_bound"


def loops_presentation(objects, loops, relators):
    """A path of edges e_i: x_{i-1} -> x_i, the given loops at x_0, and one
    relation w = 1 per relator w, a list of (loop, power)."""
    root = objects[0]
    gens = {f"e{i}": (objects[i - 1], objects[i]) for i in range(1, len(objects))}
    gens.update({loop: (root, root) for loop in loops})
    rels = [(gp.FPWord(root, root, tuple((g, False) for g, power in rel for _ in range(power))),
             gp.FPWord(root, root)) for rel in relators]
    return gp.FPGroupoid(objects, gens, rels)


INFINITE_H1 = {
    "free_loop": gp.FPGroupoid(["v"], {"a": ("v", "v")}),
    "circle": gp.fundamental_groupoid(standard("boundary", 2)),
    "wedge_of_two_circles": loops_presentation(["v"], ["a", "b"], []),
    "circle_on_three_objects": loops_presentation(["u", "v", "w"], ["a"], []),
}
FINITE_H1 = {
    "z2_free_product_z3": loops_presentation(["v"], ["a", "b"], [[("a", 2)], [("b", 3)]]),
    "cyclic6": loops_presentation(["v"], ["a"], [[("a", 6)]]),
    "cyclic4_on_two_objects": loops_presentation(["u", "v"], ["a"], [[("a", 4)]]),
    "dihedral8": loops_presentation(["v"], ["r", "s"],
                                    [[("r", 4)], [("s", 2)], [("s", 1), ("r", 1)] * 2]),
    "dihedral6_on_two_objects": loops_presentation(
        ["u", "v"], ["r", "s"], [[("r", 3)], [("s", 2)], [("s", 1), ("r", 1)] * 2]),
    "horn2_1": gp.fundamental_groupoid(standard("horn", 2, 1)),
    "horn3_0": gp.fundamental_groupoid(standard("horn", 3, 0)),
    "delta2": gp.fundamental_groupoid(standard("delta", 2)),
}


def counted_enumerations(monkeypatch):
    """Count the ``CosetEnumeration`` objects ``normalize_fp`` builds."""
    built = []

    class Counted(gp.CosetEnumeration):
        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(gp, "CosetEnumeration", Counted)
    return built


@pytest.mark.parametrize("case", sorted(INFINITE_H1))
def test_a_free_summand_in_h1_skips_the_coset_enumeration(monkeypatch, case):
    built = counted_enumerations(monkeypatch)
    res = gp.normalize_fp(INFINITE_H1[case])
    assert res == gp.NormalizeResult("not_finite_within_bound")
    assert built == []


@pytest.mark.parametrize("case", sorted(INFINITE_H1) + sorted(FINITE_H1))
def test_the_abelianization_test_agrees_with_the_enumeration(monkeypatch, case):
    pres = {**INFINITE_H1, **FINITE_H1}[case]
    fast = gp.normalize_fp(pres, bound=500)
    # without the test every component is enumerated, as before it
    monkeypatch.setattr(gp, "exponent_rank", lambda ngens, relators: ngens)
    slow = gp.normalize_fp(pres, bound=500)
    assert fast.status == slow.status
    if fast.finite:
        assert fast.groupoid.to_json() == slow.groupoid.to_json()


def test_infinite_groups_with_finite_h1_are_still_enumerated(monkeypatch):
    built = counted_enumerations(monkeypatch)
    # Z/2 * Z/3 is infinite, but H_1 = Z/6 is finite: the budget runs out
    res = gp.normalize_fp(FINITE_H1["z2_free_product_z3"], bound=500)
    assert res.status == "not_finite_within_bound" and len(built) == 1


@pytest.mark.parametrize("case", sorted(set(FINITE_H1) - {"z2_free_product_z3"}))
def test_finite_groups_still_come_out_finite(case):
    assert gp.normalize_fp(FINITE_H1[case]).finite


def rational_rank(relators, ngens):
    """Oracle for ``exponent_rank``: Gaussian elimination over Fraction on
    the exponent-sum rows of ``relators``."""
    from fractions import Fraction

    rows = [[Fraction(sum((-1 if x & 1 else 1) for x in rel if x >> 1 == i))
             for i in range(ngens)] for rel in relators]
    out = 0
    for col in range(ngens):
        pivot = next((r for r in rows if r[col]), None)
        if pivot is None:
            continue
        rows.remove(pivot)
        rows = [[v - r[col] / pivot[col] * w for v, w in zip(r, pivot)] for r in rows]
        out += 1
    return out


def test_exponent_rank_against_rational_elimination():
    rng = np.random.default_rng(5)
    for _ in range(200):
        ngens = int(rng.integers(1, 5))
        relators = [tuple(int(x) for x in rng.integers(0, 2 * ngens, rng.integers(0, 7)))
                    for _ in range(rng.integers(0, 6))]
        assert gp.exponent_rank(ngens, relators) == rational_rank(relators, ngens)


def test_exponent_rank_entries_stay_bounded_on_dense_relators(monkeypatch):
    """30 generators, dense relators with exponents up to 5: every reduced
    row is a product of two entries bounded by 30 x 30 minors (Hadamard:
    (sqrt(30) * 5)^30 < 2^144) before its gcd is divided out. Without the
    division the entries double in length per pivot and the rank does not
    come out in reasonable time."""
    from cstarcat import coset
    import math

    largest = []

    class Spy:
        @staticmethod
        def gcd(*row):
            largest.append(max(abs(v) for v in row))
            return math.gcd(*row)

    monkeypatch.setattr(coset, "math", Spy)
    rng = np.random.default_rng(11)
    ngens = 30
    for nrels in (25, 30, 40):
        relators = []
        for _ in range(nrels):
            word = []
            for i in range(ngens):
                e = int(rng.integers(-5, 6))
                word += [2 * i + (e < 0)] * abs(e)
            rng.shuffle(word)
            relators.append(tuple(int(x) for x in word))
        assert gp.exponent_rank(ngens, relators) == rational_rank(relators, ngens)
    assert largest and max(largest).bit_length() <= 2 * 144 + 1


def test_normalize_without_generators_is_discrete():
    pres = gp.FPGroupoid(["p", "q"], {})
    res = gp.normalize_fp(pres)
    assert res.finite
    assert len(res.groupoid.arrows) == 2
    assert res.groupoid.hom("p", "q") == []


def eval_word(groupoid, gen_arrow, word):
    """The arrow a presentation word names in a normalized groupoid: its
    factors composed right to left onto the identity at its source."""
    current = groupoid.identities[word.src]
    for g, inverted in reversed(word.factors):
        arrow = gen_arrow[g]
        current = groupoid.compose[(groupoid.inverses[arrow] if inverted else arrow, current)]
    return current


def test_normalized_generators_satisfy_relations():
    fp = gp.fundamental_groupoid(standard("delta", 2))
    res = gp.normalize_fp(fp)
    for lhs, rhs in fp.relations:
        assert eval_word(res.groupoid, res.gen_arrow, lhs) == \
            eval_word(res.groupoid, res.gen_arrow, rhs)


def cyclic_presentation(obj, gen, n, extra=None):
    """Z/n on one object: a loop ``gen`` with gen^n = 1, and optionally a
    second loop ``extra`` with extra = gen."""
    loop = (gen, False)
    gens = {gen: (obj, obj)}
    rels = [(gp.FPWord(obj, obj, (loop,) * n), gp.FPWord(obj, obj))]
    if extra is not None:
        gens[extra] = (obj, obj)
        rels.append((gp.FPWord(obj, obj, ((extra, False),)), gp.FPWord(obj, obj, (loop,))))
    return gp.normalize_fp(gp.FPGroupoid([obj], gens, rels))


def test_induced_functor_follows_the_generator_images(functor_law_violations):
    z6, z3 = cyclic_presentation("x", "a", 6), cyclic_presentation("y", "t", 3)
    functor = gp.induced_functor(z6, z3, {"x": "y"}, {"a": "t"})
    assert functor_law_violations(functor) == []
    # a^k goes to t^(k mod 3)
    power, image = z6.groupoid.identities["x"], z3.groupoid.identities["y"]
    for _ in range(6):
        assert functor.arrow_map[power] == image
        power = z6.groupoid.compose[(z6.gen_arrow["a"], power)]
        image = z3.groupoid.compose[(z3.gen_arrow["t"], image)]
    trivial = gp.induced_functor(z6, z3, {"x": "y"}, {"a": None})
    assert functor_law_violations(trivial) == []
    assert set(trivial.arrow_map.values()) == {z3.groupoid.identities["y"]}


@pytest.mark.parametrize("source, gen_map", [
    # a^3 = 1 but t^3 = t
    (cyclic_presentation("x", "a", 3), {"a": "t"}),
    # b = a, but b goes to 1 and a to t
    (cyclic_presentation("x", "a", 2, extra="b"), {"a": "t", "b": None}),
])
def test_a_gen_map_that_breaks_a_relation_raises(source, gen_map):
    z2 = cyclic_presentation("y", "t", 2)
    with pytest.raises(InvalidFunctor):
        gp.induced_functor(source, z2, {"x": "y"}, gen_map)


@pytest.mark.parametrize("object_map", [{"x0": "y0"}, {"x0": "y0", "x1": "q"}])
def test_an_object_map_that_misses_the_target_raises(object_map):
    edge = gp.normalize_fp(gp.FPGroupoid(["x0", "x1"], {"e": ("x0", "x1")}))
    target = gp.normalize_fp(gp.FPGroupoid(["y0", "y1"], {"t": ("y0", "y1")}))
    with pytest.raises(InvalidFunctor, match="object 'x1' unmapped"):
        gp.induced_functor(edge, target, object_map, {"e": "t"})


@pytest.mark.parametrize("object_map, image", [
    ({"x0": "y0", "x1": "y1"}, "l"),    # the edge sent to a loop
    ({"x0": "y1", "x1": "y0"}, "t"),    # sent reversed
    ({"x0": "y0", "x1": "y0"}, "t"),    # collapsed onto one object
    ({"x0": "y0", "x1": "y1"}, None),   # sent to an identity across two objects
], ids=["loop", "reversed", "collapsed", "identity"])
def test_an_image_with_the_wrong_endpoints_breaks_a_relation(object_map, image):
    """The walk catches every image with the wrong endpoints, so
    ``induced_functor`` needs no endpoint check of its own."""
    edge = gp.normalize_fp(gp.FPGroupoid(["x0", "x1"], {"e": ("x0", "x1")}))
    loop = ("l", False)
    # y0 -> y1 along t, and a loop l at y0 with l^2 = 1
    target = gp.normalize_fp(gp.FPGroupoid(
        ["y0", "y1"], {"t": ("y0", "y1"), "l": ("y0", "y0")},
        [(gp.FPWord("y0", "y0", (loop, loop)), gp.FPWord("y0", "y0"))]))
    assert target.finite
    with pytest.raises(InvalidFunctor, match="break a relation"):
        gp.induced_functor(edge, target, object_map, {"e": image})


def test_the_functor_law_oracle_sees_each_broken_law(functor_law_violations):
    """The oracle is not vacuous: it names each arrow that loses its
    endpoints, each identity and each composite that is not preserved."""
    interval = gp.interval_groupoid()
    collapsed = gp.GroupoidFunctor(interval, interval, {"i0": "i0", "i1": "i0"},
                                   {f: f for f in interval.arrows})
    assert [bad for bad in functor_law_violations(collapsed) if bad[0] != "compose"] == [
        ("endpoints", "i0>0>i1"), ("endpoints", "i1>0>i0"), ("endpoints", "i1>0>i1"),
        ("identity", "i1")]
    z2 = gp.cyclic_groupoid(2)
    broken = gp.GroupoidFunctor(z2, z2, {"z": "z"}, {f: "z>1>z" for f in z2.arrows})
    # 1 goes to g, and every composite breaks: its image is g while g.g = 1
    assert functor_law_violations(broken) == [("identity", "z")] + [
        ("compose", g, f) for g, f in z2.compose]
    # on Z/3, 1 -> 1, g -> g and g^2 -> g: each composite of two
    # non-identity arrows breaks
    z3 = gp.cyclic_groupoid(3)
    arrow_map = {"z>0>z": "z>0>z", "z>1>z": "z>1>z", "z>2>z": "z>1>z"}
    broken = gp.GroupoidFunctor(z3, z3, {"z": "z"}, arrow_map)
    assert functor_law_violations(broken) == [
        ("compose", g, f) for g, f in z3.compose if "z>0>z" not in (g, f)]


def test_fp_groupoid_json_round_trip():
    fp = gp.fundamental_groupoid(standard("delta", 2))
    blob = fp.to_json()
    again = gp.FPGroupoid.from_json(blob)
    assert again.to_json() == blob


# ---------------------------------------------------------------------------
# nerve


def test_nerve_of_terminal_has_one_simplex_per_dimension():
    # the one simplex in each dimension is the vertex or a degeneracy of it,
    # so only dimension 0 has a nondegenerate simplex
    n = gp.nerve(gp.terminal_groupoid(), 3)
    assert [n.count_nondegenerate(k) for k in range(4)] == [1, 0, 0, 0]
    assert n.identity_violations() == []


def test_nerve_counts_z2_and_interval():
    n2 = gp.nerve(gp.cyclic_groupoid(2), 1)
    assert n2.count_nondegenerate(0) == 1
    assert n2.count_nondegenerate(1) == 1
    ni = gp.nerve(gp.interval_groupoid(), 1)
    # oracle: the non-identity arrows u and u* number 2
    assert ni.count_nondegenerate(0) == 2
    assert ni.count_nondegenerate(1) == 2


def test_nerve_simplicial_identities_with_inverse_chains():
    n = gp.nerve(gp.cyclic_groupoid(2), 3)
    assert n.identity_violations() == []
    # oracle: the one chain g1 g1 ... g1 of non-identity arrows per dimension
    assert [n.count_nondegenerate(k) for k in range(4)] == [1, 1, 1, 1]


def composable_strings(g, length):
    """Oracle: strings of ``length`` composable non-identity arrows, by
    dynamic programming over the number of strings ending at each object."""
    idents = set(g.identities.values())
    ends = [ends for a, ends in g.arrows.items() if a not in idents]
    ending_at = {x: sum(1 for _s, t in ends if t == x) for x in g.objects}
    for _ in range(length - 1):
        ending_at = {x: sum(ending_at[s] for s, t in ends if t == x) for x in g.objects}
    return sum(ending_at.values())


def test_nerve_counts_match_composable_strings_on_several_components():
    rng = rg.rng_from_seed(23)
    checked = 0
    while checked < 4:
        g = rg.random_groupoid(rng, n_objects=4, max_order=4)
        if len(g.components()) < 2:
            continue
        n = gp.nerve(g, 3)
        assert n.count_nondegenerate(0) == len(g.objects)
        for d in (1, 2, 3):
            assert n.count_nondegenerate(d) == composable_strings(g, d)
        checked += 1


def _string_ref(groupoid: gp.FiniteGroupoid, idents: set, chain, anchor) -> SimplexRef:
    """Normal form of a composable string: strip identity factors (leftmost
    first) as degeneracy operators over the reduced nondegenerate string."""
    chain = list(chain)
    degens = []
    while True:
        for pos, arrow in enumerate(chain):
            if arrow in idents:
                degens.append(pos)
                del chain[pos]
                break
        else:
            break
    if chain:
        ref = SimplexRef("|".join(chain), len(chain))
    else:
        if anchor is None:
            raise InvalidGroupoid("empty string needs an anchor vertex")
        ref = SimplexRef(anchor, 0)
    for j in reversed(degens):
        ref = ref.degenerate_by(j)
    return ref


def test_nerve_faces_equal_the_normal_form_of_each_face_string():
    rng = rg.rng_from_seed(41)
    identity_composites = 0
    for trial in range(12):
        g = rg.random_groupoid(rng, n_objects=1 + trial % 3, max_order=2 + trial % 5)
        idents = set(g.identities.values())
        n = gp.nerve(g, 3)
        for dim in (2, 3):
            for name in n.nondegenerate(dim):
                chain = tuple(name.split("|"))
                for i, face in enumerate(n.simplices[dim][name]):
                    if i in (0, dim):
                        sub = chain[1:] if i == 0 else chain[:-1]
                    else:
                        composite = g.compose[(chain[i], chain[i - 1])]
                        identity_composites += composite in idents
                        sub = chain[:i - 1] + (composite,) + chain[i + 1:]
                    assert face == _string_ref(g, idents, sub, g.arrows[sub[0]][0])
    assert identity_composites > 100


def test_nerve_levels_come_out_in_sorted_order():
    # objects declared out of name order, so arrows grouped by source object
    # would not be sorted
    rng = rg.rng_from_seed(43)
    groupoids = [gp.connected_groupoid(["q", "b", "m"], relabelled(rg.group_table("s3"), rng)),
                 rg.random_groupoid(rng, n_objects=4, max_order=4)]
    for g in groupoids:
        n = gp.nerve(g, 3)
        for dim in (1, 2, 3):
            chains = [tuple(name.split("|")) for name in n.nondegenerate(dim)]
            assert chains == sorted(chains) and len(chains) == composable_strings(g, dim)


def test_nerve_stops_at_the_first_empty_level():
    # the terminal groupoid has no nondegenerate simplex above dimension 0;
    # a level loop running up to the cap would take seconds here
    started = time.perf_counter()
    n = gp.nerve(gp.terminal_groupoid(), 10**7)
    assert time.perf_counter() - started < 2.0
    assert n.dim_cap == 10**7 and list(n.simplices) == [0]


def nerve_by_simplex(groupoid, dim_cap):
    """Oracle for ``nerve``: one ``add_level`` call per simplex, each name
    joined from its whole string and each degenerate face made afresh."""
    out = FiniteSimplicialSet(dim_cap)
    for x in groupoid.objects:
        out.add_level(0, [(x, ())])
    if dim_cap == 0:
        return out
    arrows, compose = groupoid.arrows, groupoid.compose
    idents = set(groupoid.identities.values())
    nonident = sorted(a for a in arrows if a not in idents)
    nonident_from = {x: [] for x in groupoid.objects}
    for a in nonident:
        nonident_from[arrows[a][0]].append(a)
    refs, lower = {}, {}
    for a in nonident:
        src, tgt = arrows[a]
        out.add_level(1, [(a, (SimplexRef(tgt, 0), SimplexRef(src, 0)))])
        refs[(a,)] = SimplexRef(a, 1)
    for dim in range(2, dim_cap + 1):
        if not refs:
            break
        level = {}
        for chain in (chain + (a,) for chain in refs
                      for a in nonident_from[arrows[chain[-1]][1]]):
            faces = [refs[chain[1:]]]
            for i in range(1, dim):
                composite = compose[(chain[i], chain[i - 1])]
                if composite in idents:
                    rest = chain[:i - 1] + chain[i + 1:]
                    base = lower[rest] if rest else SimplexRef(arrows[chain[0]][0], 0)
                    faces.append(base.degenerate_by(i - 1))
                else:
                    faces.append(refs[chain[:i - 1] + (composite,) + chain[i + 1:]])
            faces.append(refs[chain[:-1]])
            name = "|".join(chain)
            out.add_level(dim, [(name, faces)])
            level[chain] = SimplexRef(name, dim)
        refs, lower = level, refs
    return out


def nerve_oracle_instances():
    rng = rg.rng_from_seed(47)
    small = [gp.connected_groupoid(objects, relabelled(rg.group_table(kind, order), rng))
             for objects, kind, order in ((["z"], "cyclic", 4), (["q", "b"], "klein", 4),
                                          (["x2", "x10", "x1"], "cyclic", 2))]
    small += [gp.disjoint_groupoid([small[0], gp.interval_groupoid()]),
              gp.disjoint_groupoid([gp.cyclic_groupoid(3), gp.terminal_groupoid()]),
              gp.normalize_fp(loops_presentation(["u", "v"], ["a"], [[("a", 3)]])).groupoid,
              gp.normalize_fp(gp.fundamental_groupoid(standard("horn", 3, 1))).groupoid,
              gp.terminal_groupoid()]
    large = [rg.random_groupoid(rg.rng_from_seed(seed), n_objects=5, max_order=8)
             for seed in range(2)]
    large.append(gp.connected_groupoid(["s0", "s1"], relabelled(rg.group_table("s3"), rng)))
    return [(g, cap) for g in small for cap in range(5)] + \
        [(g, cap) for g in large for cap in range(4)]


def test_nerve_matches_the_per_simplex_oracle():
    for g, cap in nerve_oracle_instances():
        got, want = gp.nerve(g, cap), nerve_by_simplex(g, cap)
        assert got.dim_cap == want.dim_cap
        assert list(got.simplices) == list(want.simplices)
        for dim, level in want.simplices.items():
            assert list(got.simplices[dim].items()) == list(level.items())
        assert got.to_json() == want.to_json()


# ---------------------------------------------------------------------------
# the comparison functor


def test_comparison_with_terminal_is_unit_isomorphism():
    _functor, verdict = gp.comparison_functor(gp.terminal_groupoid(),
                                              gp.cyclic_groupoid(2))
    assert verdict.isomorphism


def test_comparison_verdict_is_judged_by_the_functors_tolerance():
    z2 = gp.cyclic_groupoid(2)
    _functor, verdict = gp.comparison_functor(z2, z2)
    assert verdict.bound == Tolerance().composite
    _functor, verdict = gp.comparison_functor(z2, z2, tol=Tolerance(1e-6))
    assert verdict.bound == Tolerance(1e-6).composite and verdict.isomorphism
    assert not replace(verdict, functor_residual=2 * verdict.bound).isomorphism


def test_comparison_z2_z2():
    functor, verdict = gp.comparison_functor(gp.cyclic_groupoid(2),
                                             gp.cyclic_groupoid(2))
    assert verdict.isomorphism
    assert validate_functor(functor) == []
    # 4-dimensional hom algebra on both sides
    assert functor.source.hom(*functor.source.pairs().__next__()).dim == 4


def test_comparison_interval_z2_dims_multiply():
    interval, z2 = gp.interval_groupoid(), gp.cyclic_groupoid(2)
    functor, verdict = gp.comparison_functor(interval, z2)
    assert verdict.isomorphism
    # oracle: every of the 16 hom pairs has |G1(x,y)| * |G2(u,v)| = 1 * 2
    for x in interval.objects:
        for y in interval.objects:
            for u in z2.objects:
                for v in z2.objects:
                    src = gp.pair_name(x, u)
                    tgt = gp.pair_name(y, v)
                    assert functor.source.hom(src, tgt).dim == \
                        len(interval.hom(x, y)) * len(z2.hom(u, v)) == 2
