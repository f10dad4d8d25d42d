"""Tests for the isometry presentation of a finite category and its
evaluation, and for the composition-table check."""

import itertools

import numpy as np
import pytest

from cstarcat import groupoids as gp
from cstarcat import presentations as pr
from cstarcat import randgen as rg
from cstarcat.categories import MatCStarCategory, full_matrix_category
from cstarcat.groupoids import FPWord, check_composition_table
from cstarcat.errors import (
    CStarCatError,
    InvalidCategory,
    InvalidFunctor,
    InvalidGroupoid,
    RelationFailed,
)
from cstarcat.linalg import Tolerance


def word(src, tgt, *factors):
    """The word of ``(generator, adjoint)`` factors, in composition order."""
    return FPWord(src, tgt, tuple(factors))


U, U_STAR = ("u", False), ("u", True)


# ---------------------------------------------------------------------------
# evaluation


def interval_presentation():
    """Two objects and one generating unitary: u*u = 1_0 and uu* = 1_1."""
    return pr.Presentation(["i0", "i1"], {"u": ("i0", "i1")}, [
        (word("i0", "i0", U_STAR, U), word("i0", "i0")),
        (word("i1", "i1", U, U_STAR), word("i1", "i1"))])


def test_evaluate_accepts_unitary():
    p = interval_presentation()
    cat = full_matrix_category([2])
    u = np.array([[0, 1j], [1, 0]], dtype=complex)
    # oracle: u really is unitary
    assert np.allclose(u.conj().T @ u, np.eye(2)) and np.allclose(u @ u.conj().T, np.eye(2))
    ev = pr.evaluate(p, cat, {"i0": "m0", "i1": "m0"}, {"u": u})
    assert np.array_equal(ev(p.gen("u")), u)
    assert np.array_equal(ev(word("i1", "i0", U_STAR)), u.conj().T)
    assert np.array_equal(ev(word("i1", "i1", U, U, U_STAR)), u @ u @ u.conj().T)
    assert np.array_equal(ev(word("i0", "i0")), np.eye(2))


def test_evaluate_needs_every_assignment():
    p, cat = interval_presentation(), full_matrix_category([2])
    u = np.eye(2, dtype=complex)
    with pytest.raises(InvalidFunctor, match="^object 'i1' has no assignment$"):
        pr.evaluate(p, cat, {"i0": "m0"}, {"u": u})
    with pytest.raises(InvalidFunctor, match="^arrow 'u' has no assignment$"):
        pr.evaluate(p, cat, {"i0": "m0", "i1": "m0"}, {})


def test_evaluate_rejects_violated_relation():
    p = pr.Presentation(["x"], {"a": ("x", "x")},
                        [(word("x", "x", ("a", True), ("a", False)), word("x", "x"))])
    cat = full_matrix_category([1])
    with pytest.raises(RelationFailed, match=r"^relation #0 fails with residual 3\.000e\+00$") \
            as err:
        pr.evaluate(p, cat, {"x": "m0"}, {"a": np.array([[2.0]])})
    assert err.value.witness == {"relation": 0, "residual": 3.0}


def two_loop_relation():
    """One object x, loops a and b, and the one relation a = b."""
    p = pr.Presentation(["x"], {"a": ("x", "x"), "b": ("x", "x")}, [])
    return pr.Presentation(p.objects, p.generators, [(p.gen("a"), p.gen("b"))])


def test_relation_check_agrees_with_the_scale_first_formula(rng):
    p, cat = two_loop_relation(), full_matrix_category([3])
    tol = cat.tol
    between = failed = 0
    for k in range(300):
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        a *= 10.0 ** rng.uniform(-1, 3) / np.linalg.norm(a, 2)
        step = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        scale = max(1.0, float(np.linalg.norm(a, 2)))
        size = (rng.uniform(tol.eps_abs, tol.eps_abs * scale) if k % 2 == 0
                else 10.0 ** rng.uniform(-13, -5))
        b = a + size * step / np.linalg.norm(step, 2)
        residual = float(np.linalg.norm(a - b, 2))
        bound = tol.bound(max(float(np.linalg.norm(a, 2)), float(np.linalg.norm(b, 2))))
        if residual <= bound:
            pr.evaluate(p, cat, {"x": "m0"}, {"a": a, "b": b})
            between += residual > tol.eps_abs and scale > 1
        else:
            with pytest.raises(RelationFailed) as err:
                pr.evaluate(p, cat, {"x": "m0"}, {"a": a, "b": b})
            assert err.value.witness == {"relation": 0, "residual": pr.op_norm(a - b)}
            failed += 1
    assert between >= 100 and failed >= 50


def test_a_passing_relation_takes_one_operator_norm(monkeypatch):
    g = gp.connected_groupoid(["u", "v"], gp.cyclic_group_table(3))
    gc = gp.cstar_max(g)
    p = pr.ism_presentation(pr.FiniteCategory(g.objects, g.arrows, g.identities, g.compose))
    assert len(p.relations) > 10
    calls = []
    real = pr.op_norm

    def counted(m):
        calls.append(m)
        return real(m)

    monkeypatch.setattr(pr, "op_norm", counted)
    pr.evaluate(p, gc.category, {x: x for x in g.objects},
                {name: gc.embed[name] for name in p.generators})
    assert len(calls) == len(p.relations)


def test_evaluate_rejects_images_outside_homs():
    p = pr.Presentation(["x"], {"a": ("x", "x")}, [])
    diag = MatCStarCategory(
        [("d", 2)],
        {("d", "d"): [np.diag([1.0, 0]).astype(complex),
                      np.diag([0, 1.0]).astype(complex)]},
    )
    off_diagonal = np.array([[0, 1.0], [0, 0]], dtype=complex)
    with pytest.raises(InvalidFunctor, match="^image of 'a' is not in the target hom space$"):
        pr.evaluate(p, diag, {"x": "d"}, {"a": off_diagonal})


# ---------------------------------------------------------------------------
# categories realized by isometries


def terminal_category():
    return pr.FiniteCategory(["t"], {"id_t": ("t", "t")}, {"t": "id_t"},
                             {("id_t", "id_t"): "id_t"})


def arrow_category():
    """The category [1]: two objects and one non-identity arrow c."""
    arrows = {"id0": ("o0", "o0"), "id1": ("o1", "o1"), "c": ("o0", "o1")}
    compose = {
        ("id0", "id0"): "id0", ("id1", "id1"): "id1",
        ("c", "id0"): "c", ("id1", "c"): "c",
    }
    return pr.FiniteCategory(["o0", "o1"], arrows, {"o0": "id0", "o1": "id1"}, compose)


def test_ism_presentation_terminal():
    p = pr.ism_presentation(terminal_category())
    assert p.objects == ["t"]
    assert not p.generators and not p.relations


def test_ism_presentation_single_arrow():
    p = pr.ism_presentation(arrow_category())
    assert p.generators == {"c": ("o0", "o1")}
    # exactly the isometry relation c*c = 1_{o0}; cc* is unconstrained
    assert p.relations == [(word("o0", "o0", ("c", True), ("c", False)), word("o0", "o0"))]


def groupoid_category(objects, table):
    g = gp.connected_groupoid(objects, table)
    return pr.FiniteCategory(g.objects, g.arrows, g.identities, g.compose)


@pytest.mark.parametrize("cat", [
    groupoid_category(["u", "v"], gp.cyclic_group_table(3)),
    groupoid_category(["s"], rg.group_table("s3")),
    arrow_category(),
], ids=["z3_on_2_objects", "s3", "arrow"])
def test_ism_relations_are_the_composable_pairs_then_the_isometries(cat):
    identities = {cat.identities[x] for x in cat.objects}
    gens = sorted(set(cat.arrows) - identities)
    pairs = [(g, f) for (g, f) in cat.compose if g not in identities and f not in identities]
    p = pr.ism_presentation(cat)
    assert len(p.relations) == len(pairs) + len(gens)
    assert list(p.generators) == gens
    products = []
    for g, f in sorted(pairs):
        (fs, _ft), (_gs, gt) = cat.arrows[f], cat.arrows[g]
        h = cat.compose[(g, f)]
        products.append((word(fs, gt, (g, False), (f, False)),
                         word(fs, fs) if h in identities else word(fs, gt, (h, False))))
    isometries = [(word(cat.arrows[g][0], cat.arrows[g][0], (g, True), (g, False)),
                   word(cat.arrows[g][0], cat.arrows[g][0])) for g in gens]
    assert p.relations == products + isometries


def test_ism_presentation_round_trip_with_membership():
    p = pr.ism_presentation(arrow_category())
    cat = full_matrix_category([1, 2])
    column = np.array([[1.0], [0.0]], dtype=complex)
    assert np.allclose(column.conj().T @ column, np.eye(1))  # an isometry
    ev = pr.evaluate(p, cat, {"o0": "m0", "o1": "m1"}, {"c": column})
    assert np.allclose(ev(p.gen("c")), column)
    with pytest.raises(RelationFailed):
        pr.evaluate(p, cat, {"o0": "m0", "o1": "m1"},
                    {"c": np.array([[2.0], [0.0]], dtype=complex)})


def test_evaluate_is_judged_by_the_categorys_tolerance():
    p = pr.ism_presentation(arrow_category())
    column = np.array([[1 + 1e-5], [0.0]], dtype=complex)
    loose = full_matrix_category([1, 2], tol=Tolerance(1e-3))
    ev = pr.evaluate(p, loose, {"o0": "m0", "o1": "m1"}, {"c": column})
    lhs, rhs = p.relations[0]
    assert 1e-5 < np.linalg.norm(ev(lhs) - ev(rhs)) < 1e-4
    with pytest.raises(RelationFailed):
        pr.evaluate(p, full_matrix_category([1, 2]), {"o0": "m0", "o1": "m1"},
                    {"c": column})


def test_invalid_category_table():
    arrows = {"id0": ("o0", "o0"), "c": ("o0", "o0")}
    with pytest.raises(InvalidCategory):
        pr.FiniteCategory(["o0"], arrows, {"o0": "id0"},
                          {("id0", "id0"): "id0", ("c", "c"): "c",
                           ("c", "id0"): "c", ("id0", "c"): "id0"})
    # a composite stored for id0 after id1, which are not composable
    good = arrow_category()
    with pytest.raises(InvalidCategory):
        pr.FiniteCategory(good.objects, good.arrows, good.identities,
                          {**good.compose, ("id0", "id1"): "id0"})


# ---------------------------------------------------------------------------
# associativity of composition tables against an all-triples oracle


def associative_by_triples(arrows, compose):
    """Brute force: every composable triple h, g, f (g the middle arrow)."""
    for h, (hs, _ht) in arrows.items():
        for g, (gs, gt) in arrows.items():
            if gt != hs:
                continue
            for f, (_fs, ft) in arrows.items():
                if ft == gs and compose[(compose[(h, g)], f)] != compose[(h, compose[(g, f)])]:
                    return False
    return True


def same_verdict_as_triples(objects, arrows, identities, compose) -> bool:
    """Assert ``check_composition_table`` rejects the table, with the
    all-triples loop's error and message, exactly when the oracle does;
    return the oracle's verdict."""
    associative = associative_by_triples(arrows, compose)
    if associative:
        check_composition_table(objects, arrows, identities, compose, InvalidCategory)
    else:
        with pytest.raises(InvalidCategory, match="^composition is not associative$"):
            check_composition_table(objects, arrows, identities, compose,
                                       InvalidCategory)
    return associative


def unital_magma(n, products):
    """One object, arrows a0..a{n-1} with a0 the identity; ``products`` fills
    a_i.a_j for i, j >= 1 row by row with indices."""
    names = [f"a{i}" for i in range(n)]
    arrows = {a: ("x", "x") for a in names}
    entries = iter(products)
    compose = {}
    for i in range(n):
        for j in range(n):
            k = j if i == 0 else i if j == 0 else next(entries)
            compose[(names[i], names[j])] = names[k]
    return ["x"], arrows, {"x": "a0"}, compose


def test_associativity_of_every_unital_magma_on_3_elements():
    verdicts = [same_verdict_as_triples(*unital_magma(3, products))
                for products in itertools.product(range(3), repeat=4)]
    assert len(verdicts) == 81
    assert 0 < sum(verdicts) < 81


def test_associativity_of_sampled_unital_magmas_on_4_elements():
    rng = np.random.default_rng(4)
    verdicts = [same_verdict_as_triples(*unital_magma(4, rng.integers(0, 4, size=9)))
                for _ in range(2000)]
    assert 0 < sum(verdicts) < 2000


@pytest.mark.parametrize("kind,order", [("cyclic", 3), ("cyclic", 4), ("cyclic", 5),
                                        ("s3", 6)])
@pytest.mark.parametrize("n_objects", [1, 2, 3])
def test_associativity_of_mutated_groupoid_tables(kind, order, n_objects):
    base = gp.connected_groupoid([f"o{i}" for i in range(n_objects)],
                                 rg.group_table(kind, order))
    assert same_verdict_as_triples(base.objects, base.arrows, base.identities,
                                   base.compose)
    idents = set(base.identities.values())
    by_ends = {}
    for (g, f), h in base.compose.items():
        if g not in idents and f not in idents:
            by_ends.setdefault(base.arrows[h], []).append((g, f))
    swappable = sorted(keys for keys in by_ends.values() if len(keys) > 1)
    rng = np.random.default_rng(1000 * order + n_objects)
    rejected = 0
    for _ in range(25):
        keys = swappable[rng.integers(len(swappable))]
        i, j = rng.choice(len(keys), size=2, replace=False)
        compose = dict(base.compose)
        compose[keys[i]], compose[keys[j]] = compose[keys[j]], compose[keys[i]]
        rejected += not same_verdict_as_triples(base.objects, base.arrows,
                                                base.identities, compose)
    assert rejected > 0


def test_associativity_failure_away_from_generator_triples():
    # a1 is an involution that a2 and a3 absorb on both sides, and
    # {a0, a2, a3} is Z/3, so a1.(a2.a3) = a1 while (a1.a2).a3 = a0. The
    # greedy scan picks a1 and a2 (a3 = a2.a2); the one failing triple with
    # a generator as its middle arrow is (a1, a2, a3), whose last arrow is
    # no generator, and the failing triples (a1, a3, a2) and (a2, a3, a1)
    # have the non-generator a3 in the middle.
    objects, arrows, identities, compose = unital_magma(4, [0, 2, 3, 2, 3, 0, 3, 0, 2])
    failing = [(h, g, f) for h in arrows for g in arrows for f in arrows
               if compose[(compose[(h, g)], f)] != compose[(h, compose[(g, f)])]]
    assert failing == [("a1", "a2", "a3"), ("a1", "a3", "a2"),
                       ("a2", "a3", "a1"), ("a3", "a2", "a1")]
    assert not same_verdict_as_triples(objects, arrows, identities, compose)


def test_identity_named_for_an_undeclared_object_is_not_trusted():
    # a1.a1 = a0, a1.a2 = a2.a1 = a1, a2.a2 = a0 fails only with a1 in the
    # middle; naming a1 as the identity of an object that is not declared
    # must not exempt it from the test
    objects, arrows, identities, compose = unital_magma(3, [0, 1, 1, 0])
    assert not same_verdict_as_triples(objects, arrows, {**identities, "y": "a1"}, compose)


# ---------------------------------------------------------------------------
# the integer rows give the verdicts and messages of the per-entry check


def per_entry_check(objects, arrows, identities, compose, error):
    """The composition-table check written entry by entry on names: the
    oracle for which error ``check_composition_table`` raises, and with
    which message."""
    into = {x: [] for x in objects}
    outof = {x: [] for x in objects}
    for name, (src, tgt) in arrows.items():
        if src not in into or tgt not in into:
            raise error(f"arrow {name!r} has undeclared endpoints")
        into[tgt].append(name)
        outof[src].append(name)
    composable = 0
    for g, (gs, gt) in arrows.items():
        for f in into[gs]:
            h = compose.get((g, f))
            if h is None or arrows.get(h) != (arrows[f][0], gt):
                raise error(f"bad composite {g!r}.{f!r}")
            composable += 1
    if len(compose) != composable:
        raise error("composite stored for a pair that is not composable")
    for x in objects:
        if arrows.get(identities.get(x)) != (x, x):
            raise error(f"object {x!r} lacks an identity loop")
    for f, (fs, ft) in arrows.items():
        if compose[(identities[ft], f)] != f or compose[(f, identities[fs])] != f:
            raise error(f"identities are not neutral on {f!r}")
    for h, (hs, _ht) in arrows.items():
        for g, (gs, gt) in arrows.items():
            if gt != hs:
                continue
            for f in into[gs]:
                if compose[(compose[(h, g)], f)] != compose[(h, compose[(g, f)])]:
                    raise error("composition is not associative")


def table_verdict(check, table, error):
    """None when ``check`` accepts the table, else (error class, message)."""
    try:
        check(*table, error)
    except CStarCatError as err:
        return type(err), str(err)
    return None


def mutated_tables(objects, arrows, identities, compose):
    """Every table with one composite moved to another arrow with the same
    endpoints, then a few tables with one defect of each earlier kind."""
    by_ends = {}
    for a, ends in arrows.items():
        by_ends.setdefault(ends, []).append(a)
    for key, h in compose.items():
        for other in by_ends[arrows[h]]:
            if other != h:
                yield objects, arrows, identities, {**compose, key: other}
    first_key, first = next(iter(compose.items()))
    last_key = list(compose)[-1]
    loop = next((a for a, (s, t) in arrows.items()
                 if s == t and a not in identities.values()), None)
    stray = next((a for a, (s, t) in arrows.items() if s != arrows[first][0]), None)
    yield objects, {**arrows, "stray": ("nowhere", objects[0])}, identities, compose
    yield objects, arrows, identities, {k: v for k, v in compose.items() if k != last_key}
    yield objects, arrows, identities, {**compose, first_key: "no such arrow"}
    if stray is not None:
        yield objects, arrows, identities, {**compose, first_key: stray}
    yield objects, arrows, identities, {**compose, ("no", "pair"): first}
    yield objects, arrows, {**identities, objects[-1]: None}, compose
    if loop is not None:
        yield objects, arrows, {**identities, arrows[loop][0]: loop}, compose


def monoid_tables():
    """The associative unital magmas on 3 elements: monoid tables, most
    with arrows that have no inverse."""
    tables = [unital_magma(3, products) for products in itertools.product(range(3), repeat=4)]
    return [t for t in tables if associative_by_triples(t[1], t[3])]


def same_verdicts(table) -> tuple | None:
    """Assert ``check_composition_table`` raises what the per-entry check
    raises on the table, for either error class; return the verdict."""
    for error in (InvalidGroupoid, InvalidCategory):
        expected = table_verdict(per_entry_check, table, error)
        assert table_verdict(check_composition_table, table, error) == expected
    return expected


def test_mutated_category_tables_get_the_per_entry_errors_and_messages():
    bases = [monoid_tables()[i] for i in (0, 3, -1)] + [
        (c.objects, c.arrows, c.identities, c.compose)
        for c in (arrow_category(), terminal_category())]
    rejected = 0
    for base in bases:
        assert same_verdicts(base) is None
        for table in mutated_tables(*base):
            expected = same_verdicts(table)
            if expected is None:
                pr.FiniteCategory(*table)       # one monoid moved to another
                continue
            with pytest.raises(InvalidCategory) as raised:
                pr.FiniteCategory(*table)
            assert str(raised.value) == expected[1]
            rejected += 1
    assert rejected > 20


def test_mutated_groupoid_tables_get_the_per_entry_errors_and_messages():
    bases = [gp.connected_groupoid(["o0", "o1"], rg.group_table("cyclic", 3)),
             gp.connected_groupoid(["k"], rg.group_table("klein")),
             gp.connected_groupoid(["s"], rg.group_table("s3")),
             gp.product_groupoid(gp.interval_groupoid(), gp.cyclic_groupoid(2)),
             rg.random_groupoid(rg.rng_from_seed(3), n_objects=3, max_order=3)]
    checked = 0
    for g in bases:
        assert same_verdicts((g.objects, g.arrows, g.identities, g.compose)) is None
        for table in mutated_tables(g.objects, g.arrows, g.identities, g.compose):
            expected = same_verdicts(table)
            objects, arrows, identities, compose = table
            with pytest.raises(InvalidGroupoid) as raised:
                gp.FiniteGroupoid(objects, arrows, compose, g.inverses, identities)
            if expected is not None:
                assert str(raised.value) == expected[1]
            checked += 1
    assert checked > 100
