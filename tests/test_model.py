"""Tests for the model-structure predicates, lifts and factorizations."""

import numpy as np
import pytest

from cstarcat import groupoids as gp
from cstarcat import model as md
from cstarcat import randgen as rg
from cstarcat.categories import (
    MatCStarCategory,
    StarFunctor,
    compose_functors,
    disjoint_union,
    full_matrix_category,
    functors_agree,
    hom_map_ranks,
    identity_functor,
    inclusion_functor,
    iso_exists,
    isomorphic,
    unitarize,
    validate_category,
    validate_functor,
)
from cstarcat.errors import (
    NotAWeakEquivalence,
    PreconditionFailed,
    SquareMismatch,
)
from cstarcat.linalg import Subspace, Tolerance, find_invertible, is_unitary
from cstarcat.suites import functor_zoo


def interval_category():
    return gp.cstar_max(gp.interval_groupoid())


def end_inclusion():
    """The unit inclusion picking one end of the interval category (the
    generating trivial cofibration)."""
    unit = full_matrix_category([1], ["pt"])
    interval = interval_category().category
    return StarFunctor(unit, interval, {"pt": "i0"},
                       {("pt", "pt"): [np.eye(2, dtype=complex)]})


def scalar_into_m2():
    unit = full_matrix_category([1], ["pt"])
    full = full_matrix_category([2])
    return StarFunctor(unit, full, {"pt": "m0"},
                       {("pt", "pt"): [np.eye(2, dtype=complex)]})


def collapse_with_kernel():
    rng = rg.rng_from_seed(77)
    while True:
        cat, model = rg.random_matcat(rng, n_objects=2, max_dim=4, n_sectors=2)
        if all(m[0] >= 1 for m in model.multiplicities.values()) and \
                any(m[1] >= 1 for m in model.multiplicities.values()):
            return rg.sector_projection_functor(model, keep=0)


# ---------------------------------------------------------------------------
# predicates


def test_is_cofibration():
    unit = full_matrix_category([1], ["pt"])
    assert md.is_cofibration(identity_functor(unit))
    assert md.is_cofibration(end_inclusion())
    two = disjoint_union([unit, unit], prefixes=["l_", "r_"])
    eye = np.eye(1, dtype=complex)
    fold = StarFunctor(two, unit, {"l_pt": "pt", "r_pt": "pt"},
                       {("l_pt", "l_pt"): [eye], ("r_pt", "r_pt"): [eye]})
    assert not md.is_cofibration(fold)


def test_weak_equivalence_verdicts():
    unit = full_matrix_category([1], ["pt"])
    assert md.is_weak_equivalence(identity_functor(unit)).status == "YES"
    assert md.is_weak_equivalence(end_inclusion()).status == "YES"
    bad = scalar_into_m2()
    v2 = md.is_weak_equivalence(bad)
    assert v2.status == "NO" and v2.failure == ("pt", "pt")


def test_weak_equivalence_no_when_multiplicities_differ():
    # x carries sector 1 twice, y carries sectors 1 and 2 once each (all
    # sectors of dimension 1): both are 2-dimensional and hom(x, y) is
    # nonzero, but y is not isomorphic to x, so the inclusion of x is not
    # essentially surjective
    model = rg.SectorModel([1, 1], [[2, 0], [1, 1]],
                           [np.eye(2, dtype=complex)] * 2, ["x", "y"])
    whole = model.category()
    part = MatCStarCategory([("x", 2)], {("x", "x"): whole.hom("x", "x")})
    verdict = md.is_weak_equivalence(inclusion_functor(part, whole))
    assert verdict.status == "NO" and verdict.failure == ("y",)


def test_trivial_fibration_predicate():
    unit = full_matrix_category([1], ["pt"])
    assert md.is_trivial_fibration(identity_functor(unit))
    assert not md.is_trivial_fibration(end_inclusion())
    # the fold of two unit copies is object-surjective but NOT fully
    # faithful: the zero cross hom maps into a one-dimensional hom, so the
    # per-instance rank check must reject it
    two = disjoint_union([unit, unit], prefixes=["l_", "r_"])
    eye = np.eye(1, dtype=complex)
    fold = StarFunctor(two, unit, {"l_pt": "pt", "r_pt": "pt"},
                       {("l_pt", "l_pt"): [eye], ("r_pt", "r_pt"): [eye]})
    assert validate_functor(fold) == []
    assert not md.is_trivial_fibration(fold)
    # a conjugation isomorphism is one
    rng = rg.rng_from_seed(3)
    cat, _ = rg.random_matcat(rng, n_objects=2, max_dim=3)
    _target, conj = rg.conjugate_category(rng, cat)
    assert md.is_trivial_fibration(conj)


def full_and_faithful(functor):
    """(full, faithful) read off ``hom_map_ranks``."""
    ranks = list(hom_map_ranks(functor))
    return (all(rank == tdim for _x, _y, _sdim, tdim, rank in ranks),
            all(rank == sdim for _x, _y, sdim, _tdim, rank in ranks))


def test_hom_map_ranks_characterizations():
    ident = identity_functor(full_matrix_category([1], ["pt"]))
    assert full_and_faithful(ident) == (True, True)
    assert full_and_faithful(scalar_into_m2()) == (False, True)
    collapse = collapse_with_kernel()
    assert validate_functor(collapse) == []
    assert not full_and_faithful(collapse)[1]


def test_fibration_predicate_on_hand_built_functors():
    unit = full_matrix_category([1], ["pt"])
    rng = rg.rng_from_seed(3)
    cat, model = rg.random_matcat(rng, n_objects=2, max_dim=3)
    _target, conj = rg.conjugate_category(rng, cat)
    for functor in (identity_functor(unit), identity_functor(cat), conj,
                    collapse_with_kernel()):
        assert md.is_fibration(functor)
    # a fattening that is not full on End fails (i)
    while all(cat.hom(x, x).dim == cat.obj(x).dim ** 2 for x in cat.object_names):
        cat, model = rg.random_matcat(rng, n_objects=2, max_dim=3)
    fattening = rg.fattening_functor(cat, model)
    assert not full_and_faithful(fattening)[0] and not md.is_fibration(fattening)
    # C -> M_2 is faithful and object-surjective but not onto on End
    assert not md.is_fibration(scalar_into_m2())
    # the extra object of a random weak equivalence is isomorphic to an
    # image object but has no preimage: (i) holds, (ii) fails
    weq = rg.random_weq(rng, cat, n_extra=1)
    assert full_and_faithful(weq) == (True, True)
    assert md.is_weak_equivalence(weq) and not md.is_fibration(weq)
    assert not md.is_fibration(end_inclusion())


def test_trivial_fibrations_are_the_fibrant_weak_equivalences_over_the_zoo():
    fibrations = 0
    for seed in range(40):
        for kind, functor in functor_zoo(rg.rng_from_seed(seed), 24):
            fibration = md.is_fibration(functor)
            fibrations += fibration
            assert md.is_trivial_fibration(functor) == \
                (fibration and bool(md.is_weak_equivalence(functor))), (seed, kind)
    assert 0 < fibrations < 960


def test_rlp_harness_fails_when_the_fibration_predicate_is_wrong(monkeypatch):
    # a weak equivalence with an extra object is not a trivial fibration;
    # calling every functor a fibration makes the harness disagree
    weq = rg.random_weq(rg.rng_from_seed(5), full_matrix_category([2]), n_extra=1)
    [entry] = md.axiom_harness("rlp_equiv", [weq])
    assert entry["status"] == "pass" and entry["detail"] == "direct=False,rlp=False"
    monkeypatch.setattr(md, "is_fibration", lambda functor: True)
    [entry] = md.axiom_harness("rlp_equiv", [weq])
    assert entry["status"] == "fail" and entry["detail"] == "direct=False,rlp=True"


def rank_oracle(functor):
    """(full, faithful) from ``np.linalg.matrix_rank`` of every hom map's
    coordinate matrix."""
    full = faithful = True
    for x, y in functor.source.pairs():
        sdim = functor.source.hom(x, y).dim
        tdim = functor.target.hom(functor.object_map[x], functor.object_map[y]).dim
        rank = np.linalg.matrix_rank(functor.coord_matrix(x, y)) if sdim and tdim else 0
        full = full and rank == tdim
        faithful = faithful and rank == sdim
    return full, faithful


def test_rank_predicates_agree_with_matrix_rank_over_the_zoo():
    # the zoo's non-full or non-faithful functors all change hom dimensions;
    # (a, b) -> (a, a) on the diagonal algebra C^2 keeps them and has rank 1
    e11, e22 = np.diag([1.0, 0]).astype(complex), np.diag([0, 1.0]).astype(complex)
    diagonal = MatCStarCategory([("d", 2)], {("d", "d"): Subspace(2, 2, [e11, e22])})
    squash = StarFunctor(diagonal, diagonal, {"d": "d"},
                         {("d", "d"): [np.eye(2, dtype=complex), np.zeros((2, 2))]})
    assert validate_functor(squash) == []
    zoo = functor_zoo(rg.rng_from_seed(11), 24) + [("squash", squash)]
    verdicts = set()
    for kind, functor in zoo:
        full, faithful = rank_oracle(functor)
        assert full_and_faithful(functor) == (full, faithful), kind
        assert md.is_fully_faithful(functor)[0] == (full and faithful), kind
        verdicts.add((full, faithful))
    assert len(verdicts) == 4


def test_rlp_agreement_with_trivial_fibration():
    functors = [identity_functor(full_matrix_category([1], ["pt"])), end_inclusion(),
                scalar_into_m2(), collapse_with_kernel()]
    report = md.axiom_harness("rlp_equiv", functors)
    assert all(entry["status"] == "pass" for entry in report)


# ---------------------------------------------------------------------------
# unitary lifts


def test_lift_through_identity_returns_the_unitary():
    cat = full_matrix_category([2])
    ident = identity_functor(cat)
    v = np.array([[0, 1], [-1, 0]], dtype=complex)
    lifted = md.solve_unitary_lift(ident, "m0", v, "m0")
    assert lifted is not None
    u, obj = lifted
    assert obj == "m0" and np.allclose(u, v, atol=1e-9)


def test_lift_through_groupoid_collapse():
    interval = gp.interval_groupoid()
    gc = gp.cstar_max(interval)
    unit = full_matrix_category([1], ["pt"])
    rep = gp.UnitaryRep(interval, unit, {x: "pt" for x in interval.objects},
                        {g: np.eye(1) for g in interval.arrows})
    collapse = gp.adjunction_extend(gc, rep)
    lifted = md.solve_unitary_lift(collapse, "i0", np.eye(1), "pt")
    assert lifted is not None
    u, obj = lifted
    assert is_unitary(u)
    assert np.allclose(collapse.apply("i0", obj, u), np.eye(1))


def test_lift_with_empty_preimage_is_none():
    inc = end_inclusion()
    # nothing maps to i1, and from pt the only candidate v lands at i0
    assert md.solve_unitary_lift(inc, "pt", np.eye(2, dtype=complex), "i1") is None


def test_lift_rejects_non_unitary_and_shape_mismatch():
    cat = full_matrix_category([2])
    ident = identity_functor(cat)
    assert md.solve_unitary_lift(ident, "m0", 2 * np.eye(2), "m0") is None
    with pytest.raises(SquareMismatch):
        md.solve_unitary_lift(ident, "m0", np.eye(3), "m0")


def test_preimage_of_the_unit_is_the_central_support():
    """The least-norm preimage z of 1_Fx is the projection onto the part of
    End(x) where the functor is injective: self-adjoint, idempotent, and
    sent to the unit."""
    collapse = collapse_with_kernel()
    proper = 0
    for x in collapse.source.object_names:
        fx = collapse.object_map[x]
        [z] = collapse.preimage(x, x, [collapse.target.identity(fx)])
        assert np.allclose(z, z.conj().T, atol=1e-12) and np.allclose(z @ z, z, atol=1e-12)
        assert np.allclose(collapse.apply(x, x, z), collapse.target.identity(fx), atol=1e-12)
        proper += not np.allclose(z, collapse.source.identity(x))
    assert proper  # the functor kills a sector somewhere


def one_sided_lift(functor, x, v, y) -> bool:
    """Whether the least-norm preimage of v is itself an invertible lift over
    some x' isomorphic to x: all that a solver without the 1 - z correction
    can find."""
    src = functor.source
    for x2 in src.object_names:
        if functor.object_map[x2] != y or not isomorphic(src, x, x2):
            continue
        [a] = functor.preimage(x, x2, [v])
        if np.allclose(functor.apply(x, x2, a), v, atol=1e-9) and \
                np.linalg.svd(a, compute_uv=False)[-1] > 1e-9:
            return True
    return False


def in_image(functor, x, x2, v) -> bool:
    """Whether v lies in F(hom(x, x2)), by comparing ranks."""
    hom = functor.target.hom(functor.object_map[x], functor.object_map[x2])
    if not hom.contains(v):
        return False
    coord = functor.coord_matrix(x, x2)
    augmented = np.column_stack([coord, hom.coords(v)])
    return np.linalg.matrix_rank(augmented, tol=1e-8) == np.linalg.matrix_rank(coord, tol=1e-8)


def test_exact_lift_over_the_zoo():
    """Unitaries v: Fx -> y over zoo functors: an iso_exists witness and that
    witness times a unitary of End(Fx). Each lift is a unitary in some
    hom(x, x') over y with F(u) = v; every fibration query lifts; a None
    has no x' isomorphic to x over y with v in F(hom(x, x'))."""
    queries = lifted = one_sided = missed_on_fibrations = 0
    for seed in range(5):
        for _kind, functor in functor_zoo(rg.rng_from_seed(seed), 24):
            src, tgt = functor.source, functor.target
            fibration = md.is_fibration(functor)
            for x in src.object_names:
                fx = functor.object_map[x]
                w = unitarize(tgt, find_invertible(tgt.hom(fx, fx), seed=seed), fx, fx)
                for y in tgt.object_names:
                    if not isomorphic(tgt, fx, y):
                        continue
                    iso = iso_exists(tgt, fx, y, seed=seed).witness
                    for v in (iso, iso @ w):
                        queries += 1
                        old = one_sided_lift(functor, x, v, y)
                        result = md.solve_unitary_lift(functor, x, v, y)
                        if result is None:
                            assert not old and not fibration
                            assert not any(in_image(functor, x, x2, v)
                                           for x2 in src.object_names
                                           if functor.object_map[x2] == y
                                           and isomorphic(src, x, x2))
                            continue
                        u, x2 = result
                        assert functor.object_map[x2] == y
                        assert is_unitary(u) and src.hom(x, x2).contains(u)
                        assert np.linalg.norm(functor.apply(x, x2, u) - v) <= functor.tol.composite
                        lifted += 1
                        one_sided += old
                        missed_on_fibrations += fibration and not old
    assert queries > lifted > one_sided and missed_on_fibrations > 0


def test_mc4_lifts_through_a_non_faithful_fibration():
    """A trivial cofibration f against a sector projection g that keeps both
    sectors at every object: g is not faithful, so lifting over the object
    that f misses needs the 1 - z correction of the exact lift."""
    squares = 0
    for seed in range(200):
        rng = rg.rng_from_seed(seed)
        _cat, model = rg.random_matcat(rng, n_objects=2, max_dim=4, n_sectors=2)
        if not all(min(m) >= 1 for m in model.multiplicities.values()):
            continue
        g = rg.sector_projection_functor(model, keep=0)
        if not md.is_fibration(g):
            continue
        f = rg.random_weq(rng, g.source, n_extra=1)
        square = md.LiftingSquare(top=identity_functor(g.source), left=f, right=g,
                                  bottom=compose_functors(g, md.quasi_inverse(f)[0]))
        lift = md.lift_tcof_fib(square)
        assert max(square.triangle_residuals(lift)) <= 1e-8
        squares += 1
    assert squares == 23


# ---------------------------------------------------------------------------
# quasi-inverse


def naturality_residual(comps, f, g):
    """max |alpha_y F(a) - G(a) alpha_x| over the source hom bases."""
    return max((float(np.linalg.norm(comps[y] @ fa - ga @ comps[x]))
                for (x, y) in f.source.homs
                for fa, ga in zip(f.hom_maps[(x, y)], g.hom_maps[(x, y)])),
               default=0.0)


def witness_residuals(functor, g, u, v):
    """Naturality residuals of u: GF -> id and v: FG -> id."""
    return (naturality_residual(u, compose_functors(g, functor),
                                identity_functor(functor.source)),
            naturality_residual(v, compose_functors(functor, g),
                                identity_functor(functor.target)))


def test_quasi_inverse_of_identity():
    cat = full_matrix_category([2])
    ident = identity_functor(cat)
    g, u, v = md.quasi_inverse(ident)
    assert functors_agree(g, ident)
    assert np.allclose(u["m0"], np.eye(2))
    assert np.allclose(v["m0"], np.eye(2))


def test_quasi_inverse_of_end_inclusion():
    inc = end_inclusion()
    g, u, v = md.quasi_inverse(inc)
    # G collapses both ends to the point
    assert g.object_map == {"i0": "pt", "i1": "pt"}
    assert np.allclose(v["i0"], np.eye(2))  # identity on the image
    far = v["i1"]
    assert is_unitary(far)
    assert inc.target.hom("i0", "i1").contains(far)
    assert max(witness_residuals(inc, g, u, v)) <= 1e-9
    assert all(is_unitary(m) for m in [*u.values(), *v.values()])


def test_quasi_inverse_requires_weak_equivalence():
    with pytest.raises(NotAWeakEquivalence):
        md.quasi_inverse(scalar_into_m2())


def test_quasi_inverse_naturality_on_random_instances():
    rng = rg.rng_from_seed(31)
    for _ in range(5):
        cat, _ = rg.random_matcat(rng, n_objects=2, max_dim=3)
        weq = rg.random_weq(rng, cat, n_extra=1)
        g, u, v = md.quasi_inverse(weq)
        assert validate_functor(g) == []
        assert max(witness_residuals(weq, g, u, v)) <= 1e-9
        for x in cat.object_names:
            gfx = g.object_map[weq.object_map[x]]
            assert cat.hom(gfx, x).contains(u[x]) and is_unitary(u[x])
        for y in weq.target.object_names:
            fgy = weq.object_map[g.object_map[y]]
            assert weq.target.hom(fgy, y).contains(v[y]) and is_unitary(v[y])


# ---------------------------------------------------------------------------
# lifting squares


def test_square_must_commute():
    unit = full_matrix_category([1], ["pt"])
    interval = interval_category().category
    inc0 = end_inclusion()
    inc1 = StarFunctor(unit, interval, {"pt": "i1"},
                       {("pt", "pt"): [np.eye(2, dtype=complex)]})
    with pytest.raises(SquareMismatch):
        md.LiftingSquare(top=inc0, left=identity_functor(unit),
                         right=identity_functor(interval), bottom=inc1)


def test_lift_tcof_fib_with_identity_left_leg():
    cat = full_matrix_category([2])
    ident = identity_functor(cat)
    square = md.LiftingSquare(top=ident, left=ident, right=ident, bottom=ident)
    lift = md.lift_tcof_fib(square)
    assert functors_agree(lift, ident)


def test_lift_cof_tfib_with_identity_right_leg():
    rng = rg.rng_from_seed(13)
    cat, _ = rg.random_matcat(rng, n_objects=2, max_dim=3)
    weq = rg.random_weq(rng, cat, n_extra=1)
    ident_b = identity_functor(weq.target)
    square = md.LiftingSquare(top=weq, left=weq, right=ident_b, bottom=ident_b)
    lift = md.lift_cof_tfib(square)
    assert max(square.triangle_residuals(lift)) <= 1e-8


def test_mixed_square_from_factorizations():
    rng = rg.rng_from_seed(17)
    for _ in range(5):
        cat, _ = rg.random_matcat(rng, n_objects=2, max_dim=3)
        functor = rg.random_weq(rng, cat, n_extra=1)
        path = md.factor_path(functor)
        cylinder = md.factor_cylinder(functor)
        square = md.LiftingSquare(top=cylinder.first, left=path.first,
                                  right=cylinder.second, bottom=path.second)
        lift1 = md.lift_tcof_fib(square)
        assert max(square.triangle_residuals(lift1)) <= 1e-8
        assert validate_functor(lift1) == []
        lift2 = md.lift_cof_tfib(square)
        assert max(square.triangle_residuals(lift2)) <= 1e-8
        assert validate_functor(lift2) == []


def test_lift_preconditions_enforced():
    unit = full_matrix_category([1], ["pt"])
    two = disjoint_union([unit, unit], prefixes=["l_", "r_"])
    eye = np.eye(1, dtype=complex)
    fold = StarFunctor(two, unit, {"l_pt": "pt", "r_pt": "pt"},
                       {("l_pt", "l_pt"): [eye], ("r_pt", "r_pt"): [eye]})
    ident = identity_functor(unit)
    square = md.LiftingSquare(top=fold, left=fold, right=ident, bottom=ident)
    with pytest.raises(PreconditionFailed):
        md.lift_tcof_fib(square)  # fold is not a cofibration
    inc = inclusion_functor(unit, disjoint_union([unit, unit],
                                                 prefixes=["", "x_"]))
    square2 = md.LiftingSquare(top=identity_functor(unit), left=identity_functor(unit),
                               right=inc, bottom=inc)
    with pytest.raises(PreconditionFailed):
        md.lift_cof_tfib(square2)  # inclusion is not a trivial fibration


# ---------------------------------------------------------------------------
# factorizations


def test_factor_path_shapes_and_formula():
    rng = rg.rng_from_seed(41)
    cat, _ = rg.random_matcat(rng, n_objects=2, max_dim=3)
    functor = rg.random_weq(rng, cat, n_extra=1)
    path = md.factor_path(functor)
    assert validate_category(path.midway) == []
    assert path.composite_residual(functor) <= 1e-9
    assert md.is_cofibration(path.first)
    assert md.is_weak_equivalence(path.first).status == "YES"
    # one midway object (x, 1_Fx, Fx) per source object, and P(a) = F(a)
    names = {x: f"({x},{functor.object_map[x]}#0)" for x in cat.object_names}
    assert path.first.object_map == names
    assert path.midway.object_names == list(names.values())
    for x1 in cat.object_names:
        for x2 in cat.object_names:
            space = cat.hom(x1, x2)
            if space.dim == 0:
                continue
            a = space.from_coords(rng.standard_normal(space.dim)
                                  + 1j * rng.standard_normal(space.dim))
            image = path.second.apply(names[x1], names[x2], a)
            assert np.linalg.norm(image - functor.apply(x1, x2, a)) <= 1e-8


def test_factor_path_of_unit_identity():
    unit = full_matrix_category([1], ["pt"])
    path = md.factor_path(identity_functor(unit))
    assert len(path.midway.objects) == 1
    assert path.composite_residual(identity_functor(unit)) == 0.0


def test_factor_cylinder_counts():
    rng = rg.rng_from_seed(47)
    cat, _ = rg.random_matcat(rng, n_objects=2, max_dim=3)
    ident = identity_functor(cat)
    cylinder = md.factor_cylinder(ident)
    assert len(cylinder.midway.objects) == 2 * len(cat.objects)
    assert md.is_trivial_fibration(cylinder.second)
    assert md.is_cofibration(cylinder.first)
    assert cylinder.composite_residual(ident) <= 1e-12

    inc = end_inclusion()
    cyl2 = md.factor_cylinder(inc)
    assert len(cyl2.midway.objects) == 3
    assert all(space.dim == 1 for space in cyl2.midway.homs.values())
    assert validate_category(cyl2.midway) == []


def test_cylinder_hom_dimensions_follow_the_functor():
    rng = rg.rng_from_seed(53)
    cat, _ = rg.random_matcat(rng, n_objects=2, max_dim=3)
    weq = rg.random_weq(rng, cat, n_extra=1)
    cylinder = md.factor_cylinder(weq)
    tgt = weq.target
    for y in tgt.object_names:
        for x in cat.object_names:
            assert cylinder.midway.hom(f"b:{y}", f"a:{x}").dim == \
                tgt.hom(y, weq.object_map[x]).dim


# ---------------------------------------------------------------------------
# pushout-product and harnesses


def test_pushout_product_of_end_inclusions():
    # oracle, by hand: gluing identifies one pair, leaving 3 classes that
    # map injectively into the 4 object pairs
    inc = end_inclusion()
    verdict = md.pushout_product_objects(inc, inc)
    assert verdict.pushout_size == 3
    assert verdict.injective


def test_pushout_product_identity_is_bijection():
    cat = full_matrix_category([2, 3])
    ident = identity_functor(cat)
    verdict = md.pushout_product_objects(ident, ident)
    assert verdict.injective
    assert verdict.pushout_size == len(cat.objects) ** 2


def test_pushout_product_detects_collapse():
    unit = full_matrix_category([1], ["pt"])
    two = disjoint_union([unit, unit], prefixes=["l_", "r_"])
    eye = np.eye(1, dtype=complex)
    fold = StarFunctor(two, unit, {"l_pt": "pt", "r_pt": "pt"},
                       {("l_pt", "l_pt"): [eye], ("r_pt", "r_pt"): [eye]})
    inc = end_inclusion()
    verdict = md.pushout_product_objects(fold, inc)
    assert not verdict.injective
    assert verdict.witness is not None


def test_two_of_three_harness():
    rng = rg.rng_from_seed(59)
    pairs = []
    for _ in range(3):
        cat, _ = rg.random_matcat(rng, n_objects=2, max_dim=3)
        f = rg.random_weq(rng, cat, n_extra=1)
        g = rg.random_weq(rng, f.target, n_extra=1, prefix="v")
        pairs.append((f, g))
    report = md.axiom_harness("two_of_three", pairs)
    assert all(entry["status"] == "pass" for entry in report)


def test_retract_harness():
    rng = rg.rng_from_seed(61)
    instances = []
    for _ in range(2):
        cat, _ = rg.random_matcat(rng, n_objects=1, max_dim=3)
        small = rg.random_weq(rng, cat, n_extra=1)
        big, i, p, j, q = rg.build_retract(small)
        # the retract diagram really commutes
        assert functors_agree(compose_functors(q, big),
                              compose_functors(small, p))
        assert functors_agree(compose_functors(big, i),
                              compose_functors(j, small))
        instances.append({"big": big, "small": small, "i": i, "p": p,
                          "j": j, "q": q})
    report = md.axiom_harness("retract", instances)
    assert all(entry["status"] == "pass" for entry in report)


def test_generated_instances_carry_the_callers_tolerance():
    tol = Tolerance(1e-6)
    rng = rg.rng_from_seed(71)
    functors = [f for _kind, f in functor_zoo(rng, 12, tol)]
    cat, _ = rg.random_matcat(rng, n_objects=1, max_dim=3, tol=tol)
    functors += rg.build_retract(rg.random_weq(rng, cat, n_extra=1))
    for f in functors:
        assert f.tol == f.source.tol == f.target.tol == tol


def test_harnesses_judge_residuals_by_the_functors_tolerance():
    # at eps_abs = 1e-17 the retract's round-off residual exceeds the
    # composite bound; building the witnesses must not fail on the way there
    rng = rg.rng_from_seed(0)
    cat, _ = rg.random_matcat(rng, n_objects=1, max_dim=3, tol=Tolerance(1e-17))
    small = rg.random_weq(rng, cat, n_extra=1)
    big, i, p, j, q = rg.build_retract(small)
    [entry] = md.axiom_harness("retract", [{"big": big, "small": small, "i": i,
                                            "p": p, "j": j, "q": q}])
    assert entry["residual"] > small.tol.composite and entry["status"] == "fail"
    assert entry["detail"] == "retract=YES"
