"""Tests for simplicial sets, the pi functor and the simplicial structure."""

import itertools
import random

import numpy as np
import pytest

from cstarcat import groupoids as gp
from cstarcat import homotopy as ho
from cstarcat import suites
from cstarcat.categories import (
    FunctorCategory,
    full_matrix_category,
    identity_functor,
    pair_name,
    tensor_max,
    validate_category,
    validate_functor,
)
from cstarcat.errors import InvalidParams, InvalidSimplicialSet, NotFiniteWithinBound
from cstarcat.linalg import is_unitary
from cstarcat.simplicial import (
    FiniteSimplicialSet,
    SimplexRef,
    SimplicialMap,
    canon_degens,
    horn_inclusion,
    standard,
)


# ---------------------------------------------------------------------------
# shapes


def test_standard_counts():
    d2 = standard("delta", 2)
    assert [d2.count_nondegenerate(k) for k in range(3)] == [3, 3, 1]
    h12 = standard("horn", 2, 1)
    assert [h12.count_nondegenerate(k) for k in range(3)] == [3, 2, 0]
    b2 = standard("boundary", 2)
    assert [b2.count_nondegenerate(k) for k in range(3)] == [3, 3, 0]


def test_standard_rejects_bad_parameters():
    with pytest.raises(InvalidParams):
        standard("horn", 2, 5)
    with pytest.raises(InvalidParams):
        standard("nonsense", 2)


def test_simplicial_identities_exhaustively():
    for sset in (standard("delta", 3, dim_cap=3), standard("horn", 3, 1, dim_cap=3),
                 standard("boundary", 3, dim_cap=3)):
        assert sset.identity_violations() == []


def test_degeneracy_word_canonicalization():
    # s_0 s_0 = s_1 s_0 and friends
    assert canon_degens((0, 0)) == (1, 0)
    assert canon_degens((0, 1)) == (2, 0)
    assert canon_degens((2, 0)) == (2, 0)
    ref = SimplexRef("v", 0).degenerate_by(0).degenerate_by(0)
    assert ref.degens == (1, 0)


def test_json_round_trip_and_degenerate_rejection():
    d2 = standard("delta", 2)
    blob = d2.to_json()
    again = FiniteSimplicialSet.from_json(blob)
    assert again.to_json() == blob
    blob["simplices"]["1"][0]["degenerate"] = True
    with pytest.raises(InvalidSimplicialSet):
        FiniteSimplicialSet.from_json(blob)


def violations_face_by_face(sset):
    """Oracle for ``identity_violations``: both sides of every identity
    computed from scratch, two ``face`` calls each, no memo."""
    out = []
    for dim in range(2, sset.dim_cap + 1):
        for name in sset.nondegenerate(dim):
            ref = sset.ref(dim, name)
            for j in range(1, dim + 1):
                for i in range(j):
                    if sset.face(sset.face(ref, j), i) != sset.face(sset.face(ref, i), j - 1):
                        out.append(f"d_{i} d_{j} != d_{j-1} d_{i} at {name!r}")
    return out


def refs_of_dim(sset, dim):
    """Every ``dim``-simplex: each nondegenerate k-simplex under each
    canonical degeneracy word j1 > ... > j_{dim-k} with j1 < dim."""
    return [SimplexRef(name, k, tuple(reversed(word)))
            for k in range(dim + 1) for name in sset.nondegenerate(k)
            for word in itertools.combinations(range(dim), dim - k)]


def perturbed(sset, seed, changes):
    """A copy of ``sset`` in which ``changes`` stored faces of 2- and
    3-simplices are replaced by other simplices of the right dimension."""
    rng = random.Random(seed)
    faces = {(d, name): list(sset.simplices[d][name])
             for d in range(sset.dim_cap + 1) for name in sset.nondegenerate(d)}
    for _ in range(changes):
        dim = rng.choice([d for d in (2, 3) if sset.count_nondegenerate(d)])
        name = rng.choice(sset.nondegenerate(dim))
        faces[(dim, name)][rng.randrange(dim + 1)] = rng.choice(refs_of_dim(sset, dim - 1))
    out = FiniteSimplicialSet(sset.dim_cap)
    for (dim, name), listed in faces.items():
        out.add_level(dim, [(name, listed)])
    return out


@pytest.mark.parametrize("shape", ["delta3", "z3_nerve"])
def test_memoized_identity_check_matches_face_by_face_oracle(shape):
    base = standard("delta", 3) if shape == "delta3" else gp.nerve(gp.cyclic_groupoid(3), 3)
    broken = 0
    for seed in range(12):
        sset = perturbed(base, seed, changes=1 + seed % 3)
        want = violations_face_by_face(sset)
        assert sset.identity_violations() == want
        if want:
            broken += 1
            with pytest.raises(InvalidSimplicialSet) as err:
                FiniteSimplicialSet.from_json(sset.to_json())
            assert str(err.value) == "; ".join(want[:3])
    assert broken >= 8


def test_face_ref_with_inapplicable_degeneracy_is_rejected_at_insertion():
    # a face of a 3-simplex needs a strictly decreasing word with indices
    # >= 0 and the outermost at most 1: s_3 e, s_5 s_4 a, s_1 s_1 a, s_-1 e
    # and s_0 s_1 a fail, and each rejected level stores nothing
    sset = FiniteSimplicialSet(3)
    sset.add_level(0, [("a", ()), ("b", ())])
    sset.add_level(1, [("e", (SimplexRef("b", 0), SimplexRef("a", 0)))])
    good = (SimplexRef("e", 1, (1,)), SimplexRef("e", 1, (0,)),
            SimplexRef("a", 0, (1, 0)), SimplexRef("e", 1, (1,)))
    for bad in (SimplexRef("e", 1, (3,)), SimplexRef("a", 0, (5, 4)),
                SimplexRef("a", 0, (1, 1)), SimplexRef("e", 1, (-1,)),
                SimplexRef("a", 0, (0, 1))):
        with pytest.raises(InvalidSimplicialSet,
                           match="^face of 'w' has a degeneracy word that does not apply$"):
            sset.add_level(3, [("w", (bad,) + good[1:])])
        assert 3 not in sset.simplices
    sset.add_level(3, [("w", good)])
    assert sset.identity_violations() == violations_face_by_face(sset)


def test_from_json_reads_only_the_listed_dimensions_up_to_dim_cap():
    sset = FiniteSimplicialSet.from_json({"dim_cap": 3, "simplices": {
        "0": [{"name": "v", "degenerate": False}], "00": 5, "-1": 5, "4": 5, " 1": 5}})
    assert [sset.count_nondegenerate(d) for d in range(5)] == [1, 0, 0, 0, 0]
    assert sset.identity_violations() == []
    assert sset.to_json() == {"dim_cap": 3, "simplices": {
        "0": [{"name": "v", "degenerate": False}], "1": [], "2": [], "3": []}}


def insert_one_by_one(sset, dim, name, faces=()):
    """Oracle for ``add_level``: the per-simplex insertion, every check run
    on every face slot."""
    if dim > sset.dim_cap or dim < 0:
        raise InvalidParams(f"dimension {dim} outside 0..{sset.dim_cap}")
    known = sset.simplices
    here = known.setdefault(dim, {})
    if name in here:
        raise InvalidSimplicialSet(f"duplicate {dim}-simplex {name!r}")
    faces = tuple(faces)
    if dim == 0:
        if faces:
            raise InvalidSimplicialSet("vertices have no faces")
    else:
        if len(faces) != dim + 1:
            raise InvalidSimplicialSet(f"{dim}-simplex {name!r} needs {dim + 1} faces")
        for base, base_dim, degens in faces:
            if base_dim + len(degens) != dim - 1:
                raise InvalidSimplicialSet(f"face of {name!r} has wrong dimension")
            if degens != tuple(sorted(set(degens), reverse=True)) or \
                    any(j < 0 or j > dim - 2 for j in degens):
                raise InvalidSimplicialSet(
                    f"face of {name!r} has a degeneracy word that does not apply")
            if base not in known.get(base_dim, ()):
                raise InvalidSimplicialSet(f"face of {name!r} references "
                                           f"unknown simplex {base!r}")
    here[name] = faces


def small_sset():
    """Vertices a, b and the edge e: a -> b, at dim_cap 3."""
    sset = FiniteSimplicialSet(3)
    sset.add_level(0, [("a", ()), ("b", ())])
    sset.add_level(1, [("e", (SimplexRef("b", 0), SimplexRef("a", 0)))])
    return sset


A, B, E = SimplexRef("a", 0), SimplexRef("b", 0), SimplexRef("e", 1)
EDGE = (B, A)

# (dim, entries): each level fails, some at a later entry than its first
# bad one or with a second, different error after it
FAILING_LEVELS = {
    "dim_above_cap": (4, [("x", ())]),
    "dim_negative": (-1, [("x", ())]),
    "duplicate_of_stored": (1, [("f", EDGE), ("g", EDGE), ("e", EDGE)]),
    "duplicate_within_level": (1, [("f", EDGE), ("g", EDGE), ("f", EDGE), ("h", (A,))]),
    "vertex_with_faces": (0, [("c", ()), ("d", (A,)), ("a", ())]),
    "face_count": (1, [("f", EDGE), ("g", (A,)), ("h", (SimplexRef("z", 0), A))]),
    "face_dimension": (1, [("f", EDGE), ("g", (A, E)), ("h", (A, A, A))]),
    "unknown_face": (1, [("f", EDGE), ("g", (SimplexRef("z", 0), A)), ("h", (A,))]),
    "unknown_before_count": (1, [("f", (A, SimplexRef("z", 0))), ("g", (A,))]),
    "count_before_unknown": (1, [("f", (A,)), ("g", (A, SimplexRef("z", 0)))]),
    "dimension_before_unknown": (2, [("t", (E, E, E)), ("u", (E, A, E)),
                                     ("v", (E, SimplexRef("z", 1), E))]),
    "unknown_face_slot_before_wrong_dimension": (
        2, [("t", (E, E, E)), ("u", (E, SimplexRef("z", 1), A))]),
    "shared_bad_ref_first_met_late": (
        2, [("t", (E, E, E)), ("u", (E, E, SimplexRef("z", 1))),
            ("v", (SimplexRef("z", 1), E, E))]),
    "inapplicable_degeneracy": (2, [("t", (E, E, E)), ("u", (E, E, A.degenerate_by(0))),
                                    ("v", (E, E, SimplexRef("a", 0, (1,))))]),
    "inapplicable_before_unknown": (2, [("t", (E, SimplexRef("z", 0, (-1,)), E))]),
    "unknown_face_slot_before_inapplicable": (
        2, [("t", (SimplexRef("z", 1), SimplexRef("a", 0, (2,)), E))]),
    # the entry after the failing one is not a (name, faces) pair
    "bad_face_then_malformed_entry": (
        1, [("f", EDGE), ("g", (A, SimplexRef("z", 0))), ("h", EDGE, "extra")]),
}


@pytest.mark.parametrize("case", sorted(FAILING_LEVELS))
def test_level_insertion_raises_the_first_error_in_listing_order(case):
    dim, entries = FAILING_LEVELS[case]
    want_set, got_set = small_sset(), small_sset()
    with pytest.raises((InvalidParams, InvalidSimplicialSet)) as want:
        for name, faces in entries:
            insert_one_by_one(want_set, dim, name, faces)
    with pytest.raises((InvalidParams, InvalidSimplicialSet)) as got:
        got_set.add_level(dim, iter(entries))
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)
    # the entries before the failing one stay, in order
    assert {d: list(level.items()) for d, level in got_set.simplices.items() if level} == \
        {d: list(level.items()) for d, level in want_set.simplices.items() if level}
    # one entry per add_level call meets the same error
    one_set = small_sset()
    with pytest.raises((InvalidParams, InvalidSimplicialSet)) as one:
        for name, faces in entries:
            one_set.add_level(dim, [(name, faces)])
    assert (type(one.value), str(one.value)) == (type(want.value), str(want.value))


def test_level_insertion_of_valid_levels_matches_one_by_one():
    for sset in (standard("delta", 3), standard("horn", 3, 1), gp.nerve(gp.cyclic_groupoid(3), 3)):
        levels = [(d, list(sset.simplices[d].items())) for d in sorted(sset.simplices)]
        one, bulk = FiniteSimplicialSet(sset.dim_cap), FiniteSimplicialSet(sset.dim_cap)
        for dim, entries in levels:
            for name, faces in entries:
                insert_one_by_one(one, dim, name, faces)
            bulk.add_level(dim, (entry for entry in entries))
        assert bulk.to_json() == one.to_json() == sset.to_json()
        assert {d: list(level.items()) for d, level in bulk.simplices.items()} == \
            {d: list(level.items()) for d, level in one.simplices.items()}
    empty = FiniteSimplicialSet(2)
    empty.add_level(1, [])
    assert empty.simplices == {}


# ---------------------------------------------------------------------------
# pi


def test_pi_of_point_is_unit_category():
    gc = ho.pi(standard("delta", 0, dim_cap=2))
    assert len(gc.category.objects) == 1
    assert gc.category.objects[0].dim == 1


def test_pi_of_edge_is_interval_category():
    gc = ho.pi(standard("delta", 1, dim_cap=2))
    interval = gp.cstar_max(gp.interval_groupoid())
    # one component of two objects with a trivial vertex group: the interval
    [[x, _y]] = gc.groupoid.components()
    assert len(gc.groupoid.hom(x, x)) == 1
    assert sorted(o.dim for o in gc.category.objects) == \
        sorted(o.dim for o in interval.category.objects)


def test_the_interval_check_fails_on_a_nontrivial_vertex_group(monkeypatch):
    def edge_status():
        return next(entry.status for entry in suites.suite_simplicial()
                    if entry.name == "pi_edge_is_interval")

    assert edge_status() == "pass"
    # two objects joined by e and a loop a with a^2 = 1: Z/2 on two objects,
    # which has the interval's components and object count
    a = ("a", False)
    z2_edge = gp.FPGroupoid(["i0", "i1"], {"e": ("i0", "i1"), "a": ("i0", "i0")},
                            [(gp.FPWord("i0", "i0", (a, a)), gp.FPWord("i0", "i0"))])
    normalized = gp.normalize_fp(z2_edge).groupoid
    [[x, _y]] = normalized.components()
    assert len(normalized.hom(x, x)) == 2
    monkeypatch.setattr(suites, "fundamental_groupoid", lambda _sset: z2_edge)
    assert edge_status() == "fail"


def test_pi_of_circle_hits_the_budget():
    with pytest.raises(NotFiniteWithinBound):
        ho.pi(standard("boundary", 2), bound=10000)


def test_pi_sends_higher_horn_inclusions_to_isomorphisms():
    for n in (2, 3):
        for k in range(n + 1):
            functor, gfunctor = ho.pi_map(horn_inclusion(n, k, dim_cap=3))
            assert gfunctor.is_isomorphism(), (n, k)
            assert validate_functor(functor) == []
            # comparison-style checks: object bijection and hom dims
            assert len(functor.source.objects) == len(functor.target.objects)
            for x, y in functor.source.pairs():
                assert functor.source.hom(x, y).dim == functor.target.hom(
                    functor.object_map[x], functor.object_map[y]).dim


def degeneracy_of_the_edge():
    """The simplicial map Delta[1] -> Delta[0] collapsing the edge."""
    edge, point = standard("delta", 1, dim_cap=2), standard("delta", 0, dim_cap=2)
    vertex = point.ref(0, "0")
    return SimplicialMap(edge, point, {0: {"0": vertex, "1": vertex},
                                       1: {"0.1": vertex.degenerate_by(0)}})


@pytest.mark.parametrize("smap", [horn_inclusion(n, k, dim_cap=3)
                                  for n in (2, 3) for k in range(n + 1)]
                         + [degeneracy_of_the_edge()])
def test_pi_map_sends_each_generator_arrow_to_its_image(smap, functor_law_violations):
    _functor, gfunctor = ho.pi_map(smap)
    assert functor_law_violations(gfunctor) == []
    src = gp.normalize_fp(gp.fundamental_groupoid(smap.source))
    tgt = gp.normalize_fp(gp.fundamental_groupoid(smap.target))
    assert src.gen_arrow
    for edge, arrow in src.gen_arrow.items():
        image = smap.apply(smap.source.ref(1, edge))
        expected = tgt.groupoid.identities[image.base] if image.degenerate \
            else tgt.gen_arrow[image.base]
        assert gfunctor.arrow_map[arrow] == expected


def test_pi_of_edge_horn_matches_unit_inclusion():
    functor, _g = ho.pi_map(horn_inclusion(1, 1, dim_cap=2))
    # source is the unit category (one object, scalars), target the interval
    assert len(functor.source.objects) == 1
    assert functor.source.objects[0].dim == 1
    assert len(functor.target.objects) == 2
    assert all(o.dim == 2 for o in functor.target.objects)
    assert all(functor.target.hom(x, y).dim == 1
               for x, y in functor.target.pairs())


# ---------------------------------------------------------------------------
# tensor and cotensor with simplicial sets


def test_tensor_with_point_preserves_hom_dimensions():
    cat = full_matrix_category([2, 3])
    tensored = ho.tensor_with_sset(cat, standard("delta", 0, dim_cap=2))
    assert [o.dim for o in tensored.objects] == [2, 3]
    point_object = tensored.object_names[0].split(",")[1][:-1]
    for x in cat.object_names:
        for y in cat.object_names:
            assert tensored.hom(pair_name(x, point_object),
                                pair_name(y, point_object)).dim == cat.hom(x, y).dim


def test_tensor_with_edge_matches_interval_kronecker_counts():
    cat = full_matrix_category([2])
    tensored = ho.tensor_with_sset(cat, standard("delta", 1, dim_cap=2))
    direct = tensor_max(cat, gp.cstar_max(gp.interval_groupoid()).category)
    assert sorted(o.dim for o in tensored.objects) == \
        sorted(o.dim for o in direct.objects)
    assert sorted(s.dim for s in tensored.homs.values()) == \
        sorted(s.dim for s in direct.homs.values())
    assert validate_category(tensored) == []


def test_cotensor_with_point_recovers_homs():
    cat = full_matrix_category([2, 3])
    cotensored = ho.cotensor(cat, standard("delta", 0, dim_cap=2))
    assert cotensored.object_names == cat.object_names
    assert [o.dim for o in cotensored.objects] == [2, 3]
    for x, y in cat.pairs():
        assert cotensored.hom(x, y).dim == cat.hom(x, y).dim


def test_cotensor_with_edge_against_constant_probes():
    cat = full_matrix_category([2])
    cotensored = ho.cotensor(cat, standard("delta", 1, dim_cap=2))
    # constant probes at the single object of a full matrix algebra: the
    # transformation space is cut down by naturality over the interval
    assert validate_category(cotensored) == []
    probe = cotensored.functors["m0"]
    space = cotensored.hom("m0", "m0")
    assert space.dim >= 1
    for alpha in space.basis:
        for (x, y), images in probe.hom_maps.items():
            for fa in images:
                lhs = cotensored.component(alpha, "m0", "m0", y) @ fa
                rhs = fa @ cotensored.component(alpha, "m0", "m0", x)
                assert np.linalg.norm(lhs - rhs) <= 1e-9


# ---------------------------------------------------------------------------
# mapping-space membership: a level-n simplex is a chain of n unitary arrows
# of a functor category on n+1 validated functors


def is_simplex(functors, arrows):
    """Whether ``arrows`` is a chain of unitary arrows of the functor
    category on ``functors`` (validated *-functors), arrow i going from
    functor i to functor i+1."""
    names = [f"F{i}" for i in range(len(functors))]
    category = FunctorCategory(dict(zip(names, functors)))
    return (all(validate_functor(f) == [] for f in functors)
            and validate_category(category) == []
            and all(category.hom(names[i], names[i + 1]).contains(arrow, category.tol)
                    and is_unitary(arrow) for i, arrow in enumerate(arrows)))


def test_map_simplex_levels():
    unit = full_matrix_category([1], ["pt"])
    ident = identity_functor(unit)
    assert is_simplex([ident], [])
    assert is_simplex([ident, ident], [np.eye(1)])
    assert not is_simplex([ident, ident], [2 * np.eye(1)])


def test_map_simplices_compose():
    # accepted 1-simplices compose to an accepted 1-simplex (nerve law);
    # naturality against the identity means centrality, so use the diagonal
    # algebra, whose unitaries diag(phases) are all central
    from cstarcat.categories import MatCStarCategory

    diag = MatCStarCategory(
        [("d", 2)],
        {("d", "d"): [np.diag([1.0, 0]).astype(complex),
                      np.diag([0, 1.0]).astype(complex)]},
    )
    ident = identity_functor(diag)
    u = np.diag([1.0, -1.0]).astype(complex)
    w = np.diag([1j, 1.0]).astype(complex)
    assert is_simplex([ident, ident], [u])
    assert is_simplex([ident, ident], [w])
    assert is_simplex([ident, ident], [w @ u])
    assert is_simplex([ident, ident, ident], [u, w])
    # the swap is unitary but not natural
    off = np.array([[0, 1], [1, 0]], dtype=complex)
    assert is_unitary(off)
    assert not is_simplex([ident, ident], [off])
    assert not is_simplex([ident, ident, ident], [u, off])
