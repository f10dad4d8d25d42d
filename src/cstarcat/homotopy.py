"""Simplicial structure over matrix C*-categories.

pi sends a simplicial set to the C*-category of its normalized fundamental
groupoid; tensors and cotensors with a simplicial set reduce to the maximal
tensor product and to spaces of bounded natural transformations against
probe functors. Mapping spaces are never materialized: only membership of a
candidate chain of unitary transformations in a given simplex dimension is
decided.
"""

from __future__ import annotations

from .categories import (
    MatCStarCategory,
    StarFunctor,
    nat_space,
    tensor_max,
    validate_functor,
)
from .coset import DEFAULT_BUDGET
from .errors import NotFiniteWithinBound, ShapeMismatch
from .groupoids import (
    GroupoidCStar,
    UnitaryRep,
    adjunction_extend,
    cstar_max,
    fundamental_groupoid,
    induced_functor,
    normalize_fp,
)
from .linalg import DEFAULT_TOL, Tolerance
from .simplicial import FiniteSimplicialSet, SimplicialMap


def pi(sset: FiniteSimplicialSet, bound: int = DEFAULT_BUDGET,
       tol: Tolerance = DEFAULT_TOL) -> GroupoidCStar:
    """The groupoid C*-category of the fundamental groupoid, provided the
    normalization stays within the coset budget."""
    result = normalize_fp(fundamental_groupoid(sset), bound)
    if not result.finite:
        raise NotFiniteWithinBound(
            f"fundamental groupoid not finite within {bound} cosets")
    return cstar_max(result.groupoid, tol=tol)


def pi_map(smap: SimplicialMap, bound: int = DEFAULT_BUDGET,
           tol: Tolerance = DEFAULT_TOL):
    """Transport a simplicial map K -> L to the induced *-functor
    pi(K) -> pi(L). Returns (functor, groupoid functor)."""
    src = normalize_fp(fundamental_groupoid(smap.source), bound)
    tgt = normalize_fp(fundamental_groupoid(smap.target), bound)
    if not (src.finite and tgt.finite):
        raise NotFiniteWithinBound(
            f"fundamental groupoid not finite within {bound} cosets")
    object_map = {v: smap.apply(smap.source.ref(0, v)).base
                  for v in smap.source.nondegenerate(0)}
    gen_map = {}
    for edge in smap.source.nondegenerate(1):
        image = smap.apply(smap.source.ref(1, edge))
        gen_map[edge] = None if image.degenerate else image.base
    gfunctor = induced_functor(src, tgt, object_map, gen_map)

    gc_src = cstar_max(src.groupoid, tol=tol)
    gc_tgt = cstar_max(tgt.groupoid, tol=tol)
    rep = UnitaryRep(
        src.groupoid, gc_tgt.category,
        {x: gfunctor.object_map[x] for x in src.groupoid.objects},
        {a: gc_tgt.embed[gfunctor.arrow_map[a]] for a in src.groupoid.arrows})
    return adjunction_extend(gc_src, rep), gfunctor


def tensor_with_sset(cat: MatCStarCategory, sset: FiniteSimplicialSet,
                     bound: int = DEFAULT_BUDGET) -> MatCStarCategory:
    """A (x) K := A (x)_max pi(K)."""
    return tensor_max(cat, pi(sset, bound, tol=cat.tol).category)


def constant_probe(gc: GroupoidCStar, cat: MatCStarCategory, at: str) -> StarFunctor:
    """The probe functor pi(K) -> A constant at an object of A: every arrow
    goes to the identity unitary."""
    gpd = gc.groupoid
    eye = cat.identity(at)
    rep = UnitaryRep(gpd, cat, {x: at for x in gpd.objects},
                     {a: eye for a in gpd.arrows})
    return adjunction_extend(gc, rep)


def cotensor(cat: MatCStarCategory, sset: FiniteSimplicialSet,
             bound: int = DEFAULT_BUDGET) -> dict:
    """Hom data of A^K = C*(pi K, A): for every ordered pair of probe
    functors pi(K) -> A, the space of bounded natural transformations.

    The probes are the constant functors at the objects of A, in order (for
    K = Delta[0] these are exactly the objects of A, and the returned
    spaces are the homs of A)."""
    gc = pi(sset, bound, tol=cat.tol)
    probes = [constant_probe(gc, cat, x) for x in cat.object_names]
    out = {}
    for i, f in enumerate(probes):
        for j, g in enumerate(probes):
            out[(i, j)] = nat_space(f, g)
    return out


def map_simplex_check(a: MatCStarCategory, b: MatCStarCategory, level: int,
                      functors, transforms) -> bool:
    """Membership of a candidate chain in the level-n simplices of the
    mapping space: n+1 validated parallel functors A -> B joined by n
    natural transformations that are unitary at every component, each
    judged by its own tolerance."""
    functors = list(functors)
    transforms = list(transforms)
    if len(functors) != level + 1 or len(transforms) != level:
        raise ShapeMismatch(
            f"level {level} needs {level + 1} functors and {level} transforms")
    for f in functors:
        if f.source is not a and f.source.object_names != a.object_names:
            raise ShapeMismatch("functor chain does not start at the given source")
        if f.target is not b and f.target.object_names != b.object_names:
            raise ShapeMismatch("functor chain does not land in the given target")
        if validate_functor(f):
            return False
    for i, alpha in enumerate(transforms):
        if alpha.f is not functors[i] or alpha.g is not functors[i + 1]:
            if alpha.f.object_map != functors[i].object_map or \
                    alpha.g.object_map != functors[i + 1].object_map:
                raise ShapeMismatch(f"transform {i} does not join functors {i},{i+1}")
        if not alpha.is_natural() or not alpha.is_unitary():
            return False
    return True
