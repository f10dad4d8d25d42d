"""Simplicial structure over matrix C*-categories.

pi sends a simplicial set to the C*-category of its normalized fundamental
groupoid, and pi_map a simplicial map to the induced *-functor, unchecked as
its images are exact. Tensors and cotensors with a simplicial set reduce to
the maximal tensor product with pi(K) and to the ``FunctorCategory``
C*(pi K, A) on the constant probe functors.
"""

from __future__ import annotations

from .categories import FunctorCategory, MatCStarCategory, StarFunctor, tensor_max
from .coset import DEFAULT_BUDGET
from .errors import NotFiniteWithinBound
from .groupoids import (
    GroupoidCStar,
    UnitaryRep,
    adjunction_extend,
    cstar_max,
    fundamental_groupoid,
    induced_functor,
    normalize_fp,
    regular_extension,
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
    pi(K) -> pi(L). Returns (functor, groupoid functor). An arrow goes to the
    0/1 permutation matrix of its image, exactly unitary with exact products,
    and ``induced_functor`` proves the laws exactly: nothing is re-checked."""
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

    gc_src, gc_tgt = cstar_max(src.groupoid, tol=tol), cstar_max(tgt.groupoid, tol=tol)
    functor = regular_extension(gc_src, gc_tgt.category, gfunctor.object_map,
                                lambda a: gc_tgt.embed[gfunctor.arrow_map[a]])
    return functor, gfunctor


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
             bound: int = DEFAULT_BUDGET) -> FunctorCategory:
    """A^K = C*(pi K, A) on the probe functors: the constant functors at the
    objects of A, named after them (for K = Delta[0] its homs are exactly
    those of A)."""
    gc = pi(sset, bound, tol=cat.tol)
    return FunctorCategory({x: constant_probe(gc, cat, x) for x in cat.object_names})
