"""Finite categories realized by isometries: a presentation by generators and
relations, evaluated in matrix C*-categories.

``ism_presentation`` presents the realizations of a finite category by
isometries: one generator per non-identity arrow, one relation g.f = h (or
g.f = 1) per composable pair of them, and g*g = 1 per generator. A relation
is a pair of parallel ``groupoids.FPWord`` values, whose flag marks the
adjoint of a factor; the empty word is the unit at its object.

A presentation is only ever *evaluated*: ``evaluate`` checks a supplied
representation against every relation and returns its evaluation map on
words. The universal object is in general infinite-dimensional (for one
isometry, the Toeplitz algebra), so nothing finite is left to decide beyond
evaluation. No other module of the package imports this one;
``FiniteCategory``, ``ism_presentation`` and ``evaluate`` are what
``perfbench`` runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import InvalidCategory, InvalidFunctor, RelationFailed
from .groupoids import FPWord, check_composition_table
from .linalg import as_matrix, op_norm


class FiniteCategory:
    """A finite category given by explicit composition tables."""

    def __init__(self, objects, arrows, identities, compose):
        self.objects = list(objects)
        self.arrows = {name: (src, tgt) for name, (src, tgt) in arrows.items()}
        self.identities = dict(identities)
        self.compose = dict(compose)
        self._validate()

    def _validate(self):
        check_composition_table(self.objects, self.arrows, self.identities,
                                self.compose, InvalidCategory)

    def is_identity(self, name: str) -> bool:
        src, tgt = self.arrows[name]
        return src == tgt and self.identities[src] == name


@dataclass(frozen=True)
class Presentation:
    """Objects, generators (name -> (src, tgt)) and relations: pairs of
    parallel words asserted equal."""

    objects: list
    generators: dict
    relations: list

    def gen(self, name: str) -> FPWord:
        src, tgt = self.generators[name]
        return FPWord(src, tgt, ((name, False),))


def ism_presentation(cat: FiniteCategory) -> Presentation:
    """Presentation whose representations are exactly the ways of realizing
    the category's arrows as isometries: the composition table of the
    category plus c*c = 1 for every non-identity arrow."""
    gens = {name: cat.arrows[name] for name in sorted(cat.arrows)
            if not cat.is_identity(name)}
    relations = []
    for g, (gs, gt) in gens.items():
        for f, (fs, ft) in gens.items():
            if ft != gs:
                continue
            composite = cat.compose[(g, f)]
            rhs = (FPWord(fs, fs) if cat.is_identity(composite)
                   else FPWord(fs, gt, ((composite, False),)))
            relations.append((FPWord(fs, gt, ((g, False), (f, False))), rhs))
    for g, (gs, _gt) in gens.items():
        relations.append((FPWord(gs, gs, ((g, True), (g, False))), FPWord(gs, gs)))
    return Presentation(list(cat.objects), gens, relations)


def evaluate(pres: Presentation, category, object_assign: dict, arrow_assign: dict):
    """Check a representation of ``pres`` in a matrix C*-category and return
    its evaluation map, from words to matrices.

    Every object and generator needs an assignment, and each generator's
    image must lie in its hom space (``InvalidFunctor``). Each relation
    passes when its residual is within ``category.tol``, the operand norms
    taken only when the residual exceeds ``eps_abs`` (``RelationFailed``
    otherwise, with the relation's index and residual as witness)."""
    for x in pres.objects:
        if object_assign.get(x) is None:
            raise InvalidFunctor(f"object {x!r} has no assignment")
    dims = {x: category.obj(object_assign[x]).dim for x in pres.objects}
    images = {}
    for name, (src, tgt) in pres.generators.items():
        m = arrow_assign.get(name)
        if m is None:
            raise InvalidFunctor(f"arrow {name!r} has no assignment")
        m = as_matrix(m, dims[tgt], dims[src])
        if not category.hom(object_assign[src], object_assign[tgt]).contains(m, category.tol):
            raise InvalidFunctor(f"image of {name!r} is not in the target hom space")
        images[name] = m

    def value(word: FPWord) -> np.ndarray:
        if not word.factors:
            return np.eye(dims[word.src], dtype=np.complex128)
        return reduce(np.matmul, (images[g].conj().T if adj else images[g]
                                  for g, adj in word.factors))

    tol = category.tol
    for idx, (lhs, rhs) in enumerate(pres.relations):
        left, right = value(lhs), value(rhs)
        residual = op_norm(left - right)
        if residual > tol.eps_abs and residual > tol.bound(op_norm(left), op_norm(right)):
            raise RelationFailed(f"relation #{idx} fails with residual {residual:.3e}",
                                 witness={"relation": idx, "residual": residual})
    return value
