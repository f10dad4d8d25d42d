"""Presentations of C*-categories by generators and relations, evaluated in
matrix categories.

Quivers; elements of the free *-category on a quiver, combinations of words
in which adjoints sit on generators and units are elided, closed under
composition and the adjoint; presentations, whose relations are pairs of
such elements; and the evaluation of a presentation in a concrete matrix
category, which checks its relations there.

Universal objects are never materialized here, and a presentation has no
file format: it is only ever *evaluated* against a supplied
representation. Its universal object is in general infinite-dimensional
(for one isometry, the Toeplitz algebra), so nothing finite is left to
decide beyond evaluation. ``ism_presentation`` presents the realizations of
a finite category by isometries. No other module of the package imports
this one; ``FiniteCategory``, ``ism_presentation`` and ``evaluate`` are
what ``perfbench`` runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidCategory,
    InvalidFunctor,
    InvalidQuiver,
    NotParallel,
    RelationFailed,
    ShapeMismatch,
)
from .groupoids import check_composition_table
from .linalg import as_matrix, op_norm


@dataclass(frozen=True)
class Arrow:
    name: str
    src: str
    tgt: str


class Quiver:
    """Finite labeled oriented graph: named objects plus named arrows."""

    def __init__(self, objects, arrows):
        self.objects = list(objects)
        self.arrows = [a if isinstance(a, Arrow) else Arrow(*a) for a in arrows]
        if len(set(self.objects)) != len(self.objects):
            raise InvalidQuiver("duplicate object names")
        names = [a.name for a in self.arrows]
        if len(set(names)) != len(names):
            raise InvalidQuiver("duplicate arrow names")
        obj_set = set(self.objects)
        for a in self.arrows:
            if a.src not in obj_set or a.tgt not in obj_set:
                raise InvalidQuiver(f"arrow {a.name}: undeclared endpoint")
        self.arrow_by_name = {a.name: a for a in self.arrows}

    def __repr__(self):
        return f"Quiver({len(self.objects)} objects, {len(self.arrows)} arrows)"


@dataclass(frozen=True)
class StarWord:
    """A composable word of adjoint-marked generators, or a formal unit.

    ``factors`` are stored in composition order: ``(g, f)`` denotes g after f.
    An empty factor tuple is the unit at ``src`` (== ``tgt``).
    """

    src: str
    tgt: str
    factors: tuple = ()

    def is_unit(self) -> bool:
        return not self.factors

    def star(self) -> "StarWord":
        flipped = tuple((g, not adj) for (g, adj) in reversed(self.factors))
        return StarWord(self.tgt, self.src, flipped)

    def then_after(self, other: "StarWord") -> "StarWord":
        """Composite self . other (other applied first)."""
        if other.tgt != self.src:
            raise ShapeMismatch(
                f"words not composable: {other.tgt} != {self.src}")
        return StarWord(other.src, self.tgt, self.factors + other.factors)

    def sort_key(self):
        return (len(self.factors), self.factors)


def word_of_factors(quiver: Quiver, factors) -> StarWord:
    """Build a word from ``(generator_name, adjoint)`` pairs in composition
    order, validating composability against the quiver."""
    factors = tuple((g, bool(adj)) for g, adj in factors)
    if not factors:
        raise ValueError("an empty word is a unit: use PresentedStarCategory.unit")
    endpoints = []
    for g, adj in factors:
        arrow = quiver.arrow_by_name.get(g)
        if arrow is None:
            raise InvalidQuiver(f"unknown generator {g!r}")
        endpoints.append((arrow.tgt, arrow.src) if adj else (arrow.src, arrow.tgt))
    for (left_src, _), (_, right_tgt) in zip(endpoints, endpoints[1:]):
        if left_src != right_tgt:
            raise ShapeMismatch("consecutive factors not composable")
    return StarWord(endpoints[-1][0], endpoints[0][1], factors)


class FreeStarElement:
    """A finite linear combination of parallel words: ``terms`` maps each
    word to its coefficient."""

    def __init__(self, src: str, tgt: str, terms=None):
        self.src = src
        self.tgt = tgt
        self.terms: dict[StarWord, complex] = {}
        for word, coeff in (terms or {}).items():
            if (word.src, word.tgt) != (src, tgt):
                raise NotParallel("word endpoints disagree with element endpoints")
            self.terms[word] = self.terms.get(word, 0j) + complex(coeff)

    def __mul__(self, other: "FreeStarElement") -> "FreeStarElement":
        """Composition self . other."""
        if other.tgt != self.src:
            raise ShapeMismatch(
                f"elements not composable: {other.tgt} != {self.src}")
        terms: dict[StarWord, complex] = {}
        for w1, z1 in self.terms.items():
            for w2, z2 in other.terms.items():
                w = w1.then_after(w2)
                terms[w] = terms.get(w, 0j) + z1 * z2
        return FreeStarElement(other.src, self.tgt, terms)

    def star(self) -> "FreeStarElement":
        return FreeStarElement(
            self.tgt, self.src,
            {w.star(): z.conjugate() for w, z in self.terms.items()})

    def __repr__(self):
        if not self.terms:
            return f"<0: {self.src}->{self.tgt}>"
        bits = []
        for w in sorted(self.terms, key=StarWord.sort_key):
            body = "1_" + w.src if w.is_unit() else \
                ".".join(g + ("*" if adj else "") for g, adj in w.factors)
            bits.append(f"({self.terms[w]:.3g})*{body}")
        return " + ".join(bits)


class PresentedStarCategory:
    """A quiver and algebraic relations: pairs of parallel free elements
    asserted equal."""

    def __init__(self, quiver: Quiver, relations=()):
        self.quiver = quiver
        self.relations: list[tuple[FreeStarElement, FreeStarElement]] = []
        for lhs, rhs in relations:
            if (lhs.src, lhs.tgt) != (rhs.src, rhs.tgt):
                raise NotParallel("relation sides are not parallel")
            self.relations.append((lhs, rhs))

    # -- element constructors ------------------------------------------------

    def gen(self, name: str) -> FreeStarElement:
        arrow = self.quiver.arrow_by_name.get(name)
        if arrow is None:
            raise InvalidQuiver(f"unknown generator {name!r}")
        w = word_of_factors(self.quiver, [(name, False)])
        return FreeStarElement(arrow.src, arrow.tgt, {w: 1.0 + 0j})

    def unit(self, obj: str) -> FreeStarElement:
        if obj not in self.quiver.objects:
            raise InvalidQuiver(f"unknown object {obj!r}")
        return FreeStarElement(obj, obj, {StarWord(obj, obj): 1.0 + 0j})

    def __repr__(self):
        return (f"PresentedStarCategory({len(self.quiver.objects)} objects, "
                f"{len(self.quiver.arrows)} generators, "
                f"{len(self.relations)} relations)")


# ---------------------------------------------------------------------------
# evaluation


class Evaluation:
    """A representation of a presentation in a concrete matrix C*-category,
    with all relations verified at construction time against the
    category's tolerance."""

    def __init__(self, presentation: PresentedStarCategory, category,
                 object_assign: dict, arrow_assign: dict):
        self.presentation = presentation
        self.category = category
        self.object_assign = dict(object_assign)
        self.arrow_assign = {}
        q = presentation.quiver
        for x in q.objects:
            if self.object_assign.get(x) is None:
                raise InvalidFunctor(f"object {x!r} has no assignment")
        for a in q.arrows:
            m = arrow_assign.get(a.name)
            if m is None:
                raise InvalidFunctor(f"arrow {a.name!r} has no assignment")
            rows = category.obj(self.object_assign[a.tgt]).dim
            cols = category.obj(self.object_assign[a.src]).dim
            m = as_matrix(m, rows, cols)
            hom = category.hom(self.object_assign[a.src], self.object_assign[a.tgt])
            if not hom.contains(m, category.tol):
                raise InvalidFunctor(f"image of {a.name!r} is not in the target hom space")
            self.arrow_assign[a.name] = m
        self._check_relations()

    def __call__(self, e: FreeStarElement) -> np.ndarray:
        rows = self.category.obj(self.object_assign[e.tgt]).dim
        cols = self.category.obj(self.object_assign[e.src]).dim
        out = np.zeros((rows, cols), dtype=np.complex128)
        for word, z in e.terms.items():
            out += z * self._eval_word(word)
        return out

    def _eval_word(self, word: StarWord) -> np.ndarray:
        if word.is_unit():
            n = self.category.obj(self.object_assign[word.src]).dim
            return np.eye(n, dtype=np.complex128)
        mat = None
        for g, adj in word.factors:
            m = self.arrow_assign[g]
            m = m.conj().T if adj else m
            mat = m if mat is None else mat @ m
        return mat

    def _check_relations(self):
        tol = self.category.tol
        for idx, (lhs, rhs) in enumerate(self.presentation.relations):
            left, right = self(lhs), self(rhs)
            residual = op_norm(left - right)
            if residual > tol.eps_abs and residual > tol.bound(op_norm(left), op_norm(right)):
                raise RelationFailed(
                    f"relation #{idx} fails with residual {residual:.3e}",
                    witness={"relation": idx, "residual": residual},
                )


def evaluate(presentation: PresentedStarCategory, category,
             object_assign: dict, arrow_assign: dict) -> Evaluation:
    """Check a representation against a presentation and return the induced
    evaluation map on free elements."""
    return Evaluation(presentation, category, object_assign, arrow_assign)


# ---------------------------------------------------------------------------
# finite categories realized by isometries


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


def ism_presentation(cat: FiniteCategory) -> PresentedStarCategory:
    """Presentation whose representations are exactly the ways of realizing
    the category's arrows as isometries: the composition table of the
    category plus c*c = 1 for every non-identity arrow."""
    gens = [name for name in sorted(cat.arrows) if not cat.is_identity(name)]
    arrows = [Arrow(name, *cat.arrows[name]) for name in gens]
    quiver = Quiver(list(cat.objects), arrows)
    pres = PresentedStarCategory(quiver)

    relations = []
    for g in gens:
        for f in gens:
            gs, _gt = cat.arrows[g]
            _fs, ft = cat.arrows[f]
            if ft != gs:
                continue
            composite = cat.compose[(g, f)]
            lhs = pres.gen(g) * pres.gen(f)
            if cat.is_identity(composite):
                rhs = pres.unit(cat.arrows[composite][0])
            else:
                rhs = pres.gen(composite)
            relations.append((lhs, rhs))
    for g in gens:
        src, _ = cat.arrows[g]
        relations.append((pres.gen(g).star() * pres.gen(g), pres.unit(src)))
    return PresentedStarCategory(quiver, relations)
