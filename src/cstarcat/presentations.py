"""Presentations of C*-categories by generators and relations.

Quivers; elements of the free *-category on a quiver, combinations of words
in which adjoints sit on generators and units are elided, closed under
composition and the adjoint; presentations, whose relations are pairs of
such elements; and the evaluation of a presentation in a concrete matrix
category, which checks its relations and norm bounds there.

Universal objects are never materialized here: a presentation is only ever
*evaluated* against a supplied representation. ``ism_presentation`` presents
the realizations of a finite category by isometries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BoundFailed,
    InvalidCategory,
    InvalidFunctor,
    InvalidParams,
    InvalidQuiver,
    MalformedInput,
    NotParallel,
    RelationFailed,
    ShapeMismatch,
)
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
        raise ValueError("use unit_word for empty words")
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

    @classmethod
    def from_json(cls, data, quiver: Quiver) -> "FreeStarElement":
        terms = {}
        for entry in data["terms"]:
            fs = [(f["gen"], f["adj"]) for f in entry["word"]]
            if fs:
                w = word_of_factors(quiver, fs)
            else:
                if data["src"] != data["tgt"]:
                    raise NotParallel("unit word on non-endomorphism element")
                w = StarWord(data["src"], data["tgt"])
            re, im = entry["coeff"]
            terms[w] = terms.get(w, 0j) + complex(re, im)
        return cls(data["src"], data["tgt"], terms)


class PresentedStarCategory:
    """A quiver, algebraic relations (pairs of parallel free elements asserted
    equal), and per-generator norm-bound annotations."""

    def __init__(self, quiver: Quiver, relations=(), norm_bounds=None):
        self.quiver = quiver
        self.relations: list[tuple[FreeStarElement, FreeStarElement]] = []
        for lhs, rhs in relations:
            if (lhs.src, lhs.tgt) != (rhs.src, rhs.tgt):
                raise NotParallel("relation sides are not parallel")
            self.relations.append((lhs, rhs))
        self.norm_bounds: dict[str, float] = {}
        for name, bound in (norm_bounds or {}).items():
            if name not in quiver.arrow_by_name:
                raise InvalidQuiver(f"bound on unknown arrow {name!r}")
            if bound < 0:
                raise InvalidParams("norm bounds must be nonnegative")
            if not math.isfinite(bound):
                raise InvalidParams("norm bounds must be finite")
            self.norm_bounds[name] = float(bound)

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

    # -- serialization --------------------------------------------------------

    @classmethod
    def from_json(cls, data) -> "PresentedStarCategory":
        """Read a presentation file; a JSON shape error raises
        ``MalformedInput``, a quiver or relation that does not fit together
        its own typed error."""
        try:
            quiver = Quiver(data["objects"],
                            [(a["name"], a["src"], a["tgt"]) for a in data["arrows"]])
            rels = [(FreeStarElement.from_json(l, quiver), FreeStarElement.from_json(r, quiver))
                    for l, r in data.get("relations", [])]
            bounds = data.get("bounds", {})
            if not isinstance(bounds, dict) or \
                    not all(type(b) in (int, float) for b in bounds.values()):
                raise TypeError("bounds must map arrow names to numbers")
        except (AttributeError, KeyError, TypeError, ValueError) as err:
            raise MalformedInput(f"presentation file: {type(err).__name__}: {err}") from None
        return cls(quiver, rels, bounds)

    def __repr__(self):
        return (f"PresentedStarCategory({len(self.quiver.objects)} objects, "
                f"{len(self.quiver.arrows)} generators, "
                f"{len(self.relations)} relations)")


# ---------------------------------------------------------------------------
# union-find


class UnionFind:
    """Disjoint classes of a fixed set of comparable items. The root of each
    class is its least member, so representatives are deterministic."""

    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        """The least member of x's class (path halving on the way)."""
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        lo, hi = (ra, rb) if ra < rb else (rb, ra)
        self.parent[hi] = lo

    def classes(self) -> list[list]:
        """The classes, each sorted, in the order of their least members."""
        groups: dict = {}
        for x in self.parent:
            groups.setdefault(self.find(x), []).append(x)
        return [sorted(groups[root]) for root in sorted(groups)]


# ---------------------------------------------------------------------------
# evaluation


class Evaluation:
    """A representation of a presentation in a concrete matrix C*-category,
    with all relations and bounds verified at construction time against the
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
        self._check_bounds()

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

    def _check_bounds(self):
        for name, bound in self.presentation.norm_bounds.items():
            value = op_norm(self.arrow_assign[name])
            if value > bound + self.category.tol.eps_abs:
                raise BoundFailed(
                    f"generator {name!r} has norm {value:.6f} > bound {bound}",
                    arrow=name, value=value,
                )


def evaluate(presentation: PresentedStarCategory, category,
             object_assign: dict, arrow_assign: dict) -> Evaluation:
    """Check a representation against a presentation and return the induced
    evaluation map on free elements."""
    return Evaluation(presentation, category, object_assign, arrow_assign)


# ---------------------------------------------------------------------------
# finite categories realized by isometries


def check_composition_table(objects, arrows, identities, compose, error):
    """Raise ``error`` unless the tables form a category: arrow endpoints are
    declared, exactly the composable pairs have a composite, with the right
    endpoints, each identity is a loop neutral on both sides, and
    composition is associative.

    ``arrows`` maps names to ``(src, tgt)``, ``identities`` objects to arrow
    names and ``compose`` pairs ``(g, f)`` (g after f) to arrow names.

    ``compose`` is read once, g by g in ``arrows`` order, while the
    composable pairs are checked; each g's composites are kept as an integer
    row, the indices (positions in ``arrows``) of g.f for f over the arrows
    into src(g) in ``arrows`` order. Identity neutrality, the closure and
    the associativity test below run on these rows.

    Associativity is decided by Light's test (A. H. Clifford and G. B.
    Preston, *The Algebraic Theory of Semigroups* I, 1961, §1.2): call g
    good when (h.g).f = h.(g.f) for every composable h and f. Neutral
    identities are good, and s.c is good whenever s and c are, so the
    table is associative exactly when a set S of arrows is good whose
    left products, starting from the identities, reach every arrow. S is
    grown greedily in ``arrows`` order, and only its members are tested as
    middle arrows, one row comparison per (g, h). The matrix validators of
    ``categories`` use the same pattern; ``cstarcat.light`` describes it
    once ("Greedy generating set, certificate, exhaustive fallback").
    """
    into = {x: [] for x in objects}          # arrow names by target
    outof = {x: [] for x in objects}         # arrow indices by source
    index, place, targets = {}, [], []       # place: position in into[target]
    for name, (src, tgt) in arrows.items():
        if src not in into or tgt not in into:
            raise error(f"arrow {name!r} has undeclared endpoints")
        outof[src].append(len(place))
        index[name] = len(place)
        place.append(len(into[tgt]))
        into[tgt].append(name)
        targets.append(tgt)
    rows = []                                # rows[g][place[f]] = index of g.f
    composable = 0
    for g, (gs, gt) in arrows.items():
        row = []
        for f in into[gs]:
            h = compose.get((g, f))
            if h is None or arrows.get(h) != (arrows[f][0], gt):
                raise error(f"bad composite {g!r}.{f!r}")
            row.append(index[h])
        rows.append(row)
        composable += len(row)
    # every composable pair has its own key, so any further key is a
    # composite stored for a pair that is not composable
    if len(compose) != composable:
        raise error("composite stored for a pair that is not composable")
    for x in objects:
        if arrows.get(identities.get(x)) != (x, x):
            raise error(f"object {x!r} lacks an identity loop")
    ident = {x: index[identities[x]] for x in objects}
    for f, (name, (fs, ft)) in enumerate(arrows.items()):
        if rows[ident[ft]][place[f]] != f or rows[f][place[ident[fs]]] != f:
            raise error(f"identities are not neutral on {name!r}")
    reached = [False] * len(rows)
    reached_into = {x: [ident[x]] for x in objects}
    for e in ident.values():
        reached[e] = True
    generators = []
    generators_outof = {x: [] for x in objects}
    for a, (a_src, _a_tgt) in enumerate(arrows.values()):
        if reached[a]:
            continue
        generators.append(a)
        generators_outof[a_src].append(a)
        row = rows[a]
        pending = [row[place[r]] for r in reached_into[a_src]]
        while pending:
            c = pending.pop()
            if reached[c]:
                continue
            reached[c] = True
            c_tgt, c_place = targets[c], place[c]
            reached_into[c_tgt].append(c)
            pending.extend(rows[s][c_place] for s in generators_outof[c_tgt])
    for g in generators:
        # the place of each g.f among the arrows into tgt(g)
        through = list(map(place.__getitem__, rows[g]))
        g_place = place[g]
        for h in outof[targets[g]]:
            row = rows[h]
            if rows[row[g_place]] != list(map(row.__getitem__, through)):
                raise error("composition is not associative")


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
