"""Finite and finitely presented groupoids, and their C*-categories.

The groupoid C*-category is realized faithfully through the regular
representation: the carrier of an object x is spanned by all arrows into x
(sorted by source name then arrow name, so matrices are reproducible), and an
arrow acts by post-composition as a permutation matrix. For finite groupoids
the maximal and reduced norms agree, so this finite matrix model is the
honest completion.

Finitely presented groupoids (e.g. fundamental groupoids of simplicial sets)
are normalized to finite groupoids by choosing a spanning tree per component
and running a bounded coset enumeration on the vertex group presentation.

The package's one union-find and one composition-table check live here too;
``model`` and ``presentations`` import them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from operator import itemgetter, methodcaller

import numpy as np

from .categories import (
    MatCStarCategory,
    StarFunctor,
    is_fully_faithful,
    pair_name,
    tensor_max,
    validate_functor,
)
from .coset import DEFAULT_BUDGET, CosetEnumeration, exponent_rank, invert_word
from .errors import InvalidFunctor, InvalidGroupoid, MalformedInput, NotUnitary
from . import linalg
from .linalg import (DEFAULT_TOL, Subspace, Tolerance, as_matrix, kron_stack,
                     split_pair_key)
from .simplicial import FiniteSimplicialSet, SimplexRef


# ---------------------------------------------------------------------------
# union-find and the composition-table check


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


def _components(objects, ends) -> list[list[str]]:
    """The classes of ``objects`` joined by the (src, tgt) pairs ``ends``."""
    classes = UnionFind(objects)
    for s, t in ends:
        classes.union(s, t)
    return classes.classes()


def _listed(value, what: str) -> list:
    """``value`` if it is a JSON list; else the ``TypeError`` that the file
    readers turn into ``MalformedInput``."""
    if not isinstance(value, list):
        raise TypeError(f"{what} must be a list")
    return value


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


# ---------------------------------------------------------------------------
# finite groupoids


class FiniteGroupoid:
    """Fully enumerated groupoid: arrows, composition table, inverses and
    identities, checked at construction for distinct object names, by
    ``check_composition_table`` (whose Light's test runs on arrow indices,
    not names) and by the two-sided inverse law.

    ``inverses`` is required: each constructor builds it with its tables,
    and the groupoid file names each arrow's ``inv``. Left out,
    ``identities`` is the first idempotent loop at each object.

    Construction also builds the endpoint index ``_ends``: (src, tgt) to the
    sorted names of the arrows src -> tgt. ``hom``, ``arrows_into``, the
    identity search and ``nerve`` read it instead of scanning every arrow.
    ``to_json`` walks the sorted arrows, and for each g the sorted arrows
    into src(g), so it writes ``compose`` in sorted order without sorting
    the pairs."""

    def __init__(self, objects, arrows, compose, inverses, identities=None,
                 check: bool = True):
        self.objects = list(objects)
        self.arrows = {name: (src, tgt) for name, (src, tgt) in arrows.items()}
        self.compose = dict(compose)
        self._ends: dict[tuple[str, str], list[str]] = {}
        for name in sorted(self.arrows):
            self._ends.setdefault(self.arrows[name], []).append(name)
        self.identities = identities if identities is not None else self._find_identities()
        self.inverses = inverses
        if check:
            self._validate()

    def _find_identities(self):
        """The first idempotent loop at each object in name order, or None:
        a groupoid has no other idempotent, and ``_validate`` checks it."""
        return {x: next((e for e in self.hom(x, x) if self.compose.get((e, e)) == e), None)
                for x in self.objects}

    def _validate(self):
        if len(set(self.objects)) != len(self.objects):
            raise InvalidGroupoid("duplicate object names")
        check_composition_table(self.objects, self.arrows, self.identities,
                                self.compose, InvalidGroupoid)
        if self.inverses.keys() != self.arrows.keys():
            raise InvalidGroupoid("the inverse map must name exactly one inverse per arrow")
        for f, g in self.inverses.items():
            src, tgt = self.arrows[f]
            if self.compose.get((g, f)) != self.identities[src] or \
                    self.compose.get((f, g)) != self.identities[tgt]:
                raise InvalidGroupoid(f"inverse of {f!r} fails the two-sided law")

    # -- structure -----------------------------------------------------------

    def hom(self, x: str, y: str) -> list[str]:
        return self._ends.get((x, y), [])

    def arrows_into(self, x: str) -> list[str]:
        """Carrier ordering of the regular representation: arrows with target
        x, sorted by (source name, arrow name)."""
        return [f for s, t in sorted(self._ends) if t == x for f in self._ends[(s, t)]]

    def components(self) -> list[list[str]]:
        return _components(self.objects, self.arrows.values())

    # -- serialization ----------------------------------------------------------

    def to_json(self) -> dict:
        """The groupoid file. ``compose`` walks the arrows g in sorted order
        and, for each, the sorted arrows f into src(g): since its keys are
        exactly the composable pairs, that is ``sorted(compose)``."""
        items = sorted(self.arrows.items())
        into = {}
        for f, (_src, tgt) in items:
            into.setdefault(tgt, []).append(f)
        compose = {f"{g}|{f}": self.compose[(g, f)]
                   for g, (src, _tgt) in items for f in into.get(src, ())}
        return {
            "objects": list(self.objects),
            "arrows": [{"name": f, "src": s, "tgt": t, "inv": self.inverses[f]}
                       for f, (s, t) in items],
            "compose": compose,
        }

    @classmethod
    def from_json(cls, data) -> "FiniteGroupoid":
        """Read a groupoid file; a JSON shape error raises ``MalformedInput``,
        a table that is not a groupoid ``InvalidGroupoid``. The ``"g|f"``
        keys are split in one pass; the first that does not split in two
        raises ``split_pair_key``'s error."""
        try:
            objects = _listed(data["objects"], "objects")
            arrows = {a["name"]: (a["src"], a["tgt"]) for a in _listed(data["arrows"], "arrows")}
            inverses = {a["name"]: a["inv"] for a in data["arrows"]}
            items = data["compose"].items()
            keys = list(map(itemgetter(0), items))
            bars = list(map(methodcaller("count", "|"), keys))
            if not set(bars) <= {1}:
                split_pair_key(next(key for key, n in zip(keys, bars) if n != 1))
            # each key holds one "|", so the joined keys split into their halves
            halves = iter("|".join(keys).split("|"))
            compose = dict(zip(zip(halves, halves), map(itemgetter(1), items)))
        except (AttributeError, KeyError, TypeError) as err:
            raise MalformedInput(f"groupoid file: {type(err).__name__}: {err}") from None
        names = [*objects, *arrows, *inverses.values(), *compose.values(),
                 *(end for ends in arrows.values() for end in ends)]
        if not all(map(isinstance, names, repeat(str))):
            raise MalformedInput("groupoid file: object and arrow names must be strings")
        if len(arrows) != len(data["arrows"]):
            raise InvalidGroupoid("duplicate arrow names")
        return cls(objects, arrows, compose, inverses)

    def __repr__(self):
        return f"FiniteGroupoid({len(self.objects)} objects, {len(self.arrows)} arrows)"


# ---------------------------------------------------------------------------
# constructors


def _arrow_name(x: str, h: int, y: str) -> str:
    return f"{x}>{h}>{y}"


def connected_groupoid(objects, group_table, check: bool = True) -> FiniteGroupoid:
    """The connected groupoid on the given objects with the given vertex
    group: arrows (x, h, y) named "x>h>y", composing through the group.

    Each name is formatted once, in the row of the n arrows x -> y;
    ``compose`` is keyed (y>h2>z, x>h1>y) in the order x, y, z, h1, h2 and
    looks its composites x>(h2 h1)>z up in the rows."""
    objects = list(objects)
    n = len(group_table)
    ident = next(i for i in range(n) if all(group_table[i][j] == j for j in range(n)))
    inv = {i: next(j for j in range(n)
                   if group_table[j][i] == ident and group_table[i][j] == ident)
           for i in range(n)}
    names = {(x, y): [_arrow_name(x, h, y) for h in range(n)]
             for x in objects for y in objects}
    arrows = {name: pair for pair, row in names.items() for name in row}
    # column h1 of the table: the products h2 h1, h2 = 0 .. n-1
    columns = [[row[h1] for row in group_table] for h1 in range(n)]
    compose = {}
    for x in objects:
        for y in objects:
            for z in objects:
                after, composite = names[(y, z)], names[(x, z)].__getitem__
                for f, column in zip(names[(x, y)], columns):
                    compose.update(zip(zip(after, repeat(f)), map(composite, column)))
    identities = {x: names[(x, x)][ident] for x in objects}
    inverses = {name: names[(y, x)][inv[h]]
                for (x, y), row in names.items() for h, name in enumerate(row)}
    return FiniteGroupoid(objects, arrows, compose, inverses, identities, check=check)


def disjoint_groupoid(parts) -> FiniteGroupoid:
    """Disjoint union of groupoids with pairwise disjoint object and arrow
    names: each table is the union of the parts' tables, in part order."""
    objects, arrows, compose, identities, inverses = [], {}, {}, {}, {}
    for part in parts:
        objects.extend(part.objects)
        arrows.update(part.arrows)
        compose.update(part.compose)
        identities.update(part.identities)
        inverses.update(part.inverses)
    return FiniteGroupoid(objects, arrows, compose, inverses, identities, check=False)


def cyclic_group_table(n: int):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def terminal_groupoid() -> FiniteGroupoid:
    """One object pt and its identity pt>0>pt."""
    return connected_groupoid(["pt"], [[0]])


def interval_groupoid() -> FiniteGroupoid:
    """Objects i0, i1 and one isomorphism i0>0>i1, with inverse i1>0>i0: the
    connected groupoid with trivial vertex group."""
    return connected_groupoid(["i0", "i1"], [[0]])


def cyclic_groupoid(n: int) -> FiniteGroupoid:
    """The group Z/n as a one-object groupoid, z>h>z standing for h."""
    return connected_groupoid(["z"], cyclic_group_table(n))


def product_groupoid(g1: FiniteGroupoid, g2: FiniteGroupoid) -> FiniteGroupoid:
    objects = [pair_name(x, y) for x in g1.objects for y in g2.objects]
    arrows = {pair_name(a, b): (pair_name(s1, s2), pair_name(t1, t2))
              for a, (s1, t1) in g1.arrows.items()
              for b, (s2, t2) in g2.arrows.items()}
    compose = {}
    for (a2, a1), ra in g1.compose.items():
        for (b2, b1), rb in g2.compose.items():
            compose[(pair_name(a2, b2), pair_name(a1, b1))] = pair_name(ra, rb)
    identities = {pair_name(x, y): pair_name(g1.identities[x], g2.identities[y])
                  for x in g1.objects for y in g2.objects}
    inverses = {pair_name(a, b): pair_name(g1.inverses[a], g2.inverses[b])
                for a in g1.arrows for b in g2.arrows}
    return FiniteGroupoid(objects, arrows, compose, inverses, identities, check=False)


@dataclass
class GroupoidFunctor:
    """The object and arrow maps of a functor between finite groupoids.
    ``induced_functor`` builds it and proves the functor laws."""

    source: FiniteGroupoid
    target: FiniteGroupoid
    object_map: dict
    arrow_map: dict

    def is_isomorphism(self) -> bool:
        objs = set(self.object_map.values())
        arrs = set(self.arrow_map.values())
        return len(objs) == len(self.target.objects) == len(self.object_map) and \
            len(arrs) == len(self.target.arrows) == len(self.arrow_map)


# ---------------------------------------------------------------------------
# the groupoid C*-category


@dataclass
class GroupoidCStar:
    """cstar_max output: the matrix category together with the embedding of
    the groupoid's arrows as unitaries."""

    groupoid: FiniteGroupoid
    category: MatCStarCategory
    embed: dict              # arrow name -> permutation matrix
    carrier: dict            # object name -> ordered list of arrows into it


def cstar_max(groupoid: FiniteGroupoid, tol: Tolerance = DEFAULT_TOL) -> GroupoidCStar:
    """The groupoid C*-category via the regular representation.

    Object x carries the free Hilbert space on the arrows into x; an arrow
    g: x -> y acts by post-composition, giving a permutation matrix. The hom
    space hom(x, y) is the span of the images of the arrows x -> y, whose
    dimension is exactly |G(x, y)|.
    """
    carrier = {x: groupoid.arrows_into(x) for x in groupoid.objects}
    index = {x: {f: i for i, f in enumerate(carrier[x])} for x in groupoid.objects}
    embed = {}
    for g, (x, y) in groupoid.arrows.items():
        mat = np.zeros((len(carrier[y]), len(carrier[x])), dtype=np.complex128)
        for h in carrier[x]:
            mat[index[y][groupoid.compose[(g, h)]], index[x][h]] = 1.0
        embed[g] = mat

    objects = [(x, len(carrier[x])) for x in groupoid.objects]
    # each pair's images are stacked before the next pair's are made
    homs = {(x, y): Subspace(len(carrier[y]), len(carrier[x]), basis)
            for (x, y), basis in _regular_hom_maps(groupoid, carrier, embed.__getitem__)}
    category = MatCStarCategory(objects, homs, tol=tol)
    return GroupoidCStar(groupoid, category, embed, carrier)


def _regular_hom_maps(groupoid: FiniteGroupoid, carrier: dict, image):
    """Yield, pair by pair, ((x, y), the images ``image(g)`` of the arrows
    x -> y scaled by 1/sqrt|carrier x|) for each pair with arrows: at that
    scale the regular representation's permutation matrices are an
    HS-orthonormal basis of hom(x, y), so these are the images of the
    stored hom basis."""
    for x in groupoid.objects:
        scale = 1.0 / np.sqrt(len(carrier[x]))
        for y in groupoid.objects:
            names = groupoid.hom(x, y)
            if names:
                yield (x, y), [image(g) * scale for g in names]


class UnitaryRep:
    """A functor from a groupoid into the unitaries of a matrix category:
    object assignment plus one unitary matrix per arrow, with functoriality
    and unitarity checked against the category's tolerance."""

    def __init__(self, groupoid: FiniteGroupoid, category: MatCStarCategory,
                 object_map: dict, arrow_map: dict):
        self.groupoid = groupoid
        self.category = category
        tol = category.tol
        self.object_map = dict(object_map)
        self.arrow_map = {}
        for g, (x, y) in groupoid.arrows.items():
            m = arrow_map.get(g)
            if m is None:
                raise InvalidFunctor(f"arrow {g!r} has no image")
            rows = category.obj(self.object_map[y]).dim
            cols = category.obj(self.object_map[x]).dim
            m = as_matrix(m, rows, cols)
            if not linalg.is_unitary(m, tol):
                raise NotUnitary(f"image of {g!r} is not unitary")
            if not category.hom(self.object_map[x], self.object_map[y]).contains(m, tol):
                raise InvalidFunctor(f"image of {g!r} leaves the hom space")
            self.arrow_map[g] = m
        for x, e in groupoid.identities.items():
            eye = category.identity(self.object_map[x])
            if not tol.close(self.arrow_map[e], eye):
                raise InvalidFunctor(f"identity at {x!r} not sent to 1")
        for (g, f), h in groupoid.compose.items():
            if not tol.close(self.arrow_map[g] @ self.arrow_map[f], self.arrow_map[h]):
                raise InvalidFunctor(f"composition {g!r}.{f!r} not preserved")


def regular_extension(gc: GroupoidCStar, target: MatCStarCategory, object_map: dict,
                      image) -> StarFunctor:
    """The *-functor out of ``gc.category`` on ``object_map`` that sends each
    arrow g to the matrix ``image(g)``, linearly on the regular basis; unchecked."""
    return StarFunctor(gc.category, target, object_map,
                       dict(_regular_hom_maps(gc.groupoid, gc.carrier, image)))


def adjunction_extend(gc: GroupoidCStar, rep: UnitaryRep) -> StarFunctor:
    """Extend a unitary representation of the groupoid to the *-functor out
    of its C*-category, linearly on the regular-representation basis."""
    if rep.groupoid is not gc.groupoid and rep.groupoid.arrows != gc.groupoid.arrows:
        raise InvalidFunctor("representation is of a different groupoid")
    return regular_extension(gc, rep.category, rep.object_map, rep.arrow_map.__getitem__)


def adjunction_restrict(gc: GroupoidCStar, functor: StarFunctor) -> UnitaryRep:
    """Restrict a *-functor out of the groupoid C*-category back to a unitary
    representation of the groupoid, along the arrow embedding."""
    arrow_map = {}
    for g, (x, y) in gc.groupoid.arrows.items():
        arrow_map[g] = functor.apply(x, y, gc.embed[g])
    return UnitaryRep(gc.groupoid, functor.target, dict(functor.object_map),
                      arrow_map)


# ---------------------------------------------------------------------------
# the monoidality comparison


@dataclass
class ComparisonVerdict:
    """The verdict on the comparison functor C*(G x H) -> C*(G) (x) C*(H).

    ``fully_faithful`` means that at every pair of objects the hom map has
    numerical rank equal to the dimension of its source hom and to the
    dimension of its target hom. ``bound`` is the composite bound of the
    tolerance the functor was built with."""

    objects_bijective: bool
    fully_faithful: bool
    functor_residual: float
    bound: float

    @property
    def isomorphism(self) -> bool:
        return self.objects_bijective and self.fully_faithful and \
            self.functor_residual <= self.bound


def comparison_functor(g1: FiniteGroupoid, g2: FiniteGroupoid,
                       tol: Tolerance = DEFAULT_TOL):
    """The canonical functor from the C*-category of a product groupoid to
    the tensor product of the factors' C*-categories, (a, b) -> a (x) b,
    together with the verdict certifying it is an isomorphism."""
    product = product_groupoid(g1, g2)
    gc = cstar_max(product, tol=tol)
    c1, c2 = cstar_max(g1, tol=tol), cstar_max(g2, tol=tol)
    tensor = tensor_max(c1.category, c2.category, check=False)

    factors = {pair_name(a1, a2): (a1, a2) for a1 in g1.arrows for a2 in g2.arrows}

    def image(a):
        a1, a2 = factors[a]
        return kron_stack(c1.embed[a1][None], c2.embed[a2][None])[0]

    object_map = {x: x for x in gc.category.object_names}
    functor = regular_extension(gc, tensor, object_map, image)

    objects_ok = len(gc.category.objects) == len(tensor.objects) and \
        set(object_map.values()) == set(tensor.object_names)
    fully_faithful = is_fully_faithful(functor)[0]
    residual = max((v.residual for v in validate_functor(functor)), default=0.0)
    return functor, ComparisonVerdict(objects_ok, fully_faithful, residual, tol.composite)


# ---------------------------------------------------------------------------
# finitely presented groupoids


@dataclass(frozen=True)
class FPWord:
    """Composable word of generator factors (gen, inverted), listed in
    composition order (leftmost applied last); empty = identity at src.
    ``presentations`` reads the flag as the adjoint, which for a unitary is
    the inverse."""

    src: str
    tgt: str
    factors: tuple = ()


class FPGroupoid:
    """Objects, generator arrows, and pairs of parallel words equated."""

    def __init__(self, objects, generators, relations=()):
        self.objects = list(objects)
        if len(set(self.objects)) != len(self.objects):
            raise InvalidGroupoid("duplicate object names")
        self.generators = {name: (src, tgt) for name, (src, tgt) in generators.items()}
        for name, (src, tgt) in self.generators.items():
            if src not in self.objects or tgt not in self.objects:
                raise InvalidGroupoid(f"generator {name!r} has undeclared endpoints")
        self.relations: list[tuple[FPWord, FPWord]] = []
        for lhs, rhs in relations:
            self._check_word(lhs)
            self._check_word(rhs)
            if (lhs.src, lhs.tgt) != (rhs.src, rhs.tgt):
                raise InvalidGroupoid("relation sides are not parallel")
            self.relations.append((lhs, rhs))

    def _check_word(self, word: FPWord):
        current = word.src
        for gen, inverted in reversed(word.factors):
            if gen not in self.generators:
                raise InvalidGroupoid(f"unknown generator {gen!r}")
            src, tgt = self.generators[gen]
            if inverted:
                src, tgt = tgt, src
            if src != current:
                raise InvalidGroupoid(f"word not composable at {gen!r}")
            current = tgt
        if current != word.tgt:
            raise InvalidGroupoid("word endpoints disagree")

    def components(self) -> list[list[str]]:
        return _components(self.objects, self.generators.values())

    def to_json(self) -> dict:
        def word_json(w):
            return {"src": w.src, "tgt": w.tgt,
                    "word": [{"gen": g, "inv": i} for g, i in w.factors]}

        return {
            "objects": list(self.objects),
            "generators": [{"name": n, "src": s, "tgt": t}
                           for n, (s, t) in sorted(self.generators.items())],
            "relations": [[word_json(l), word_json(r)] for l, r in self.relations],
        }

    @classmethod
    def from_json(cls, data) -> "FPGroupoid":
        """Read a presented-groupoid file; a JSON shape error raises
        ``MalformedInput``, a repeated name or a word that does not compose
        ``InvalidGroupoid``."""
        def letter(f):
            if type(f["inv"]) is not bool:
                raise TypeError(f"inv of {f!r} must be true or false")
            return f["gen"], f["inv"]

        def word(w):
            return FPWord(w["src"], w["tgt"],
                          tuple(letter(f) for f in _listed(w["word"], "word")))

        def relation(pair):
            lhs, rhs = _listed(pair, "relation")
            return word(lhs), word(rhs)

        try:
            objects = _listed(data["objects"], "objects")
            gens = {g["name"]: (g["src"], g["tgt"])
                    for g in _listed(data["generators"], "generators")}
            rels = [relation(pair) for pair in _listed(data.get("relations", []), "relations")]
        except (AttributeError, KeyError, TypeError, ValueError) as err:
            raise MalformedInput(f"fp-groupoid file: {type(err).__name__}: {err}") from None
        names = [*objects, *gens, *(end for ends in gens.values() for end in ends),
                 *(name for pair in rels for w in pair
                   for name in (w.src, w.tgt, *(gen for gen, _inv in w.factors)))]
        if not all(isinstance(name, str) for name in names):
            raise MalformedInput("fp-groupoid file: object and generator names must be strings")
        if len(gens) != len(data["generators"]):
            raise InvalidGroupoid("duplicate generator names")
        return cls(objects, gens, rels)

    def __repr__(self):
        return (f"FPGroupoid({len(self.objects)} objects, "
                f"{len(self.generators)} generators, {len(self.relations)} relations)")


def fundamental_groupoid(sset: FiniteSimplicialSet) -> FPGroupoid:
    """Objects are the vertices; generators the nondegenerate edges
    k: d1(k) -> d0(k); one relation d0(t) . d2(t) = d1(t) per nondegenerate
    triangle, with degenerate edges read as identities."""
    objects = sset.nondegenerate(0)
    generators = {}
    for name in sset.nondegenerate(1):
        ref = sset.ref(1, name)
        src = sset.face(ref, 1)
        tgt = sset.face(ref, 0)
        generators[name] = (src.base, tgt.base)

    def edge_factors(ref: SimplexRef):
        return () if ref.degenerate else ((ref.base, False),)

    def vertex_of(edge_ref: SimplexRef, which: int) -> str:
        if edge_ref.degenerate:
            return edge_ref.base
        return sset.face(edge_ref, which).base

    relations = []
    if sset.dim_cap >= 2:
        for name in sset.nondegenerate(2):
            ref = sset.ref(2, name)
            d0 = sset.face(ref, 0)
            d1 = sset.face(ref, 1)
            d2 = sset.face(ref, 2)
            v0 = vertex_of(d2, 1)
            v2 = vertex_of(d0, 0)
            lhs = FPWord(v0, v2, edge_factors(d0) + edge_factors(d2))
            rhs = FPWord(v0, v2, edge_factors(d1))
            relations.append((lhs, rhs))
    return FPGroupoid(objects, generators, relations)


# ---------------------------------------------------------------------------
# normalization of presented groupoids


@dataclass
class NormalizeResult:
    status: str                      # "finite" | "not_finite_within_bound"
    groupoid: FiniteGroupoid | None = None
    gen_arrow: dict | None = None    # FP generator -> arrow of the groupoid

    @property
    def finite(self) -> bool:
        return self.status == "finite"


def normalize_fp(pres: FPGroupoid, bound: int = DEFAULT_BUDGET) -> NormalizeResult:
    """Decide finiteness of a presented groupoid within a coset budget.

    Per component: pick a spanning tree, translate relations into the vertex
    group presentation (tree edges trivialized), enumerate cosets of the
    trivial subgroup, and rebuild the component as objects x fibers of the
    vertex group. Arrows are named "x>h>y" for group elements h. ``gen_arrow``
    sends each generator g: x -> y to x>h>y, h the coset of g's letter;
    these arrows generate the groupoid (see ``induced_functor``).

    Before enumerating, the abelianization is tested: when the exponent-sum
    matrix of the relators (tree edges and relations) has rational rank
    below the number of generators (``exponent_rank``), H_1 has a free
    summand, the vertex group is infinite, and no budget could complete.
    The verdict is still "not_finite_within_bound", the one the exhausted
    enumeration gives, so reports do not change; a separate "infinite"
    verdict would be a new report value.
    """
    enumerated = []
    for comp in pres.components():
        comp_set = set(comp)
        root = comp[0]
        gens = sorted(g for g, (s, t) in pres.generators.items() if s in comp_set)
        gen_index = {g: i for i, g in enumerate(gens)}

        # spanning tree: breadth-first, generators in name order, both directions
        seen = {root}
        tree = set()
        frontier = [root]
        while frontier:
            nxt = []
            for x in frontier:
                for g in gens:
                    src, tgt = pres.generators[g]
                    if src == x and tgt not in seen:
                        seen.add(tgt)
                        tree.add(g)
                        nxt.append(tgt)
                    elif tgt == x and src not in seen:
                        seen.add(src)
                        tree.add(g)
                        nxt.append(src)
            frontier = nxt

        def letters(factors):
            out = []
            for g, inverted in factors:
                out.append(2 * gen_index[g] + (1 if inverted else 0))
            return tuple(out)

        relators = [(2 * gen_index[g],) for g in sorted(tree)]
        for lhs, rhs in pres.relations:
            if lhs.src not in comp_set:
                continue
            relators.append(letters(lhs.factors) + invert_word(letters(rhs.factors)))

        if exponent_rank(len(gens), relators) < len(gens):
            # H_1 has a free summand, so no budget can complete
            return NormalizeResult("not_finite_within_bound")
        enum = CosetEnumeration(len(gens), relators, budget=bound)
        if not enum.run():
            return NormalizeResult("not_finite_within_bound")
        enumerated.append((comp, gens, enum))

    parts, gen_arrow = [], {}
    for comp, gens, enum in enumerated:
        order = enum.order()
        product = [[enum.multiply(h2, h1) for h1 in range(order)]
                   for h2 in range(order)]
        parts.append(connected_groupoid(comp, product, check=False))
        for i, g in enumerate(gens):
            src, tgt = pres.generators[g]
            gen_arrow[g] = _arrow_name(src, enum.act(0, (2 * i,)), tgt)
    return NormalizeResult("finite", disjoint_groupoid(parts), gen_arrow)


def induced_functor(src: NormalizeResult, tgt: NormalizeResult,
                    object_map: dict, gen_map: dict) -> GroupoidFunctor:
    """Transport a presentation-level morphism (vertices to vertices,
    generators to target generators or to identities) to a functor between
    the normalized finite groupoids.

    ``gen_map[g]`` is a target generator name, or None for identity images.
    A functor out of a groupoid is fixed by its images of generating arrows
    (P. J. Higgins, *Categories and Groupoids*, 1971): each generator arrow
    goes to its image, and its inverse to the inverse image. Every arrow is
    reached from the identities by composing with these steps, and its
    image is the composite of the images. An object map that misses the
    target and a ``gen_map`` that breaks a relation, wrong endpoints
    included, raise ``InvalidFunctor``.

    That proves the functor laws. Identities go to identities by
    construction. Every arrow g is a word of steps applied to the identity
    at its source, and F(s.f) = F(s).F(f) is checked for every step s out
    of every arrow f, so F(g.f) = F(g).F(f) by induction on the word:
    F(s.g'.f) = F(s).F(g'.f) = F(s).F(g').F(f) = F(s.g').F(f). The walk
    reaches every arrow, as ``normalize_fp``'s ``gen_arrow`` generates the
    groupoid, and gives each the right endpoints: for each step s: x -> y
    it checks 1_x = s^-1.(s.1_x) and 1_y = s.(s^-1.1_y), where a composite
    that does not exist reads None and equals no identity, so F(s) runs
    F(x) -> F(y), and so does every composite of step images.
    """
    source, target = src.groupoid, tgt.groupoid
    for x in source.objects:
        if object_map.get(x) not in target.objects:
            raise InvalidFunctor(f"object {x!r} unmapped")
    steps = {x: [] for x in source.objects}   # (step arrow, its image) by source
    for g, arrow in src.gen_arrow.items():
        x, y = source.arrows[arrow]
        image = gen_map.get(g)
        image = target.identities[object_map[x]] if image is None else tgt.gen_arrow[image]
        steps[x].append((arrow, image))
        steps[y].append((source.inverses[arrow], target.inverses[image]))
    arrow_map = {e: target.identities[object_map[x]] for x, e in source.identities.items()}
    pending = list(arrow_map)
    while pending:
        f = pending.pop()
        for step, image in steps[source.arrows[f][1]]:
            h = source.compose[(step, f)]
            value = target.compose.get((image, arrow_map[f]))
            if h not in arrow_map:
                arrow_map[h] = value
                pending.append(h)
            elif arrow_map[h] != value:
                raise InvalidFunctor(f"the generator images break a relation at {h!r}")
    return GroupoidFunctor(source, target, dict(object_map), arrow_map)


# ---------------------------------------------------------------------------
# the nerve


def nerve(groupoid: FiniteGroupoid, dim_cap: int) -> FiniteSimplicialSet:
    """Composable strings of arrows; nondegenerate simplices are the strings
    with no identity factor, with faces by dropping or composing. A face
    whose middle composite is an identity is the degeneracy of the string
    with both factors dropped.

    Each dimension is one ``add_level`` call, so its face checks run once
    per distinct face ref. A string is named by its parent's name (the
    string without its last arrow), "|" and its last arrow."""
    out = FiniteSimplicialSet(dim_cap)
    out.add_level(0, ((x, ()) for x in groupoid.objects))
    if dim_cap == 0:
        return out

    arrows, compose = groupoid.arrows, groupoid.compose
    idents = set(groupoid.identities.values())
    nonident = sorted(a for a in arrows if a not in idents)
    # sorted like nonident, so each level's chains come out in sorted order
    nonident_from = {x: [] for x in groupoid.objects}
    for a in nonident:
        nonident_from[arrows[a][0]].append(a)

    # chains are tuples (g1, ..., gn) in path order: src(g_{i+1}) == tgt(g_i);
    # refs maps each nondegenerate chain of the level below to its ref, and
    # lower each chain of the level two below
    vertices = {x: SimplexRef(x, 0) for x in groupoid.objects}

    def strings(dim, refs, lower, level):
        """The (name, faces) of each string of ``dim`` arrows, recording its
        ref in ``level``. A string is its parent (the string without its
        last arrow) and one more arrow a; its faces d_1 .. d_{dim-2} compose
        two arrows of the parent, so they are read once per parent."""
        for parent, parent_ref in refs.items():
            head, init = parent[1:], parent[:-1]
            # (is the composite an identity, the chain of the face without a)
            middle = []
            for i in range(1, dim - 1):
                composite = compose[(parent[i], parent[i - 1])]
                if composite in idents:
                    # g_{i+1} g_i = 1: s_{i-1} of the string without both
                    middle.append((True, parent[:i - 1] + parent[i + 1:]))
                else:
                    middle.append((False, parent[:i - 1] + (composite,) + parent[i + 1:]))
            for a in nonident_from[arrows[parent[-1]][1]]:
                faces = [refs[head + (a,)]]
                for j, (degenerate, chain) in enumerate(middle):
                    if degenerate:
                        faces.append(lower[chain + (a,)].degenerate_by(j))
                    else:
                        faces.append(refs[chain + (a,)])
                composite = compose[(a, parent[-1])]
                if composite in idents:
                    # a g_{dim-1} = 1: s_{dim-2} of the string without both,
                    # which for dim 2 is the vertex src(g1)
                    base = lower[init] if init else vertices[arrows[parent[0]][0]]
                    faces.append(base.degenerate_by(dim - 2))
                else:
                    faces.append(refs[init + (composite,)])
                faces.append(parent_ref)
                name = parent_ref.base + "|" + a
                level[parent + (a,)] = SimplexRef(name, dim)
                yield name, faces

    out.add_level(1, ((a, (vertices[arrows[a][1]], vertices[arrows[a][0]]))
                      for a in nonident))
    refs, lower = {(a,): SimplexRef(a, 1) for a in nonident}, {}
    for dim in range(2, dim_cap + 1):
        if not refs:
            break
        level = {}
        out.add_level(dim, strings(dim, refs, lower, level))
        refs, lower = level, refs
    return out
