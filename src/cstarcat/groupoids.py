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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .categories import (
    MatCStarCategory,
    StarFunctor,
    hom_map_ranks,
    pair_name,
    tensor_max,
    validate_functor,
)
from .coset import DEFAULT_BUDGET, CosetEnumeration, invert_word
from .errors import InvalidFunctor, InvalidGroupoid, MalformedInput, NotUnitary
from . import linalg
from .linalg import DEFAULT_TOL, Subspace, Tolerance, as_matrix, split_pair_key
from .presentations import UnionFind, check_composition_table
from .simplicial import FiniteSimplicialSet, SimplexRef


class FiniteGroupoid:
    """Fully enumerated groupoid: arrows, composition table, inverses and
    identities, checked at construction by ``check_composition_table`` and
    the two-sided inverse law.

    Construction also builds the endpoint index ``_ends``: (src, tgt) to the
    sorted names of the arrows src -> tgt. ``hom``, ``arrows_into``, the
    identity and inverse searches and ``nerve`` read it instead of scanning
    every arrow."""

    def __init__(self, objects, arrows, compose, identities=None, inverses=None,
                 check: bool = True):
        self.objects = list(objects)
        self.arrows = {name: (src, tgt) for name, (src, tgt) in arrows.items()}
        self.compose = dict(compose)
        self._ends: dict[tuple[str, str], list[str]] = {}
        for name in sorted(self.arrows):
            self._ends.setdefault(self.arrows[name], []).append(name)
        self.identities = identities if identities is not None else self._find_identities()
        self.inverses = inverses if inverses is not None else self._find_inverses()
        if check:
            self._validate()

    def _find_identities(self):
        out = {}
        for x in self.objects:
            into = [f for (_s, t), names in self._ends.items() if t == x for f in names]
            outof = [f for (s, _t), names in self._ends.items() if s == x for f in names]
            for e in self.hom(x, x):
                if all(self.compose.get((e, f)) == f for f in into) and \
                        all(self.compose.get((f, e)) == f for f in outof):
                    out[x] = e
                    break
            else:
                raise InvalidGroupoid(f"object {x!r} has no identity arrow")
        return out

    def _find_inverses(self):
        out = {}
        for f, (src, tgt) in self.arrows.items():
            for g in self.hom(tgt, src):
                if self.compose.get((g, f)) == self.identities[src] and \
                        self.compose.get((f, g)) == self.identities[tgt]:
                    out[f] = g
                    break
            else:
                raise InvalidGroupoid(f"arrow {f!r} has no two-sided inverse")
        return out

    def _validate(self):
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
        classes = UnionFind(self.objects)
        for s, t in self.arrows.values():
            classes.union(s, t)
        return classes.classes()

    def vertex_group_table(self, x: str):
        """(element arrow names, multiplication table of index pairs)."""
        elems = self.hom(x, x)
        index = {f: i for i, f in enumerate(elems)}
        table = [[index[self.compose[(g, f)]] for f in elems] for g in elems]
        return elems, table

    def is_isomorphic_to(self, other: "FiniteGroupoid") -> bool:
        """Isomorphism of finite groupoids: components match up to a
        bijection preserving object counts and vertex group isomorphism
        type (connected groupoids are determined by these two data)."""
        mine = [(len(comp), self.vertex_group_table(comp[0])[1])
                for comp in self.components()]
        theirs = [(len(comp), other.vertex_group_table(comp[0])[1])
                  for comp in other.components()]
        if len(mine) != len(theirs):
            return False
        used = [False] * len(theirs)
        for size, table in mine:
            for j, (osize, otable) in enumerate(theirs):
                if used[j] or size != osize:
                    continue
                if _group_tables_isomorphic(table, otable):
                    used[j] = True
                    break
            else:
                return False
        return True

    # -- serialization ----------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "objects": list(self.objects),
            "arrows": [{"name": f, "src": s, "tgt": t, "inv": self.inverses[f]}
                       for f, (s, t) in sorted(self.arrows.items())],
            "compose": {f"{g}|{f}": h for (g, f), h in sorted(self.compose.items())},
        }

    @classmethod
    def from_json(cls, data) -> "FiniteGroupoid":
        """Read a groupoid file; a JSON shape error raises ``MalformedInput``,
        a table that is not a groupoid ``InvalidGroupoid``."""
        try:
            objects = list(data["objects"])
            arrows = {a["name"]: (a["src"], a["tgt"]) for a in data["arrows"]}
            inverses = {a["name"]: a["inv"] for a in data["arrows"]}
            compose = {split_pair_key(key): h for key, h in data["compose"].items()}
        except (AttributeError, KeyError, TypeError) as err:
            raise MalformedInput(f"groupoid file: {type(err).__name__}: {err}") from None
        names = [*objects, *arrows, *inverses.values(), *compose.values(),
                 *(end for ends in arrows.values() for end in ends)]
        if not all(isinstance(name, str) for name in names):
            raise MalformedInput("groupoid file: object and arrow names must be strings")
        return cls(objects, arrows, compose, inverses=inverses)

    def __repr__(self):
        return f"FiniteGroupoid({len(self.objects)} objects, {len(self.arrows)} arrows)"


def _element_orders(table) -> list[int]:
    n = len(table)
    ident = next(i for i in range(n) if all(table[i][j] == j for j in range(n)))
    orders = []
    for i in range(n):
        k, acc = 1, i
        while acc != ident:
            acc = table[acc][i]
            k += 1
        orders.append(k)
    return orders


def _group_tables_isomorphic(t1, t2) -> bool:
    """Backtracking isomorphism test for small multiplication tables."""
    n = len(t1)
    if len(t2) != n:
        return False
    o1, o2 = _element_orders(t1), _element_orders(t2)
    if sorted(o1) != sorted(o2):
        return False
    ident1 = o1.index(1)
    ident2 = o2.index(1)
    mapping = {ident1: ident2}
    used = {ident2}

    def extend(i):
        if i == n:
            return all(
                mapping[t1[a][b]] == t2[mapping[a]][mapping[b]]
                for a in range(n) for b in range(n))
        if i in mapping:
            return extend(i + 1)
        for cand in range(n):
            if cand in used or o2[cand] != o1[i]:
                continue
            mapping[i] = cand
            used.add(cand)
            consistent = all(
                mapping[t1[a][b]] == t2[mapping[a]][mapping[b]]
                for a in mapping for b in mapping
                if t1[a][b] in mapping)
            if consistent and extend(i + 1):
                return True
            del mapping[i]
            used.discard(cand)
        return False

    return extend(0)


# ---------------------------------------------------------------------------
# constructors


def _arrow_name(x: str, h: int, y: str) -> str:
    return f"{x}>{h}>{y}"


def connected_groupoid(objects, group_table, check: bool = True) -> FiniteGroupoid:
    """The connected groupoid on the given objects with the given vertex
    group: arrows (x, h, y) named "x>h>y", composing through the group."""
    objects = list(objects)
    n = len(group_table)
    ident = next(i for i in range(n) if all(group_table[i][j] == j for j in range(n)))
    inv = {i: next(j for j in range(n)
                   if group_table[j][i] == ident and group_table[i][j] == ident)
           for i in range(n)}
    arrows, compose = {}, {}
    for x in objects:
        for y in objects:
            for h in range(n):
                arrows[_arrow_name(x, h, y)] = (x, y)
    for x in objects:
        for y in objects:
            for z in objects:
                for h1 in range(n):
                    for h2 in range(n):
                        compose[(_arrow_name(y, h2, z), _arrow_name(x, h1, y))] = \
                            _arrow_name(x, group_table[h2][h1], z)
    identities = {x: _arrow_name(x, ident, x) for x in objects}
    inverses = {_arrow_name(x, h, y): _arrow_name(y, inv[h], x)
                for x in objects for y in objects for h in range(n)}
    return FiniteGroupoid(objects, arrows, compose, identities, inverses, check=check)


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
    return FiniteGroupoid(objects, arrows, compose, identities, inverses, check=False)


def cyclic_group_table(n: int):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def terminal_groupoid() -> FiniteGroupoid:
    return FiniteGroupoid(["pt"], {"id": ("pt", "pt")}, {("id", "id"): "id"})


def interval_groupoid() -> FiniteGroupoid:
    """Two objects i0, i1 and a single isomorphism u between them."""
    arrows = {"e0": ("i0", "i0"), "e1": ("i1", "i1"),
              "u": ("i0", "i1"), "u_inv": ("i1", "i0")}
    compose = {
        ("e0", "e0"): "e0", ("e1", "e1"): "e1",
        ("u", "e0"): "u", ("e1", "u"): "u",
        ("u_inv", "e1"): "u_inv", ("e0", "u_inv"): "u_inv",
        ("u_inv", "u"): "e0", ("u", "u_inv"): "e1",
    }
    return FiniteGroupoid(["i0", "i1"], arrows, compose)


def cyclic_groupoid(n: int) -> FiniteGroupoid:
    """The group Z/n as a one-object groupoid with arrows g0..g(n-1)."""
    arrows = {f"g{i}": ("z", "z") for i in range(n)}
    compose = {(f"g{i}", f"g{j}"): f"g{(i + j) % n}"
               for i in range(n) for j in range(n)}
    return FiniteGroupoid(["z"], arrows, compose)


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
    return FiniteGroupoid(objects, arrows, compose, identities, inverses, check=False)


class GroupoidFunctor:
    """Object and arrow maps preserving sources, targets, identities and
    composition; all laws checked exhaustively."""

    def __init__(self, source: FiniteGroupoid, target: FiniteGroupoid,
                 object_map: dict, arrow_map: dict):
        self.source = source
        self.target = target
        self.object_map = dict(object_map)
        self.arrow_map = dict(arrow_map)
        self._validate()

    def _validate(self):
        for x in self.source.objects:
            if self.object_map.get(x) not in self.target.objects:
                raise InvalidFunctor(f"object {x!r} unmapped")
        for f, (s, t) in self.source.arrows.items():
            img = self.arrow_map.get(f)
            if img is None or self.target.arrows.get(img) != \
                    (self.object_map[s], self.object_map[t]):
                raise InvalidFunctor(f"arrow {f!r} unmapped or endpoint-breaking")
        for x, e in self.source.identities.items():
            if self.arrow_map[e] != self.target.identities[self.object_map[x]]:
                raise InvalidFunctor(f"identity at {x!r} not preserved")
        for (g, f), h in self.source.compose.items():
            if self.target.compose[(self.arrow_map[g], self.arrow_map[f])] != \
                    self.arrow_map[h]:
                raise InvalidFunctor(f"composition {g!r}.{f!r} not preserved")

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
    for x in groupoid.objects:
        if not carrier[x]:
            raise InvalidGroupoid(f"object {x!r} has no identity arrow")

    embed = {}
    for g, (x, y) in groupoid.arrows.items():
        mat = np.zeros((len(carrier[y]), len(carrier[x])), dtype=np.complex128)
        for h in carrier[x]:
            mat[index[y][groupoid.compose[(g, h)]], index[x][h]] = 1.0
        embed[g] = mat

    objects = [(x, len(carrier[x])) for x in groupoid.objects]
    homs = {(x, y): Subspace(len(carrier[y]), len(carrier[x]), basis, tol=tol, _trusted=True)
            for (x, y), basis in _regular_hom_maps(groupoid, carrier, embed.__getitem__).items()}
    category = MatCStarCategory(objects, homs, tol=tol)
    return GroupoidCStar(groupoid, category, embed, carrier)


def _regular_hom_maps(groupoid: FiniteGroupoid, carrier: dict, image) -> dict:
    """For each pair (x, y) with arrows x -> y, the images ``image(g)`` of
    those arrows scaled by 1/sqrt|carrier x|: at that scale the regular
    representation's permutation matrices are an HS-orthonormal basis of
    hom(x, y), so these are the images of the stored hom basis."""
    out = {}
    for x in groupoid.objects:
        scale = 1.0 / np.sqrt(len(carrier[x]))
        for y in groupoid.objects:
            names = groupoid.hom(x, y)
            if names:
                out[(x, y)] = [image(g) * scale for g in names]
    return out


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


def adjunction_extend(gc: GroupoidCStar, rep: UnitaryRep) -> StarFunctor:
    """Extend a unitary representation of the groupoid to the *-functor out
    of its C*-category, linearly on the regular-representation basis."""
    if rep.groupoid is not gc.groupoid:
        if rep.groupoid.arrows != gc.groupoid.arrows:
            raise InvalidFunctor("representation is of a different groupoid")
    hom_maps = _regular_hom_maps(gc.groupoid, gc.carrier, rep.arrow_map.__getitem__)
    return StarFunctor(gc.category, rep.category, dict(rep.object_map), hom_maps,
                       tol=gc.category.tol)


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
        return np.kron(c1.embed[a1], c2.embed[a2])

    object_map = {x: x for x in gc.category.object_names}
    hom_maps = _regular_hom_maps(product, gc.carrier, image)
    functor = StarFunctor(gc.category, tensor, object_map, hom_maps, tol=tol)

    objects_ok = len(gc.category.objects) == len(tensor.objects) and \
        set(object_map.values()) == set(tensor.object_names)
    fully_faithful = all(rank == sdim == tdim
                         for _x, _y, sdim, tdim, rank in hom_map_ranks(functor))
    residual = max((v.residual for v in validate_functor(functor)), default=0.0)
    return functor, ComparisonVerdict(objects_ok, fully_faithful, residual, tol.composite)


# ---------------------------------------------------------------------------
# finitely presented groupoids


@dataclass(frozen=True)
class FPWord:
    """Composable word of generator factors (gen, inverted), listed in
    composition order (leftmost applied last); empty = identity at src."""

    src: str
    tgt: str
    factors: tuple = ()


class FPGroupoid:
    """Objects, generator arrows, and pairs of parallel words equated."""

    def __init__(self, objects, generators, relations=()):
        self.objects = list(objects)
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
        classes = UnionFind(self.objects)
        for s, t in self.generators.values():
            classes.union(s, t)
        return classes.classes()

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
        ``MalformedInput``, a word that does not compose ``InvalidGroupoid``."""
        def word(w):
            return FPWord(w["src"], w["tgt"],
                          tuple((f["gen"], f["inv"]) for f in w["word"]))

        try:
            objects = list(data["objects"])
            gens = {g["name"]: (g["src"], g["tgt"]) for g in data["generators"]}
            rels = [(word(l), word(r)) for l, r in data.get("relations", [])]
        except (AttributeError, KeyError, TypeError, ValueError) as err:
            raise MalformedInput(f"fp-groupoid file: {type(err).__name__}: {err}") from None
        names = [*objects, *gens, *(end for ends in gens.values() for end in ends),
                 *(name for pair in rels for w in pair
                   for name in (w.src, w.tgt, *(gen for gen, _inv in w.factors)))]
        if not all(isinstance(name, str) for name in names):
            raise MalformedInput("fp-groupoid file: object and generator names must be strings")
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
    bound: int
    groupoid: FiniteGroupoid | None = None
    gen_arrow: dict | None = None    # FP generator -> arrow of the groupoid
    arrow_words: dict | None = None  # arrow -> FPWord over the presentation

    @property
    def finite(self) -> bool:
        return self.status == "finite"


def _invert_factors(factors):
    return tuple((g, not inv) for g, inv in reversed(factors))


def normalize_fp(pres: FPGroupoid, bound: int = DEFAULT_BUDGET) -> NormalizeResult:
    """Decide finiteness of a presented groupoid within a coset budget.

    Per component: pick a spanning tree, translate relations into the vertex
    group presentation (tree edges trivialized), enumerate cosets of the
    trivial subgroup, and rebuild the component as objects x fibers of the
    vertex group. Arrows are named "x>h>y" for group elements h.
    """
    comp_payloads = []
    for comp in pres.components():
        comp_set = set(comp)
        root = comp[0]
        gens = sorted(g for g, (s, t) in pres.generators.items() if s in comp_set)
        gen_index = {g: i for i, g in enumerate(gens)}

        # spanning tree: breadth-first, generators in name order, both directions
        path = {root: ()}
        tree = set()
        frontier = [root]
        while frontier:
            nxt = []
            for x in frontier:
                for g in gens:
                    src, tgt = pres.generators[g]
                    if src == x and tgt not in path:
                        path[tgt] = ((g, False),) + path[x]
                        tree.add(g)
                        nxt.append(tgt)
                    elif tgt == x and src not in path:
                        path[src] = ((g, True),) + path[x]
                        tree.add(g)
                        nxt.append(src)
            frontier = nxt
        if set(path) != comp_set:
            raise InvalidGroupoid("component connectivity bookkeeping failed")

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

        enum = CosetEnumeration(len(gens), relators, budget=bound)
        if not enum.run():
            return NormalizeResult("not_finite_within_bound", bound)
        comp_payloads.append((comp, gens, gen_index, path, enum))

    parts, gen_arrow, arrow_words = [], {}, {}
    for comp, gens, gen_index, path, enum in comp_payloads:
        order = enum.order()
        words = enum.words()
        product = [[enum.multiply(h2, h1) for h1 in range(order)]
                   for h2 in range(order)]
        parts.append(connected_groupoid(comp, product, check=False))
        for g in gens:
            src, tgt = pres.generators[g]
            h = enum.act(0, (2 * gen_index[g],))
            gen_arrow[g] = _arrow_name(src, h, tgt)

        # expansion of group letters into presentation words, for transport
        def letter_factors(letter):
            g = gens[letter // 2]
            src, tgt = pres.generators[g]
            if letter % 2 == 0:
                return _invert_factors(path[tgt]) + ((g, False),) + path[src]
            return _invert_factors(path[src]) + ((g, True),) + path[tgt]

        for x in comp:
            for y in comp:
                for h in range(order):
                    factors = path[y]
                    for letter in words[h]:
                        factors = factors + letter_factors(letter)
                    factors = factors + _invert_factors(path[x])
                    arrow_words[_arrow_name(x, h, y)] = FPWord(x, y, factors)
    return NormalizeResult("finite", bound, disjoint_groupoid(parts), gen_arrow, arrow_words)


def eval_fp_word(groupoid: FiniteGroupoid, gen_arrow: dict, word: FPWord,
                 start: str) -> str:
    """Evaluate a presentation word in a finite groupoid along a generator
    assignment, starting from the identity at ``start``."""
    current = groupoid.identities[start]
    for g, inverted in reversed(word.factors):
        arrow = gen_arrow[g]
        if inverted:
            arrow = groupoid.inverses[arrow]
        current = groupoid.compose[(arrow, current)]
    return current


def induced_functor(src: NormalizeResult, tgt: NormalizeResult,
                    object_map: dict, gen_map: dict) -> GroupoidFunctor:
    """Transport a presentation-level morphism (vertices to vertices,
    generators to target generators or to identities) to a functor between
    the normalized finite groupoids.

    ``gen_map[g]`` is a target generator name, or None for identity images.
    """
    target_gen_arrow = dict(tgt.gen_arrow)
    arrow_map = {}
    for arrow, word in src.arrow_words.items():
        x = word.src
        factors = []
        for g, inverted in word.factors:
            image = gen_map.get(g)
            if image is None:
                continue
            factors.append((image, inverted))
        mapped = FPWord(object_map[x], object_map[word.tgt], tuple(factors))
        arrow_map[arrow] = eval_fp_word(tgt.groupoid, target_gen_arrow, mapped,
                                        object_map[x])
    return GroupoidFunctor(src.groupoid, tgt.groupoid, object_map, arrow_map)


# ---------------------------------------------------------------------------
# the nerve


def nerve(groupoid: FiniteGroupoid, dim_cap: int) -> FiniteSimplicialSet:
    """Composable strings of arrows; nondegenerate simplices are the strings
    with no identity factor, with faces by dropping or composing. A face
    whose middle composite is an identity is the degeneracy of the string
    with both factors dropped."""
    out = FiniteSimplicialSet(dim_cap)
    for x in groupoid.objects:
        out.add_simplex(0, x)
    if dim_cap == 0:
        return out

    arrows, compose = groupoid.arrows, groupoid.compose
    idents = set(groupoid.identities.values())
    nonident = sorted(a for a in arrows if a not in idents)
    nonident_from = {x: [a for y in groupoid.objects for a in groupoid.hom(x, y)
                         if a not in idents] for x in groupoid.objects}

    # chains are tuples (g1, ..., gn) in path order: src(g_{i+1}) == tgt(g_i);
    # refs maps each nondegenerate chain of the level below to its ref, and
    # lower each chain of the level two below
    refs, lower = {}, {}
    for a in nonident:
        src, tgt = arrows[a]
        out.add_simplex(1, a, (SimplexRef(tgt, 0), SimplexRef(src, 0)))
        refs[(a,)] = SimplexRef(a, 1)
    for dim in range(2, dim_cap + 1):
        if not refs:
            break
        level = {}
        for chain in sorted(chain + (a,) for chain in refs
                            for a in nonident_from[arrows[chain[-1]][1]]):
            faces = [refs[chain[1:]]]
            for i in range(1, dim):
                composite = compose[(chain[i], chain[i - 1])]
                if composite in idents:
                    # g_{i+1} g_i = 1: s_{i-1} of the string without both,
                    # which for dim 2 is the vertex src(g1)
                    rest = chain[:i - 1] + chain[i + 1:]
                    base = lower[rest] if rest else SimplexRef(arrows[chain[0]][0], 0)
                    faces.append(base.degenerate_by(i - 1))
                else:
                    faces.append(refs[chain[:i - 1] + (composite,) + chain[i + 1:]])
            faces.append(refs[chain[:-1]])
            name = "|".join(chain)
            out.add_simplex(dim, name, faces)
            level[chain] = SimplexRef(name, dim)
        refs, lower = level, refs
    return out
