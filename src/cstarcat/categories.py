"""Concrete finite-dimensional C*-categories and their *-functors.

A category here is a finite set of named objects, each carrying a Hilbert
dimension, with every hom space a subspace of complex matrices that is
unital, closed under adjoints and closed under composition (all within
tolerance). Functors are given by an object map plus, for every source hom
pair, the list of images of the stored hom basis; everything else follows by
linearity.

Includes polar unitarization, an exact test for unitary isomorphism,
spaces of bounded natural transformations (solved as one linear system),
maximal tensor products via Kronecker blocks, and the exponential law.

A natural transformation F -> G is a block-diagonal matrix from the carrier
of F, the direct sum of the F(x), to that of G. So the full subcategory of
the Ghez-Lima-Roberts C*-category C*(B, C) on finitely many functors is
itself a ``MatCStarCategory`` (``FunctorCategory``): its arrows compose,
adjoin and take the sup norm as matrices, and ``validate_category`` checks
it. ``curry`` transposes F: A (x) B -> C into a *-functor A -> C*(B, C) that
``validate_functor`` checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidCategory,
    InvalidFunctor,
    InvalidMatrix,
    MalformedInput,
    NotInvertible,
    NotParallel,
    SingularOperand,
)
from . import linalg
from .light import LightClosure, functor_certified, worth_certifying
from .linalg import (
    DEFAULT_TOL,
    Subspace,
    Tolerance,
    as_matrix,
    find_invertible,
    herm_funcalc,
    hs_norm,
    kernel_rows,
    matrix_from_json,
    matrix_to_json,
    smallest_singular_value,
    split_pair_key,
    stack_matrices,
    subspace_span,
)


@dataclass(frozen=True)
class MatObject:
    name: str
    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise InvalidCategory(f"object {self.name!r} must have dim >= 1")


class MatCStarCategory:
    """Finite set of objects with Hilbert dimensions; each hom a subspace of
    dim(y) x dim(x) matrices."""

    def __init__(self, objects, homs, tol: Tolerance = DEFAULT_TOL):
        self.tol = tol
        self.objects = [o if isinstance(o, MatObject) else MatObject(*o)
                        for o in objects]
        names = [o.name for o in self.objects]
        if len(set(names)) != len(names):
            raise InvalidCategory("duplicate object names")
        self._by_name = {o.name: o for o in self.objects}
        self.homs: dict[tuple[str, str], Subspace] = {}
        for (x, y), space in homs.items():
            rx, ry = self._by_name.get(x), self._by_name.get(y)
            if rx is None or ry is None:
                raise InvalidCategory(f"hom ({x},{y}) references unknown objects")
            if not isinstance(space, Subspace):
                space = subspace_span(list(space), ambient_shape=(ry.dim, rx.dim), tol=tol)
            if space.shape != (ry.dim, rx.dim):
                raise InvalidCategory(f"hom ({x},{y}) has ambient shape {space.shape}, "
                                      f"expected {(ry.dim, rx.dim)}")
            if space.dim:
                self.homs[(x, y)] = space

    # -- access -------------------------------------------------------------

    @property
    def object_names(self) -> list[str]:
        return [o.name for o in self.objects]

    def obj(self, name: str) -> MatObject:
        try:
            return self._by_name[name]
        except KeyError:
            raise InvalidCategory(f"unknown object {name!r}") from None

    def hom(self, x: str, y: str) -> Subspace:
        space = self.homs.get((x, y))
        if space is None:
            space = Subspace(self.obj(y).dim, self.obj(x).dim, [], tol=self.tol)
        return space

    def identity(self, x: str) -> np.ndarray:
        return np.eye(self.obj(x).dim, dtype=np.complex128)

    def pairs(self):
        for x in self.object_names:
            for y in self.object_names:
                yield (x, y)

    # -- serialization --------------------------------------------------------

    def to_json(self) -> dict:
        homs = {}
        for x, y in self.pairs():
            space = self.homs.get((x, y))
            if space is not None:
                homs[f"{x}|{y}"] = matrix_to_json(space.basis)
        return {
            "objects": [{"name": o.name, "dim": o.dim} for o in self.objects],
            "homs": homs,
        }

    @classmethod
    def from_json(cls, data, tol: Tolerance = DEFAULT_TOL) -> "MatCStarCategory":
        """Read a category file; a JSON shape error raises ``MalformedInput``,
        objects or homs that do not fit ``InvalidCategory``."""
        try:
            objects = [(o["name"], o["dim"]) for o in data["objects"]]
            hom_data = [(key, list(mats)) for key, mats in data.get("homs", {}).items()]
        except (AttributeError, KeyError, TypeError) as err:
            raise MalformedInput(f"category file: {type(err).__name__}: {err}") from None
        if not all(isinstance(name, str) and type(dim) is int for name, dim in objects):
            raise MalformedInput("category file: object names must be strings "
                                 "and dims integers")
        objects = [MatObject(name, dim) for name, dim in objects]
        dims = {o.name: o.dim for o in objects}
        homs = {}
        for key, mats in hom_data:
            x, y = split_pair_key(key)
            if x not in dims or y not in dims:
                raise MalformedInput(f"hom key {key!r} names an undeclared object")
            basis = [matrix_from_json(m) for m in mats]
            try:
                homs[(x, y)] = Subspace(dims[y], dims[x], basis, tol=tol)
            except InvalidMatrix:
                homs[(x, y)] = subspace_span(basis, ambient_shape=(dims[y], dims[x]), tol=tol)
        return cls(objects, homs, tol=tol)

    def __repr__(self):
        return f"MatCStarCategory({self.object_names})"


@dataclass
class Violation:
    kind: str
    where: tuple
    residual: float
    detail: str = ""


def _batch_residuals(flat: np.ndarray, rows: np.ndarray,
                     rows_h: np.ndarray) -> np.ndarray:
    """HS distances of a stack of flattened matrices from the span of the
    orthonormal ``rows`` (a subspace's ``_rows``, possibly empty), with
    ``rows_h = rows.conj().T`` computed once by the caller."""
    return np.linalg.norm(flat - (flat @ rows_h) @ rows, axis=1)


def _basis_products(b: np.ndarray, first: np.ndarray) -> np.ndarray:
    """The products b . a_i of one matrix with a stack of matrices, one
    flattened row per i: the product kernel of both exhaustive loops, which
    call it once per element b_j of the second basis so that memory stays
    that of one row of products."""
    return (b @ first).reshape(len(first), -1)


def validate_category(cat: MatCStarCategory) -> list[Violation]:
    """Check unitality, adjoint closure and composition closure; an empty
    report means the data is a concrete C*-category within tolerance.

    Composition closure is decided by the linear form of Light's test (see
    ``cstarcat.light``, "Greedy generating set, certificate, exhaustive
    fallback"). Let V be the direct sum of the homs. If s . V lies in V for
    each s of a set S in V, and the words in S applied to the identities
    span V, then V . V lies in V. ``LightClosure`` grows S greedily and
    forms only the products s . r of a generator with a reached row. Its
    certificate propagates a bound e(t) >= sup over HS-unit u of
    dist(t . u, V) along the closure; when the rows span V and |e|_2 <=
    eps_abs / 2, no product b_j . a_i of basis elements leaves its hom by
    more than ``eps_abs * max(1, |b_j . a_i|)``, so the report is empty.
    Otherwise, and whenever unitality or adjoint closure fails, or the
    category is too small for the certificate to pay
    (``worth_certifying``), every product b_j . a_i is formed and the
    violations are listed as before.
    """
    tol = cat.tol
    out = []
    for x in cat.object_names:
        eye = cat.identity(x)
        res = cat.hom(x, x).residual(eye)
        if res > tol.bound(hs_norm(eye)):
            out.append(Violation("unitality", (x,), res, "identity not in hom(x,x)"))
    for (x, y), space in cat.homs.items():
        adj = cat.hom(y, x)._rows
        flipped = space.basis.conj().transpose(0, 2, 1).reshape(space.dim, -1)
        for i, res in enumerate(_batch_residuals(flipped, adj, adj.conj().T)):
            if res > tol.bound(1.0):
                out.append(Violation("adjoint", (x, y, i), float(res),
                                     "adjoint of basis element leaves hom(y,x)"))
    if not out and worth_certifying(cat) and LightClosure(cat).certify() is not None:
        return out
    return out + _composition_violations(cat)


def _composition_violations(cat: MatCStarCategory) -> list[Violation]:
    """The exhaustive composition check: every product b_j . a_i of basis
    elements, judged against ``eps_abs * max(1, |b_j . a_i|)``."""
    tol = cat.tol
    out = []
    for (x, y), first in cat.homs.items():
        for z in cat.object_names:
            second = cat.homs.get((y, z))
            if second is None:
                continue
            target = cat.hom(x, z)._rows
            target_h = target.conj().T
            for j, b in enumerate(second.basis):
                flat = _basis_products(b, first.basis)
                scales = np.maximum(np.linalg.norm(flat, axis=1), 1.0)
                residuals = _batch_residuals(flat, target, target_h)
                for i in np.nonzero(residuals > tol.eps_abs * scales)[0]:
                    out.append(Violation("composition", (x, y, z, j, int(i)),
                                         float(residuals[i]),
                                         "product of basis elements leaves hom(x,z)"))
    return out


# ---------------------------------------------------------------------------
# functors


class StarFunctor:
    """Object map plus per-pair linear maps, specified on the stored source
    hom bases."""

    def __init__(self, source: MatCStarCategory, target: MatCStarCategory,
                 object_map: dict, hom_maps: dict, tol: Tolerance = DEFAULT_TOL):
        self.source = source
        self.target = target
        self.tol = tol
        self.object_map = dict(object_map)
        for x in source.object_names:
            fx = self.object_map.get(x)
            if fx is None:
                raise InvalidFunctor(f"object {x!r} has no image")
            target.obj(fx)
        self.hom_maps: dict[tuple[str, str], np.ndarray] = {}
        for (x, y) in source.pairs():
            space = source.homs.get((x, y))
            if space is None:
                continue
            images = hom_maps.get((x, y))
            if images is None:
                raise InvalidFunctor(f"hom pair ({x},{y}) has no images")
            if len(images) != space.dim:
                raise InvalidFunctor(f"hom pair ({x},{y}): {len(images)} images for "
                                     f"a basis of size {space.dim}")
            rows = target.obj(self.object_map[y]).dim
            cols = target.obj(self.object_map[x]).dim
            self.hom_maps[(x, y)] = stack_matrices(images, rows, cols)

    def apply(self, x: str, y: str, m) -> np.ndarray:
        """Image of an element of hom(x, y), by linearity from the basis."""
        space = self.source.hom(x, y)
        rows = self.target.obj(self.object_map[y]).dim
        cols = self.target.obj(self.object_map[x]).dim
        out = np.zeros((rows, cols), dtype=np.complex128)
        if space.dim == 0:
            return out
        coords = space.coords(m)
        for c, img in zip(coords, self.hom_maps[(x, y)]):
            out += c * img
        return out

    def coord_matrix(self, x: str, y: str) -> np.ndarray:
        """The linear map hom(x,y) -> hom(Fx,Fy) in HS coordinates of the two
        stored bases; rows index the target basis."""
        fx, fy = self.object_map[x], self.object_map[y]
        tspace = self.target.hom(fx, fy)
        sdim = self.source.hom(x, y).dim
        mat = np.zeros((tspace.dim, sdim), dtype=np.complex128)
        for j, img in enumerate(self.hom_maps.get((x, y), [])):
            mat[:, j] = tspace.coords(img)
        return mat

    def preimage(self, x: str, y: str, mats) -> list[np.ndarray]:
        """The least-norm least-squares preimage in hom(x, y) of each matrix
        of hom(Fx, Fy): an exact preimage of a matrix in the image, and
        orthogonal to the kernel of the hom map."""
        space = self.source.hom(x, y)
        hom = self.target.hom(self.object_map[x], self.object_map[y])
        coord = self.coord_matrix(x, y)
        return [space.from_coords(np.linalg.lstsq(coord, hom.coords(m), rcond=None)[0])
                for m in mats]

    def to_json(self) -> dict:
        hom_maps = {}
        for x, y in self.source.pairs():
            if (x, y) in self.hom_maps:
                hom_maps[f"{x}|{y}"] = matrix_to_json(self.hom_maps[(x, y)])
        return {
            "source": self.source.to_json(),
            "target": self.target.to_json(),
            "object_map": {x: self.object_map[x] for x in self.source.object_names},
            "hom_maps": hom_maps,
        }

    @classmethod
    def from_json(cls, data, tol: Tolerance = DEFAULT_TOL) -> "StarFunctor":
        """Read a functor file; a JSON shape error raises ``MalformedInput``,
        maps that are not a functor ``InvalidFunctor``."""
        try:
            source, target, object_map = data["source"], data["target"], data["object_map"]
            if not isinstance(object_map, dict):
                raise TypeError(f"object_map must be an object, not {type(object_map).__name__}")
            hom_data = [(key, list(mats)) for key, mats in data.get("hom_maps", {}).items()]
        except (AttributeError, KeyError, TypeError) as err:
            raise MalformedInput(f"functor file: {type(err).__name__}: {err}") from None
        if not all(isinstance(name, str) for name in object_map.values()):
            raise MalformedInput("functor file: object_map values must be object names")
        source = MatCStarCategory.from_json(source, tol=tol)
        target = MatCStarCategory.from_json(target, tol=tol)
        hom_maps = {split_pair_key(key): [matrix_from_json(m) for m in mats]
                    for key, mats in hom_data}
        return cls(source, target, object_map, hom_maps, tol=tol)

    def __repr__(self):
        return f"StarFunctor({self.source.object_names} -> {self.target.object_names})"


def identity_functor(cat: MatCStarCategory) -> StarFunctor:
    return inclusion_functor(cat, cat)


def compose_functors(second: StarFunctor, first: StarFunctor) -> StarFunctor:
    """second . first, defined when first's target is second's source."""
    if second.source.object_names != first.target.object_names:
        raise NotParallel("functors are not composable")
    object_map = {x: second.object_map[first.object_map[x]]
                  for x in first.source.object_names}
    hom_maps = {}
    for (x, y), images in first.hom_maps.items():
        fx, fy = first.object_map[x], first.object_map[y]
        hom_maps[(x, y)] = [second.apply(fx, fy, img) for img in images]
    return StarFunctor(first.source, second.target, object_map, hom_maps,
                       tol=first.tol)


def _paired_images(f: StarFunctor, g: StarFunctor):
    """The stored basis images of two functors, paired hom by hom."""
    for pair, images in f.hom_maps.items():
        yield from zip(images, g.hom_maps.get(pair, []))


def functors_agree(f: StarFunctor, g: StarFunctor) -> bool:
    """Equal object maps and basis images within ``f``'s tolerance."""
    if f.object_map != g.object_map:
        return False
    return all(f.tol.close(a, b) for a, b in _paired_images(f, g))


def functor_distance(f: StarFunctor, g: StarFunctor) -> float:
    """Largest HS distance between paired basis images; infinite when the
    object maps differ."""
    if f.object_map != g.object_map:
        return float("inf")
    return max((float(np.linalg.norm(a - b)) for a, b in _paired_images(f, g)),
               default=0.0)


def validate_functor(functor: StarFunctor) -> list[Violation]:
    """Check hom membership, unit, composition and involution laws.

    The composition law is decided on the source category's Light closure
    (see ``validate_category`` and ``cstarcat.light``, "Greedy generating
    set, certificate, exhaustive fallback"): with the unit law,
    F(s . a) = F(s) F(a) for the generators s and every a in V gives
    F(b . a) = F(b) F(a) on all of V. The certificate measures
    mu(s, r) = |F(P(s . r)) - F(s) F(r)| for every product of the closure,
    P the projection onto V, and propagates a bound f(t) >= sup over
    HS-unit u of |F(P(t . u)) - F(t) F(u)| the same way, using the operator
    norms of F's coordinate maps. When the source's own certificate holds
    and |f|_2 <= eps_abs / 2, no product of basis elements violates the
    law. Otherwise, and whenever hom membership or the unit law fails,
    every product is checked as before.
    """
    tol = functor.tol
    src, tgt = functor.source, functor.target
    out = []
    for (x, y), images in functor.hom_maps.items():
        fx, fy = functor.object_map[x], functor.object_map[y]
        space = tgt.hom(fx, fy)
        for i, img in enumerate(images):
            res = space.residual(img)
            if res > tol.bound(hs_norm(img)):
                out.append(Violation("hom-membership", (x, y, i), res,
                                     "image leaves the target hom space"))
    unit_residuals = {}
    for x in src.object_names:
        eye = src.identity(x)
        img = functor.apply(x, x, eye)
        res = float(np.linalg.norm(img - tgt.identity(functor.object_map[x])))
        unit_residuals[x] = res
        if res > tol.bound(1.0):
            out.append(Violation("unit", (x,), res, "F(1_x) != 1_Fx"))
    if out or not (worth_certifying(src) and functor_certified(functor, unit_residuals)):
        out += _functor_composition_violations(functor)
    for (x, y), images in functor.hom_maps.items():
        space = src.hom(x, y)
        for i, a in enumerate(space.basis):
            lhs = functor.apply(y, x, a.conj().T)
            rhs = images[i].conj().T
            res = float(np.linalg.norm(lhs - rhs))
            if res > tol.bound(hs_norm(rhs)):
                out.append(Violation("involution", (x, y, i), res, "F(a*) != F(a)*"))
    return out


def _functor_composition_violations(functor: StarFunctor) -> list[Violation]:
    """The exhaustive composition law: F(P(b_j . a_i)) against
    F(b_j) F(a_i) for every pair of basis elements, judged against
    ``eps_abs * max(1, |F(b_j) F(a_i)|)``."""
    tol = functor.tol
    src = functor.source
    out = []
    for (x, y), first in src.homs.items():
        for z in src.object_names:
            second = src.homs.get((y, z))
            if second is None:
                continue
            target = src.hom(x, z)
            if target.dim:
                target_h = target._rows.conj().T
                f_target = functor.hom_maps[(x, z)].reshape(target.dim, -1)
            for j, (b, fb) in enumerate(zip(second.basis, functor.hom_maps[(y, z)])):
                rhs = _basis_products(fb, functor.hom_maps[(x, y)])
                diffs = rhs
                if target.dim:
                    # image of each product, by linearity in target coordinates
                    coords = _basis_products(b, first.basis) @ target_h
                    diffs = coords @ f_target - rhs
                residuals = np.linalg.norm(diffs, axis=1)
                scales = np.maximum(np.linalg.norm(rhs, axis=1), 1.0)
                for i in np.nonzero(residuals > tol.eps_abs * scales)[0]:
                    out.append(Violation("composition", (x, y, z, j, int(i)),
                                         float(residuals[i]), "F(b.a) != F(b).F(a)"))
    return out


def hom_map_ranks(functor: StarFunctor):
    """Yield (x, y, source dim, target dim, numerical rank) of the hom map
    at every source pair, in ``pairs()`` order and lazily, so callers may
    stop at the first failure. The functor is full where rank = target dim,
    faithful where rank = source dim, and fully faithful where both hold at
    every pair."""
    for x, y in functor.source.pairs():
        yield (x, y, *hom_map_rank(functor, x, y))


def hom_map_rank(functor: StarFunctor, x: str, y: str) -> tuple[int, int, int]:
    """(source dim, target dim, numerical rank) of the hom map
    hom(x, y) -> hom(Fx, Fy)."""
    sdim = functor.source.hom(x, y).dim
    tdim = functor.target.hom(functor.object_map[x], functor.object_map[y]).dim
    rank = 0
    if sdim and tdim:
        svals = np.linalg.svd(functor.coord_matrix(x, y), compute_uv=False)
        rank = linalg.numerical_rank(svals, functor.tol)
    return sdim, tdim, rank


# ---------------------------------------------------------------------------
# unitarization and unitary isomorphism


def unitarize(cat: MatCStarCategory, a, x: str, y: str) -> np.ndarray:
    """Polar unitarization u = a (a*a)^(-1/2) of an invertible arrow.

    The result is unitary and stays inside hom(x, y), since (a*a)^(-1/2)
    lies in the endomorphism algebra at x.
    """
    a = as_matrix(a, cat.obj(y).dim, cat.obj(x).dim)
    if cat.obj(x).dim != cat.obj(y).dim:
        raise NotInvertible("invertible arrows need equal dimensions")
    if smallest_singular_value(a) <= cat.tol.eps_abs:
        raise SingularOperand("arrow is singular within tolerance")
    gram = a.conj().T @ a  # Hermitian up to rounding, which herm_funcalc would judge
    return a @ herm_funcalc((gram + gram.conj().T) / 2.0, "inv_sqrt", tol=cat.tol)


@dataclass
class IsoVerdict:
    status: str                    # "YES" or "NO"
    witness: np.ndarray | None = None
    reason: str = ""

    def __bool__(self):
        return self.status == "YES"


def isomorphic(cat: MatCStarCategory, x: str, y: str) -> bool:
    """Whether x and y are unitarily isomorphic, decided exactly.

    dim hom(x, y) is the inner product of the sector multiplicity vectors of
    x and y, so by Cauchy-Schwarz the two vectors agree, which is unitary
    isomorphism, exactly when hom(x, y), hom(y, x), hom(x, x) and hom(y, y)
    all have the same dimension.
    """
    if x == y:
        return True
    dims = {cat.hom(x, y).dim, cat.hom(y, x).dim, cat.hom(x, x).dim, cat.hom(y, y).dim}
    return cat.obj(x).dim == cat.obj(y).dim and len(dims) == 1


def iso_exists(cat: MatCStarCategory, x: str, y: str, seed: int = 0) -> IsoVerdict:
    """``isomorphic`` with a witness: a YES carries a unitary in hom(x, y),
    a seeded invertible element unitarized (the identity when x == y)."""
    if x == y:
        return IsoVerdict("YES", cat.identity(x), "identity")
    if not isomorphic(cat, x, y):
        return IsoVerdict("NO", None, "hom dimensions differ")
    inv = find_invertible(cat.hom(x, y), seed=seed, tol=cat.tol)
    if inv is None:
        raise InvalidCategory(f"hom({x}, {y}) has matching dimensions but no "
                              "invertible element: not a C*-category")
    return IsoVerdict("YES", unitarize(cat, inv, x, y), "unitarized sample")


# ---------------------------------------------------------------------------
# natural transformations


def carrier_blocks(f: StarFunctor) -> dict[str, slice]:
    """The slice of each F(x) in the carrier of ``f``, the direct sum of the
    F(x) over the source objects in order."""
    out, start = {}, 0
    for x in f.source.object_names:
        dim = f.target.obj(f.object_map[x]).dim
        out[x] = slice(start, start + dim)
        start += dim
    return out


def nat_space(f: StarFunctor, g: StarFunctor) -> Subspace:
    """Solve the finite linear system for all natural transformations F -> G
    whose components live in the target hom spaces, each returned as the
    block-diagonal matrix from the carrier of F to the carrier of G (see
    ``carrier_blocks``).

    With row-major vec, alpha_y F(a) contributes (I (x) F(a)^T) and
    G(a) alpha_x contributes (G(a) (x) I); hom membership contributes
    (I - P) vec(alpha_x) = 0 for the orthogonal projector P of hom(Fx, Gx).
    The kernel rows are orthonormal and the blocks do not overlap, so the
    basis is HS-orthonormal, and the operator norm of an element is the
    sup norm of its components.
    """
    if f.source.object_names != g.source.object_names:
        raise NotParallel("functors are not parallel")
    src, tgt = f.source, f.target
    shapes, offsets, total = {}, {}, 0
    for x in src.object_names:
        rows = tgt.obj(g.object_map[x]).dim
        cols = tgt.obj(f.object_map[x]).dim
        shapes[x] = (rows, cols)
        offsets[x] = total
        total += rows * cols
    carrier_shape = (sum(r for r, _c in shapes.values()),
                     sum(c for _r, c in shapes.values()))
    if total == 0:
        return Subspace(*carrier_shape, [], tol=f.tol)

    n_rows = total + sum(space.dim * shapes[y][0] * shapes[x][1]
                         for (x, y), space in src.homs.items())
    system = np.zeros((n_rows, total), dtype=np.complex128)
    for x in src.object_names:
        n = shapes[x][0] * shapes[x][1]
        space = tgt.hom(f.object_map[x], g.object_map[x])
        system[offsets[x]:offsets[x] + n, offsets[x]:offsets[x] + n] = \
            np.eye(n) - space._rows.T @ space._rows.conj()
    start = total
    for (x, y), space in src.homs.items():
        ry, cy = shapes[y]
        rx, cx = shapes[x]
        for fa, ga in zip(f.hom_maps[(x, y)], g.hom_maps[(x, y)]):
            block = system[start:start + ry * cx]
            block[:, offsets[y]:offsets[y] + ry * cy] = np.kron(np.eye(ry), fa.T)
            block[:, offsets[x]:offsets[x] + rx * cx] -= np.kron(ga, np.eye(cx))
            start += ry * cx

    f_blocks, g_blocks = carrier_blocks(f), carrier_blocks(g)
    basis = []
    for row in kernel_rows(system, f.tol):
        alpha = np.zeros(carrier_shape, dtype=np.complex128)
        for x in src.object_names:
            alpha[g_blocks[x], f_blocks[x]] = \
                row[offsets[x]:offsets[x] + shapes[x][0] * shapes[x][1]].reshape(shapes[x])
        basis.append(alpha)
    return Subspace(*carrier_shape, basis, tol=f.tol, _trusted=True)


class FunctorCategory(MatCStarCategory):
    """The full subcategory of the Ghez-Lima-Roberts C*-category C*(B, C) on
    finitely many parallel *-functors B -> C, given as a name -> functor
    dict. Object F carries the carrier of F, and hom(F, G) is
    ``nat_space(F, G)``: composition, adjoints and the sup norm of natural
    transformations are those of block-diagonal matrices."""

    def __init__(self, functors: dict):
        self.functors = dict(functors)
        ends = {(tuple(f.source.object_names), tuple(f.target.object_names))
                for f in self.functors.values()}
        if len(ends) > 1:
            raise NotParallel("functors are not parallel")
        objects = [(name, sum(s.stop - s.start for s in carrier_blocks(f).values()))
                   for name, f in self.functors.items()]
        homs = {(x, y): nat_space(f, g) for x, f in self.functors.items()
                for y, g in self.functors.items()}
        super().__init__(objects, homs, tol=next(iter(self.functors.values())).tol)

    def component(self, alpha, f: str, g: str, y: str) -> np.ndarray:
        """The component alpha_y: F(y) -> G(y) of an arrow alpha: F -> G."""
        return alpha[carrier_blocks(self.functors[g])[y],
                     carrier_blocks(self.functors[f])[y]]


# ---------------------------------------------------------------------------
# tensor products and unions


def full_matrix_category(dims, names=None, tol: Tolerance = DEFAULT_TOL) -> MatCStarCategory:
    """All of Hilb between the given finite-dimensional carriers."""
    names = names or [f"m{i}" for i in range(len(dims))]
    objects = list(zip(names, dims))
    homs = {}
    for x, dx in objects:
        for y, dy in objects:
            units = []
            for i in range(dy):
                for j in range(dx):
                    m = np.zeros((dy, dx), dtype=np.complex128)
                    m[i, j] = 1.0
                    units.append(m)
            homs[(x, y)] = Subspace(dy, dx, units, tol=tol, _trusted=True)
    return MatCStarCategory(objects, homs, tol=tol)


def pair_name(x: str, y: str) -> str:
    return f"({x},{y})"


def tensor_max(a: MatCStarCategory, b: MatCStarCategory, check: bool = True) -> MatCStarCategory:
    """Maximal tensor product, realized by Kronecker products.

    Finite-dimensional C*-categories are nuclear, so the spatial construction
    computes the maximal tensor norm; hom dimensions multiply exactly because
    Kronecker products of orthonormal bases stay orthonormal.
    """
    if check:
        for cat in (a, b):
            bad = validate_category(cat)
            if bad:
                raise InvalidCategory(f"tensor operand fails validation: {bad[0]}")
    objects = [(pair_name(x.name, y.name), x.dim * y.dim)
               for x in a.objects for y in b.objects]
    homs = {}
    for (x1, y1), s1 in a.homs.items():
        for (x2, y2), s2 in b.homs.items():
            basis = [np.kron(m1, m2) for m1 in s1.basis for m2 in s2.basis]
            key = (pair_name(x1, x2), pair_name(y1, y2))
            homs[key] = Subspace(basis[0].shape[0], basis[0].shape[1],
                                 basis, tol=a.tol, _trusted=True)
    return MatCStarCategory(objects, homs, tol=a.tol)


def tensor_functor(f: StarFunctor, g: StarFunctor,
                   source: MatCStarCategory) -> StarFunctor:
    """F (x) G on Kronecker generators, out of ``source``, the tensor product
    of the two sources."""
    target = tensor_max(f.target, g.target, check=False)
    object_map = {}
    for x in f.source.object_names:
        for y in g.source.object_names:
            object_map[pair_name(x, y)] = pair_name(f.object_map[x], g.object_map[y])
    hom_maps = {}
    for (x1, y1), imgs1 in f.hom_maps.items():
        for (x2, y2), imgs2 in g.hom_maps.items():
            key = (pair_name(x1, x2), pair_name(y1, y2))
            hom_maps[key] = [np.kron(m1, m2) for m1 in imgs1 for m2 in imgs2]
    return StarFunctor(source, target, object_map, hom_maps, tol=f.tol)


def disjoint_union(parts, prefixes=None, tol: Tolerance = DEFAULT_TOL) -> MatCStarCategory:
    """Coproduct of matrix categories: zero homs between distinct parts."""
    parts = list(parts)
    if prefixes is None:
        prefixes = [""] * len(parts)
    objects, homs = [], {}
    for cat, pre in zip(parts, prefixes):
        for o in cat.objects:
            objects.append((pre + o.name, o.dim))
        for (x, y), space in cat.homs.items():
            homs[(pre + x, pre + y)] = space
    return MatCStarCategory(objects, homs, tol=tol)


def inclusion_functor(part: MatCStarCategory, whole: MatCStarCategory,
                      object_map: dict | None = None) -> StarFunctor:
    """The functor that keeps each stored basis element of ``part``, along
    ``object_map`` (by default the identity on names)."""
    if object_map is None:
        object_map = {x: x for x in part.object_names}
    hom_maps = {pair: space.basis for pair, space in part.homs.items()}
    return StarFunctor(part, whole, object_map, hom_maps, tol=part.tol)


# ---------------------------------------------------------------------------
# the exponential law


def curry(f: StarFunctor, a: MatCStarCategory, b: MatCStarCategory) -> StarFunctor:
    """Transpose F: A (x) B -> C into the *-functor A -> C*(B, C) onto
    ``FunctorCategory({x: F(1_x (x) -)})``, with x |-> x.

    Each hom basis element a goes to the transformation with components
    F(a (x) 1_y).
    """
    functors = {}
    for x in a.objects:
        object_map = {y.name: f.object_map[pair_name(x.name, y.name)] for y in b.objects}
        hom_maps = {}
        for (y, y2), space in b.homs.items():
            eye = np.eye(x.dim, dtype=np.complex128)
            pair = (pair_name(x.name, y), pair_name(x.name, y2))
            hom_maps[(y, y2)] = [f.apply(pair[0], pair[1], np.kron(eye, m))
                                 for m in space.basis]
        functors[x.name] = StarFunctor(b, f.target, object_map, hom_maps, tol=f.tol)
    target = FunctorCategory(functors)
    hom_maps = {}
    for (x, x2), space in a.homs.items():
        rows, cols = carrier_blocks(functors[x2]), carrier_blocks(functors[x])
        images = []
        for m in space.basis:
            alpha = np.zeros((target.obj(x2).dim, target.obj(x).dim), dtype=np.complex128)
            for y in b.objects:
                eye = np.eye(y.dim, dtype=np.complex128)
                pair = (pair_name(x, y.name), pair_name(x2, y.name))
                alpha[rows[y.name], cols[y.name]] = f.apply(pair[0], pair[1], np.kron(m, eye))
            images.append(alpha)
        hom_maps[(x, x2)] = images
    return StarFunctor(a, target, {x: x for x in a.object_names}, hom_maps, tol=f.tol)


def uncurry(curried: StarFunctor, tensor: MatCStarCategory) -> StarFunctor:
    """Rebuild the *-functor A (x) B -> C out of ``tensor`` = A (x) B from a
    curried functor A -> C*(B, C), sending a (x) b to G(a)_{y'} . G(x)(b)."""
    a, cats = curried.source, curried.target
    functors = {x: cats.functors[curried.object_map[x]] for x in a.object_names}
    any_functor = next(iter(cats.functors.values()))
    b = any_functor.source
    object_map = {}
    for x in a.object_names:
        for y in b.object_names:
            object_map[pair_name(x, y)] = functors[x].object_map[y]
    hom_maps = {}
    for x1, x2 in a.homs:
        f1, f2 = curried.object_map[x1], curried.object_map[x2]
        for (y1, y2), sb in b.homs.items():
            key = (pair_name(x1, y1), pair_name(x2, y2))
            images = []
            for alpha in curried.hom_maps[(x1, x2)]:
                component = cats.component(alpha, f1, f2, y2)
                for m in sb.basis:
                    images.append(component @ functors[x1].apply(y1, y2, m))
            hom_maps[key] = images
    return StarFunctor(tensor, any_functor.target, object_map, hom_maps, tol=a.tol)
