"""Seeded generators for random instances: categories, functors, weak
equivalences, groupoids and unitary representations.

Random categories follow the structure theory of finite-dimensional
C*-categories: a common list of irreducible sectors, per-object multiplicity
vectors, hom spaces spanned by matrix units tensored with sector identities,
and a random unitary change of basis per object. Everything built here is
valid by construction, so generators double as validator fixtures.

All draws go through a numpy Generator seeded by the caller; identical seeds
give identical instances.
"""

from __future__ import annotations

import itertools

import numpy as np

from .categories import (
    MatCStarCategory,
    StarFunctor,
    disjoint_union,
    full_matrix_category,
    inclusion_functor,
)
from .errors import InvalidParams
from .groupoids import (
    FiniteGroupoid,
    GroupoidCStar,
    UnitaryRep,
    connected_groupoid,
    cyclic_group_table,
    disjoint_groupoid,
)
from .linalg import DEFAULT_TOL, Subspace, Tolerance


def rng_from_seed(seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.PCG64(seed))


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-ish unitary via QR with a deterministic phase fix."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    phases = np.diag(r).copy()
    phases = phases / np.abs(phases)
    return q * phases


# ---------------------------------------------------------------------------
# categories


class SectorModel:
    """Sector dimensions plus per-object multiplicities and basis-change
    unitaries; knows how to emit the category and block-structured maps."""

    def __init__(self, sector_dims, multiplicities, unitaries, names,
                 tol: Tolerance = DEFAULT_TOL):
        self.sector_dims = list(sector_dims)
        self.multiplicities = {n: list(m) for n, m in zip(names, multiplicities)}
        self.unitaries = dict(zip(names, unitaries))
        self.names = list(names)
        self.tol = tol

    def dim(self, name: str) -> int:
        return sum(m * d for m, d in
                   zip(self.multiplicities[name], self.sector_dims))

    def _offsets(self, name: str) -> list[int]:
        out, acc = [], 0
        for m, d in zip(self.multiplicities[name], self.sector_dims):
            out.append(acc)
            acc += m * d
        return out

    def hom_basis(self, x: str, y: str) -> list[np.ndarray]:
        rows, cols = self.dim(y), self.dim(x)
        offx, offy = self._offsets(x), self._offsets(y)
        ux, uy = self.unitaries[x], self.unitaries[y]
        basis = []
        for i, d in enumerate(self.sector_dims):
            mx, my = self.multiplicities[x][i], self.multiplicities[y][i]
            for r in range(my):
                for s in range(mx):
                    m = np.zeros((rows, cols), dtype=np.complex128)
                    rr, cc = offy[i] + r * d, offx[i] + s * d
                    m[rr:rr + d, cc:cc + d] = np.eye(d) / np.sqrt(d)
                    basis.append(uy @ m @ ux.conj().T)
        return basis

    def category(self) -> MatCStarCategory:
        homs = {}
        for x in self.names:
            for y in self.names:
                basis = self.hom_basis(x, y)
                if basis:
                    homs[(x, y)] = Subspace(self.dim(y), self.dim(x), basis)
        return MatCStarCategory([(n, self.dim(n)) for n in self.names], homs,
                                tol=self.tol)


def random_matcat(rng: np.random.Generator, n_objects: int = 2,
                  max_dim: int = 4, n_sectors: int | None = None,
                  prefix: str = "o",
                  tol: Tolerance = DEFAULT_TOL) -> tuple[MatCStarCategory, SectorModel]:
    """A random valid category with at most ``max_dim``-dimensional carriers."""
    if not (1 <= n_objects <= 5 and 1 <= max_dim <= 6):
        raise InvalidParams("supported bounds: <= 5 objects, dims <= 6")
    k = n_sectors or int(rng.integers(1, 3))
    sector_dims = [int(rng.integers(1, 3)) for _ in range(k)]
    names = [f"{prefix}{i}" for i in range(n_objects)]
    mults = []
    for _ in names:
        while True:
            m = [int(rng.integers(0, 3)) for _ in range(k)]
            total = sum(mi * d for mi, d in zip(m, sector_dims))
            if 1 <= total <= max_dim:
                mults.append(m)
                break
    unitaries = [random_unitary(rng, sum(mi * d for mi, d in zip(m, sector_dims)))
                 for m in mults]
    model = SectorModel(sector_dims, mults, unitaries, names, tol=tol)
    return model.category(), model


def _conjugate(rng: np.random.Generator, cat: MatCStarCategory,
               beta: dict) -> tuple[MatCStarCategory, dict]:
    """Conjugate by one unitary per object: draw u_n for each new object n
    of ``beta`` (new name -> object of ``cat``), in its order, and span
    hom(n1, n2) by u_n2 b u_n1* over the basis b of hom(beta n1, beta n2).
    Returns the new category and the unitaries."""
    units = {n: random_unitary(rng, cat.obj(x).dim) for n, x in beta.items()}
    homs = {}
    for n1 in beta:
        for n2 in beta:
            space = cat.homs.get((beta[n1], beta[n2]))
            if space is not None:
                basis = [units[n2] @ b @ units[n1].conj().T for b in space.basis]
                homs[(n1, n2)] = Subspace(*space.shape, basis)
    target = MatCStarCategory([(n, cat.obj(x).dim) for n, x in beta.items()],
                              homs, tol=cat.tol)
    return target, units


def _conjugation_functor(cat: MatCStarCategory, target: MatCStarCategory,
                         copy_of: dict) -> StarFunctor:
    """The functor x -> copy_of[x] into a conjugated copy: each basis
    element goes to its conjugate, the same index of the target basis."""
    hom_maps = {(x, y): target.homs[(copy_of[x], copy_of[y])].basis
                for (x, y) in cat.homs}
    return StarFunctor(cat, target, copy_of, hom_maps)


def conjugate_category(rng: np.random.Generator, cat: MatCStarCategory,
                       prefix: str = "c") -> tuple[MatCStarCategory, StarFunctor]:
    """An isomorphic copy with freshly conjugated hom spaces, plus the
    conjugation functor (a weak equivalence and an isomorphism)."""
    names = {x: f"{prefix}:{x}" for x in cat.object_names}
    target, _units = _conjugate(rng, cat, {names[x]: x for x in cat.object_names})
    return target, _conjugation_functor(cat, target, names)


def random_weq(rng: np.random.Generator, cat: MatCStarCategory,
               n_extra: int = 1, prefix: str = "w") -> StarFunctor:
    """Weak equivalence by construction: conjugate every hom space and add
    unitarily isomorphic duplicate objects."""
    base = list(cat.object_names)
    extras = [str(rng.choice(base)) for _ in range(n_extra)]
    names = [f"{prefix}{i}" for i in range(len(base) + n_extra)]
    target, _units = _conjugate(rng, cat, dict(zip(names, base + extras)))
    return _conjugation_functor(cat, target, dict(zip(base, names)))


def fattening_functor(cat: MatCStarCategory) -> StarFunctor:
    """The inclusion of a sector-built category into the full matrix
    category on the same carriers: faithful, object-surjective, and full
    exactly when the category already had full homs."""
    target = full_matrix_category([cat.obj(x).dim for x in cat.object_names],
                                  names=list(cat.object_names), tol=cat.tol)
    return inclusion_functor(cat, target)


def sector_projection_functor(model: SectorModel) -> StarFunctor:
    """Project a multi-sector category onto its sector 0: a valid *-functor
    that kills the other sectors, hence non-faithful whenever they are
    present. Each object x goes to ``p:x``."""
    if any(m[0] == 0 for m in model.multiplicities.values()):
        raise InvalidParams("sector 0 must be present at every object")
    source = model.category()
    d = model.sector_dims[0]
    kept = {n: model.multiplicities[n][0] * d for n in model.names}
    kept_model = SectorModel(
        [d],
        [[model.multiplicities[n][0]] for n in model.names],
        [np.eye(kept[n], dtype=np.complex128) for n in model.names],
        [f"p:{n}" for n in model.names],
        tol=model.tol,
    )
    target = kept_model.category()

    hom_maps = {}
    for (x, y), space in source.homs.items():
        offx, offy = model._offsets(x)[0], model._offsets(y)[0]
        ux, uy = model.unitaries[x], model.unitaries[y]
        hom_maps[(x, y)] = [(uy.conj().T @ b @ ux)[offy:offy + kept[y], offx:offx + kept[x]]
                            for b in space.basis]
    return StarFunctor(source, target, {n: f"p:{n}" for n in model.names}, hom_maps)


def padding_functor(rng: np.random.Generator, cat: MatCStarCategory) -> StarFunctor:
    """Inclusion of A into A + (one random padding object): injective on
    objects but not surjective; fully faithful."""
    pad, _ = random_matcat(rng, n_objects=1, max_dim=3, prefix="pad", tol=cat.tol)
    whole = disjoint_union([cat, pad])
    return inclusion_functor(cat, whole)


def build_retract(small: StarFunctor):
    """Embed F': A' -> B' as a retract of F = F' + id_{A'}: returns the
    retract diagram (big, i, p, j, q) with p.i = id and q.j = id."""
    a_small, b_small = small.source, small.target
    big_source = disjoint_union([a_small, a_small], prefixes=["", "pad:"])
    big_target = disjoint_union([b_small, a_small], prefixes=["", "pad:"])
    object_map = dict(small.object_map)
    hom_maps = dict(small.hom_maps)
    for x in a_small.object_names:
        object_map[f"pad:{x}"] = f"pad:{x}"
    for (x, y), space in a_small.homs.items():
        hom_maps[(f"pad:{x}", f"pad:{y}")] = space.basis
    big = StarFunctor(big_source, big_target, object_map, hom_maps)
    i = inclusion_functor(a_small, big_source)
    j = inclusion_functor(b_small, big_target)
    p_obj = {x: x for x in a_small.object_names}
    p_obj.update({f"pad:{x}": x for x in a_small.object_names})
    p = inclusion_functor(big_source, a_small, p_obj)
    q_obj = {y: y for y in b_small.object_names}
    q_obj.update({f"pad:{x}": small.object_map[x] for x in a_small.object_names})
    q_maps = {}
    for (x, y), space in big_target.homs.items():
        if x.startswith("pad:"):
            q_maps[(x, y)] = [small.apply(x[4:], y[4:], b) for b in space.basis]
        else:
            q_maps[(x, y)] = space.basis
    q = StarFunctor(big_target, b_small, q_obj, q_maps)
    return big, i, p, j, q


# ---------------------------------------------------------------------------
# groupoids


_KLEIN = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]

_S3 = None


def _s3_table():
    global _S3
    if _S3 is None:
        perms = sorted(itertools.permutations(range(3)))
        index = {p: i for i, p in enumerate(perms)}
        _S3 = [[index[tuple(p[q[k]] for k in range(3))] for q in perms]
               for p in perms]
    return _S3


def group_table(kind: str, order: int = 1):
    if kind == "cyclic":
        return cyclic_group_table(order)
    if kind == "klein":
        return _KLEIN
    if kind == "s3":
        return _s3_table()
    raise InvalidParams(f"unknown group kind {kind!r}")


def random_groupoid(rng: np.random.Generator, n_objects: int = 2,
                    max_order: int = 4) -> FiniteGroupoid:
    """Random disjoint union of connected groupoids with small vertex groups.
    A Klein or S3 draw that exceeds ``max_order`` falls back to a cyclic
    group."""
    if not (1 <= n_objects <= 5 and 1 <= max_order <= 8):
        raise InvalidParams("supported bounds: <= 5 objects, group order <= 8")
    names = [f"x{i}" for i in range(n_objects)]
    n_components = int(rng.integers(1, n_objects + 1))
    assignment = [int(rng.integers(0, n_components)) for _ in names]
    assignment[0] = 0
    parts = []
    for comp in range(n_components):
        members = [n for n, a in zip(names, assignment) if a == comp]
        if not members:
            continue
        choices = ["cyclic", "klein", "s3"]
        kind = choices[int(rng.integers(0, len(choices)))]
        table = group_table(kind)
        if kind == "cyclic" or len(table) > max_order:
            table = group_table("cyclic", int(rng.integers(1, max_order + 1)))
        parts.append(connected_groupoid(members, table, check=False))
    return disjoint_groupoid(parts)


def random_unitary_rep(rng: np.random.Generator, groupoid: FiniteGroupoid,
                       gc: GroupoidCStar) -> UnitaryRep:
    """A representation of the groupoid in a conjugated copy of its
    C*-category ``gc``: arrows go to conjugated regular-representation
    unitaries. The conjugating unitaries are drawn before the
    representation is checked."""
    cat = gc.category
    names = {x: f"r:{x}" for x in cat.object_names}
    target, units = _conjugate(rng, cat, {names[x]: x for x in cat.object_names})
    arrow_map = {}
    for g, (x, y) in groupoid.arrows.items():
        arrow_map[g] = units[names[y]] @ gc.embed[g] @ units[names[x]].conj().T
    return UnitaryRep(groupoid, target,
                      {x: names[x] for x in groupoid.objects}, arrow_map)
