"""Greedy generating set, certificate, exhaustive fallback: closure under
composition without forming every product, and the same pattern for
linear constraints.

The pattern is Light's test (A. H. Clifford and G. B. Preston, *The
Algebraic Theory of Semigroups* I, 1961, §1.2): if s.c is good whenever s
is in a set S and c is good, and the words in S applied to the identities
reach everything, then everything is good. S is grown greedily in stored
order: an element joins S only when the words reached so far do not
already reach it, and the reached set is then closed under left
multiplication by S. Only the products s.c are formed, about |S| times the
size of the whole instead of its square. Three parts of the package use
the pattern.

* ``groupoids.check_composition_table`` applies it to composition
  tables. There "good" is associativity and reaching is exact, so no
  certificate is needed. It runs on arrow indices: the table is read once
  into one integer row of composites per arrow, and each test of a middle
  arrow compares two rows.
* ``categories.validate_category`` and ``categories.validate_functor``
  apply its linear form, in this module, to V, the direct sum of the hom
  spaces. "Good" is s.V within V (for a functor, F(s.a) = F(s) F(a)), and
  the reached rows must span V. Floating point makes every product only
  nearly good, so a certificate propagates a bound along the closure; when
  the bound is small enough it proves the exhaustive verdict "no
  violations". Whenever it is not, or the input is too small for the
  certificate to pay (``worth_certifying``), the validators form every
  product as before, so a failing report keeps its violation list, its
  order and its bytes. A category builds its closure and certificate once
  (``MatCStarCategory.light_certificate``), so validating a functor's
  source and then the functor reuses them.
* ``categories.nat_space`` applies its three steps, not this module, to
  the naturality equations alpha_y F(a) = G(a) alpha_x. The small set is
  two seeded combinations of each larger hom's basis; its kernel always
  holds nat(F, G), since every natural transformation is natural at every
  combination. The certificate bounds the defect of every kernel row at
  every stored basis element within the full system's rank cutoff. The
  elements that fail join the imposed rows, so growth ends at the latest
  at the full system.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .linalg import op_norm

if TYPE_CHECKING:
    from .categories import MatCStarCategory, StarFunctor

#: the certified path runs only when the exhaustive loop would spend more
#: than this many complex multiply-adds on basis products; below that, the
#: loop's batched products cost less than the closure's bookkeeping
CERTIFY_WORK = 2 ** 21


def worth_certifying(cat: MatCStarCategory) -> bool:
    """Whether the exhaustive loop's products b_j . a_i, summed over all
    triples as dim hom(x, y) * dim hom(y, z) * dim x * dim y * dim z
    multiply-adds, exceed ``CERTIFY_WORK``."""
    dims = {o.name: o.dim for o in cat.objects}
    into, outof = {}, {}
    for (x, y), space in cat.homs.items():
        into[y] = into.get(y, 0) + space.dim * dims[x]
        outof[x] = outof.get(x, 0) + space.dim * dims[y]
    work = sum(n * dims[y] * outof.get(y, 0) for y, n in into.items())
    return work > CERTIFY_WORK


@dataclass
class _Row:
    """A reached row t = (v - sum_i coeffs_i r_i) / pivot, where r_i are the
    earlier rows of the same hom and v is the vector named by ``origin``:
    ("identity", x) for the projection of 1_x, ("generator", g) for the
    stored basis element of generator g, or ("product", group, pos) for the
    projection of a product b_g . r. ``coords`` are t's coordinates in the
    hom's stored basis."""
    pair: tuple
    coords: np.ndarray
    origin: tuple
    coeffs: np.ndarray
    pivot: float


@dataclass
class _ProductGroup:
    """The products b_g . r for g in ``gens`` (generators of one hom
    (x, y)) and r in ``rows`` (rows of one hom (w, x)), generator-major:
    the coordinates of their projections onto hom(w, y), one row each, and
    their distances ``deltas`` from it."""
    gens: list
    rows: list
    coords: np.ndarray
    deltas: np.ndarray

    @property
    def gen_of(self) -> np.ndarray:
        return np.repeat(self.gens, len(self.rows))

    @property
    def row_of(self) -> np.ndarray:
        return np.tile(self.rows, len(self.gens))


class LightClosure:
    """The greedy generating set S of V, the direct sum of the homs, and the
    rows reached from the identities by left multiplication with S.

    Stored basis elements are taken in ``cat.homs`` order; one joins S only
    when it lies outside the span reached so far, and the reached span is
    then closed under left multiplication by S. Every product b_g . r of a
    generator with a composable reached row is formed exactly once. The
    rows are orthonormal and held in V's coordinates, so each lies in V
    exactly; a candidate joins them only when its Gram-Schmidt pivot exceeds
    ``sqrt(eps_abs)``. That cutoff only steers which rows are kept: every
    bound divides by the pivot it used.
    """

    def __init__(self, cat: MatCStarCategory):
        # what complete() and certify() read of the category, so that the
        # closure holds no reference back to a category that keeps it
        self.n_objects, self.tol = len(cat.objects), cat.tol
        self.hom_dims = {pair: space.dim for pair, space in cat.homs.items()}
        cutoff = float(np.sqrt(cat.tol.eps_abs))
        names = cat.object_names
        self.rows: list[_Row] = []
        self.groups: list[_ProductGroup] = []
        self.generators: list[tuple] = []            # (pair, basis index)
        self.identity_residuals = {}                 # x -> |1_x - P(1_x)|
        self.by_pair = {pair: [] for pair in cat.homs}
        spans = {pair: np.zeros((0, space.dim), dtype=np.complex128)
                 for pair, space in cat.homs.items()}
        done_into = {x: [] for x in names}           # multiplied rows, by target
        gens_by_pair = {}                            # generators, by hom
        pending = []

        def add(pair, vec, origin):
            span = spans[pair]
            coeffs = span.conj() @ vec
            rest = vec - coeffs @ span
            again = span.conj() @ rest               # one re-orthogonalization
            coeffs, rest = coeffs + again, rest - again @ span
            pivot = float(np.linalg.norm(rest))
            if pivot <= cutoff:
                return None
            coords = rest / pivot
            index = len(self.rows)
            self.rows.append(_Row(pair, coords, origin, coeffs, pivot))
            self.by_pair[pair].append(index)
            spans[pair] = np.vstack([span, coords])
            pending.append(index)
            return index

        def multiply(gens, rows):
            (x, y), _k = self.generators[gens[0]]
            w = self.rows[rows[0]].pair[0]
            left = cat.homs[(x, y)].basis[[self.generators[g][1] for g in gens]]
            # formed from the coordinates on each use: kept, they would be a second copy of V
            space = cat.homs[self.rows[rows[0]].pair]
            right = (np.stack([self.rows[j].coords for j in rows]) @ space._rows)
            right = right.reshape(len(rows), *space.shape)
            flat = np.matmul(left[:, None], right[None]).reshape(len(gens) * len(rows), -1)
            target = cat.homs.get((w, y))
            if target is None:
                self.groups.append(_ProductGroup(
                    gens, rows, np.zeros((len(flat), 0), dtype=np.complex128),
                    np.linalg.norm(flat, axis=1)))
                return
            # conjugating the products copies less than conjugating the rows
            coords = np.conj(np.conj(flat) @ target._rows.T)
            deltas = np.linalg.norm(flat - coords @ target._rows, axis=1)
            self.groups.append(_ProductGroup(gens, rows, coords, deltas))
            # a candidate within the cutoff of the span stays so as the span
            # grows, so only the others go through add
            span = spans[(w, y)]
            rest = coords - (coords @ span.conj().T) @ span
            for pos in np.nonzero(np.linalg.norm(rest, axis=1) > cutoff)[0]:
                add((w, y), coords[pos], ("product", len(self.groups) - 1, int(pos)))

        def drain():
            while pending:
                by_pair = {}
                for j in pending:
                    by_pair.setdefault(self.rows[j].pair, []).append(j)
                    done_into[self.rows[j].pair[1]].append(j)
                pending.clear()
                for (_w, y), rows in by_pair.items():
                    for (src, _z), gens in gens_by_pair.items():
                        if src == y:
                            multiply(list(gens), rows)

        for x in names:
            space = cat.homs.get((x, x))
            if space is None:
                continue
            eye = cat.identity(x)
            vec = space.coords(eye)
            self.identity_residuals[x] = float(np.linalg.norm(eye.ravel() - vec @ space._rows))
            add((x, x), vec, ("identity", x))
        drain()
        for pair, space in cat.homs.items():
            for k in range(space.dim):
                unit = np.zeros(space.dim, dtype=np.complex128)
                unit[k] = 1.0
                if add(pair, unit, ("generator", len(self.generators))) is None:
                    continue
                g = len(self.generators)
                self.generators.append((pair, k))
                gens_by_pair.setdefault(pair, []).append(g)
                by_source = {}
                for j in done_into[pair[0]]:
                    by_source.setdefault(self.rows[j].pair[0], []).append(j)
                for rows in by_source.values():
                    multiply([g], rows)
                drain()
        self.generator_norms = np.array([op_norm(cat.homs[pair].basis[k])
                                         for pair, k in self.generators])

    def complete(self) -> bool:
        """Whether the reached rows span V: every identity is reached and
        every hom's reached dimension equals its stored dimension."""
        return (len(self.identity_residuals) == self.n_objects
                and all(len(self.by_pair[pair]) == dim
                        for pair, dim in self.hom_dims.items()))

    def own_bounds(self, terms) -> np.ndarray:
        """Per generator g, the l2 norm of ``terms`` (one array per group,
        one entry per product) over g's products: once the rows span V, a
        bound on g's defect against every HS-unit element of V."""
        squares = np.zeros(len(self.generators))
        for group, values in zip(self.groups, terms):
            np.add.at(squares, group.gen_of, np.square(values))
        return np.sqrt(squares)

    def row_bounds(self, base: dict, own: np.ndarray, lead: np.ndarray,
                   local: list) -> np.ndarray:
        """Propagate a bound along the closure, in creation order. The row of
        identity x starts from ``base[x]``, the row of generator g from
        ``own[g]``, and the row of a product b_g . r from
        ``lead[g] * bound(r) + own[g] + local[group][pos]``; each then adds
        sum_i |coeffs_i| bound(r_i) and divides by its pivot."""
        bounds = np.zeros(len(self.rows))
        for i, row in enumerate(self.rows):
            kind = row.origin[0]
            if kind == "identity":
                value = base[row.origin[1]]
            elif kind == "generator":
                value = own[row.origin[1]]
            else:
                _, grp, pos = row.origin
                group = self.groups[grp]
                g = group.gens[pos // len(group.rows)]
                r = group.rows[pos % len(group.rows)]
                value = lead[g] * bounds[r] + own[g] + local[grp][pos]
            earlier = self.by_pair[row.pair][:len(row.coeffs)]
            value += float(np.abs(row.coeffs) @ bounds[earlier])
            bounds[i] = value / row.pivot
        return bounds

    def certify(self) -> np.ndarray | None:
        """The bounds e(t) >= sup over HS-unit u in V of dist(t . u, V) when
        they prove V . V within V, else None.

        Identity rows start from |1_x - P(1_x)|, a generator's row from
        |delta(g, .)|_2, and a product row from b_g . r adds
        |b_g|_op e(r) + e(g) + delta(g, r). The proof holds when the rows
        span V and |e|_2 <= eps_abs / 2, which leaves the other half of
        eps_abs to the exhaustive loop's own rounding: any product of
        HS-unit elements of V then lies within |e|_2 of V."""
        if not self.complete():
            return None
        deltas = [group.deltas for group in self.groups]
        bounds = self.row_bounds(self.identity_residuals, self.own_bounds(deltas),
                                 self.generator_norms, deltas)
        if not float(np.linalg.norm(bounds)) <= self.tol.eps_abs / 2:
            return None
        return bounds


def functor_certified(functor: StarFunctor, unit_residuals: dict) -> bool:
    """Whether the closure certificate proves F(P(b . a)) = F(b) F(a) within
    ``eps_abs / 2`` for all HS-unit a, b in V.

    With P(1_x) = 1_x - d_x and F(P(1_x)) = 1 + E_x, an identity row starts
    from |F| (|d_x| + |E_x|), |F| the largest operator norm of F's
    coordinate maps; a generator's row from |mu(s, .)|_2; and a product row
    from s . r_j adds |F(s)|_op f(r_j) + f(s) + |F| (|s|_op e(r_j)
    + delta(s, r_j) + mu(s, r_j)), e the source's closure bounds."""
    closure, closure_bounds = functor.source.light_certificate
    if closure_bounds is None:
        return False
    src, tgt = functor.source, functor.target
    images = {pair: functor.hom_maps[pair].reshape(space.dim, -1)
              for pair, space in src.homs.items()}
    # each map's operator norm, from the small Gram matrix of its images
    f_norm = max((float(np.sqrt(max(np.linalg.eigvalsh(m @ m.conj().T)[-1], 0.0)))
                  for m in images.values()), default=0.0)
    mus, local = [], []
    for group in closure.groups:
        (x, y), _k = closure.generators[group.gens[0]]
        w = closure.rows[group.rows[0]].pair[0]
        fw = tgt.obj(functor.object_map[w]).dim
        fx = tgt.obj(functor.object_map[x]).dim
        f_gens = functor.hom_maps[(x, y)][[closure.generators[g][1] for g in group.gens]]
        f_rows = np.stack([closure.rows[j].coords for j in group.rows]) @ images[(w, x)]
        rhs = np.matmul(f_gens[:, None], f_rows.reshape(-1, fx, fw)[None])
        lhs = group.coords @ images[(w, y)] if (w, y) in images else 0.0
        mu = np.linalg.norm(lhs - rhs.reshape(len(group.deltas), -1), axis=1)
        mus.append(mu)
        local.append(f_norm * (closure.generator_norms[group.gen_of]
                               * closure_bounds[group.row_of] + group.deltas + mu))
    own = closure.own_bounds(mus)
    lead = np.array([op_norm(functor.hom_maps[pair][k]) for pair, k in closure.generators])
    base = {x: f_norm * (closure.identity_residuals[x] + unit_residuals[x])
            for x in src.object_names}
    bounds = closure.row_bounds(base, own, lead, local)
    return float(np.linalg.norm(bounds)) <= functor.tol.eps_abs / 2
