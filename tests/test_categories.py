"""Tests for concrete matrix C*-categories, functors, natural transformation
spaces, functor categories, tensor products and the exponential law.

Derived expectations come from in-file oracles: a Gaussian-elimination rank
count, a hand commutant solve, and hand polar decompositions.
"""

import gc
import time
import tracemalloc
import weakref

import numpy as np
import pytest

from cstarcat import categories as cat
from cstarcat import light
from cstarcat import randgen as rg
from cstarcat.errors import (
    InvalidCategory,
    InvalidMatrix,
    NotInvertible,
    NotParallel,
    SingularOperand,
)
from cstarcat.linalg import (
    Subspace,
    Tolerance,
    is_unitary,
    kernel_rows,
    matrix_to_json,
    op_norm,
    subspace_span,
)

# ---------------------------------------------------------------------------
# oracles


def rank_by_elimination(rows, tol=1e-9):
    m = [list(r) for r in rows]
    rank, col = 0, 0
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    while rank < nrows and col < ncols:
        pivot = max(range(rank, nrows), key=lambda i: abs(m[i][col]))
        if abs(m[pivot][col]) <= tol:
            col += 1
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for i in range(nrows):
            if i != rank and abs(m[i][col]) > 0:
                f = m[i][col] / m[rank][col]
                m[i] = [u - f * v for u, v in zip(m[i], m[rank])]
        rank += 1
        col += 1
    return rank


def commutant_dimension_oracle(n):
    """Dimension of {alpha in M_n : alpha E_ij = E_ij alpha for all units},
    by eliminating the stacked commutator system."""
    rows = []
    for i in range(n):
        for j in range(n):
            e = np.zeros((n, n), dtype=complex)
            e[i, j] = 1.0
            # row block: vec(alpha e - e alpha) as linear map of vec(alpha)
            block = np.kron(np.eye(n), e.T) - np.kron(e, np.eye(n))
            rows.extend(block.tolist())
    return n * n - rank_by_elimination(rows)


def naturality_residual(alpha, f, g):
    """max |alpha_y F(a) - G(a) alpha_x| over the source hom bases, plus the
    norm of alpha off its diagonal blocks, with the carrier offsets of F and
    G counted here from the object dimensions."""
    def blocks(h):
        out, start = {}, 0
        for x in h.source.object_names:
            dim = h.target.obj(h.object_map[x]).dim
            out[x] = slice(start, start + dim)
            start += dim
        return out

    fb, gb = blocks(f), blocks(g)
    comps = {x: alpha[gb[x], fb[x]] for x in f.source.object_names}
    off = alpha.copy()
    for x in f.source.object_names:
        off[gb[x], fb[x]] = 0
    worst = float(np.linalg.norm(off))
    for (x, y), space in f.source.homs.items():
        for fa, ga in zip(f.hom_maps[(x, y)], g.hom_maps[(x, y)]):
            worst = max(worst, float(np.linalg.norm(comps[y] @ fa - ga @ comps[x])))
    return worst


def dense_nat_space(f, g):
    """nat(F, G) by the dense formulation: each component alpha_x a free
    dim Gx x dim Fx matrix, hom membership as (I - P) vec(alpha_x) = 0 for
    the projector P of hom(Fx, Gx), and naturality alpha_y F(a) = G(a) alpha_x
    as the row-major Kronecker blocks (I (x) F(a)^T) - (G(a) (x) I)."""
    names, tgt = f.source.object_names, f.target
    shapes = {x: (tgt.obj(g.object_map[x]).dim, tgt.obj(f.object_map[x]).dim)
              for x in names}
    offsets = dict(zip(names, np.cumsum([0] + [r * c for r, c in shapes.values()])))
    total = sum(r * c for r, c in shapes.values())
    rows = []
    for x in names:
        block = np.zeros((shapes[x][0] * shapes[x][1], total), dtype=complex)
        hom = tgt.hom(f.object_map[x], g.object_map[x])._rows
        block[:, offsets[x]:offsets[x] + len(block)] = np.eye(len(block)) - hom.T @ hom.conj()
        rows.append(block)
    for x, y in f.source.homs:
        (ry, cy), (rx, cx) = shapes[y], shapes[x]
        for fa, ga in zip(f.hom_maps[(x, y)], g.hom_maps[(x, y)]):
            block = np.zeros((ry * cx, total), dtype=complex)
            block[:, offsets[y]:offsets[y] + ry * cy] = np.kron(np.eye(ry), fa.T)
            block[:, offsets[x]:offsets[x] + rx * cx] -= np.kron(ga, np.eye(cx))
            rows.append(block)
    f_blocks, g_blocks = cat.carrier_blocks(f), cat.carrier_blocks(g)
    carrier = (sum(r for r, _c in shapes.values()), sum(c for _r, c in shapes.values()))
    basis = []
    for row in kernel_rows(np.concatenate(rows), f.tol)[0]:
        alpha = np.zeros(carrier, dtype=complex)
        for x in names:
            alpha[g_blocks[x], f_blocks[x]] = \
                row[offsets[x]:offsets[x] + shapes[x][0] * shapes[x][1]].reshape(shapes[x])
        basis.append(alpha)
    return Subspace(*carrier, basis)


def projector(space):
    """The HS-orthogonal projector onto a subspace, on row-major vec."""
    return space._rows.T @ space._rows.conj()


# ---------------------------------------------------------------------------
# fixtures


def diag_algebra_category():
    """One object of dim 2 whose endomorphisms are the diagonal matrices."""
    basis = [np.diag([1.0, 0]).astype(complex), np.diag([0, 1.0]).astype(complex)]
    return cat.MatCStarCategory([("d", 2)], {("d", "d"): basis})


def conjugated_full_category(u):
    """Full matrix algebra conjugated by a fixed unitary (still everything)."""
    n = u.shape[0]
    units = []
    for i in range(n):
        for j in range(n):
            m = np.zeros((n, n), dtype=complex)
            m[i, j] = 1.0
            units.append(u @ m @ u.conj().T)
    return cat.MatCStarCategory([("c", n)], {("c", "c"): subspace_span(units)})


# ---------------------------------------------------------------------------
# validate_category


def test_full_matrix_category_is_valid():
    assert cat.validate_category(cat.full_matrix_category([2, 3])) == []


def test_missing_identity_is_reported():
    proj = [np.diag([1.0, 0]).astype(complex)]  # rank-one projection algebra
    broken = cat.MatCStarCategory([("x", 2)], {("x", "x"): proj})
    report = cat.validate_category(broken)
    assert any(v.kind == "unitality" for v in report)


def test_adjoint_closure_violation_with_witness():
    nilpotent = np.array([[0, 1.0], [0, 0]], dtype=complex)
    # oracle: the adjoint is E_10, whose distance to the zero space is 1
    assert abs(np.linalg.norm(nilpotent.conj().T) - 1.0) < 1e-12
    broken = cat.MatCStarCategory(
        [("x", 2), ("y", 2)],
        {("x", "x"): [np.eye(2, dtype=complex) / np.sqrt(2)],
         ("y", "y"): [np.eye(2, dtype=complex) / np.sqrt(2)],
         ("x", "y"): [nilpotent]},
    )
    report = cat.validate_category(broken)
    adjoint = [v for v in report if v.kind == "adjoint"]
    assert adjoint and adjoint[0].where[:2] == ("x", "y")
    assert abs(adjoint[0].residual - 1.0) < 1e-9


def unit_matrix(rows, cols, i, j):
    m = np.zeros((rows, cols), dtype=complex)
    m[i, j] = 1.0
    return m


def product_chain(hom_xz):
    """Objects x, y, z of dims 1, 3, 2. hom(x, y) has the basis a_i = e_i and
    hom(y, z) the basis b_0 = f_0 e_0*, b_1 = f_0 e_2*, b_2 = f_1 e_1*, so the
    only nonzero products are b_0 a_0 = b_1 a_2 = f_0 and b_2 a_1 = f_1."""
    homs = {("x", "y"): Subspace(3, 1, [unit_matrix(3, 1, i, 0) for i in range(3)]),
            ("y", "z"): Subspace(2, 3, [unit_matrix(2, 3, 0, 0), unit_matrix(2, 3, 0, 2),
                                        unit_matrix(2, 3, 1, 1)]),
            ("x", "z"): Subspace(2, 1, hom_xz)}
    return cat.MatCStarCategory([("x", 1), ("y", 3), ("z", 2)], homs)


def composition_where(report):
    return [v.where for v in report if v.kind == "composition"]


def category_composition_by_pairs(c):
    """The composition check one product b_j . a_i at a time."""
    out = []
    for (x, y), first in c.homs.items():
        for z in c.object_names:
            second = c.homs.get((y, z))
            if second is None:
                continue
            for j, b in enumerate(second.basis):
                for i, a in enumerate(first.basis):
                    prod = b @ a
                    bound = c.tol.eps_abs * max(1.0, np.linalg.norm(prod))
                    if c.hom(x, z).residual(prod) > bound:
                        out.append((x, y, z, j, i))
    return out


def functor_composition_by_pairs(functor):
    """The functor's composition check one product b_j . a_i at a time."""
    src, out = functor.source, []
    for (x, y), first in src.homs.items():
        for z in src.object_names:
            second = src.homs.get((y, z))
            if second is None:
                continue
            for j, b in enumerate(second.basis):
                for i, a in enumerate(first.basis):
                    rhs = functor.hom_maps[(y, z)][j] @ functor.hom_maps[(x, y)][i]
                    diff = np.linalg.norm(functor.apply(x, z, b @ a) - rhs)
                    if diff > functor.tol.eps_abs * max(1.0, np.linalg.norm(rhs)):
                        out.append((x, y, z, j, i))
    return out


def test_composition_violation_names_the_broken_product():
    # hom(x, z) = span{f_0} leaves out b_2 a_1 = f_1 alone
    broken = product_chain([unit_matrix(2, 1, 0, 0)])
    report = cat.validate_category(broken)
    assert composition_where(report) == [("x", "y", "z", 2, 1)]
    assert composition_where(report) == category_composition_by_pairs(broken)
    whole = product_chain([unit_matrix(2, 1, k, 0) for k in range(2)])
    assert composition_where(cat.validate_category(whole)) == []


def test_composition_violations_follow_pair_order():
    # dropping a basis element of a hom breaks several products at once
    several = 0
    for seed in range(12):
        c, _ = rg.random_matcat(rg.rng_from_seed(seed), n_objects=2, max_dim=4)
        pair = max(c.homs, key=lambda p: (c.homs[p].dim, p))
        space = c.homs[pair]
        homs = dict(c.homs)
        homs[pair] = Subspace(*space.shape, space.basis[:-1])
        broken = cat.MatCStarCategory([(o.name, o.dim) for o in c.objects], homs)
        expected = category_composition_by_pairs(broken)
        assert composition_where(cat.validate_category(broken)) == expected
        several += len(expected) >= 2
    assert several >= 3


def composition_violations_uncached(c):
    """Oracle for ``_composition_violations``: every object triple checked
    afresh, with the same batched products."""
    out = []
    for (x, y), first in c.homs.items():
        for z in c.object_names:
            second = c.homs.get((y, z))
            if second is None:
                continue
            target = c.hom(x, z)._rows
            for j, b in enumerate(second.basis):
                flat = (b @ first.basis).reshape(first.dim, -1)
                scales = np.maximum(np.linalg.norm(flat, axis=1), 1.0)
                residuals = np.linalg.norm(flat - (flat @ target.conj().T) @ target, axis=1)
                for i in np.nonzero(residuals > c.tol.eps_abs * scales)[0]:
                    out.append(cat.Violation("composition", (x, y, z, j, int(i)),
                                             float(residuals[i]),
                                             "product of basis elements leaves hom(x,z)"))
    return out


def test_shared_hom_triples_are_checked_once_with_the_same_violations(monkeypatch):
    from cstarcat import model

    tight = Tolerance(1e-15)
    triples = []
    real = cat._product_failures

    def counted(*args):
        triples.append(args)
        return real(*args)

    monkeypatch.setattr(cat, "_product_failures", counted)
    violated = [0, 0, 0]
    for seed in range(8):
        rng = rg.rng_from_seed(seed)
        a, _ = rg.random_matcat(rng, n_objects=2, max_dim=4, tol=tight)
        weq = rg.random_weq(rng, a)
        shared = [model.factor_cylinder(weq).midway,
                  cat.disjoint_union([a, a], prefixes=["", "pad:"]),
                  rg.build_retract(weq)[0].source]
        for k, c in enumerate(shared):
            triples.clear()
            got = cat._composition_violations(c)
            assert got == composition_violations_uncached(c)
            composable = sum(1 for (_x, y) in c.homs for z in c.object_names
                             if (y, z) in c.homs)
            assert len(triples) < composable
            violated[k] += bool(got)
    # the cylinder midways often break at 1e-15, the doubled categories once
    assert violated[0] >= 4 and violated[1] >= 1 and violated[2] >= 1


def test_functor_composition_violation_names_the_broken_product():
    full = product_chain([unit_matrix(2, 1, k, 0) for k in range(2)])
    ident = cat.identity_functor(full)
    images = {pair: list(mats) for pair, mats in ident.hom_maps.items()}
    # F(b_2) = -b_2 breaks F(b_2 a_1) = F(b_2) F(a_1) and no other product
    images[("y", "z")][2] = -images[("y", "z")][2]
    broken = cat.StarFunctor(full, full, ident.object_map, images)
    report = cat.validate_functor(broken)
    assert composition_where(report) == [("x", "y", "z", 2, 1)]
    assert composition_where(report) == functor_composition_by_pairs(broken)
    assert composition_where(cat.validate_functor(ident)) == []


def test_functor_composition_violations_follow_pair_order():
    several = 0
    for seed in range(12):
        c, _ = rg.random_matcat(rg.rng_from_seed(seed), n_objects=2, max_dim=4)
        ident = cat.identity_functor(c)
        images = {pair: list(mats) for pair, mats in ident.hom_maps.items()}
        pair = max(c.homs, key=lambda p: (c.homs[p].dim, p))
        images[pair][-1] = 1.5 * images[pair][-1]
        broken = cat.StarFunctor(c, c, ident.object_map, images)
        expected = functor_composition_by_pairs(broken)
        assert composition_where(cat.validate_functor(broken)) == expected
        several += len(expected) >= 2
    assert several >= 3


# ---------------------------------------------------------------------------
# the certified composition check against the exhaustive loop


def exhaustive_category_report(c):
    """Unitality, adjoint and composition violations with every basis
    product formed: the validator as it was before the certificate, kept as
    the oracle."""
    tol, out = c.tol, []
    for x in c.object_names:
        eye = c.identity(x)
        res = c.hom(x, x).residual(eye)
        if res > tol.bound(np.linalg.norm(eye)):
            out.append(cat.Violation("unitality", (x,), res, "identity not in hom(x,x)"))
    for (x, y), space in c.homs.items():
        adj = c.hom(y, x)._rows
        flipped = np.stack([b.conj().T.ravel() for b in space.basis])
        residuals = np.linalg.norm(flipped - (flipped @ adj.conj().T) @ adj, axis=1)
        for i, res in enumerate(residuals):
            if res > tol.bound(1.0):
                out.append(cat.Violation("adjoint", (x, y, i), float(res),
                                         "adjoint of basis element leaves hom(y,x)"))
    for (x, y), first in c.homs.items():
        first_stack = np.stack(first.basis)
        for z in c.object_names:
            second = c.homs.get((y, z))
            if second is None:
                continue
            target = c.hom(x, z)._rows
            for j, b in enumerate(second.basis):
                flat = (b @ first_stack).reshape(len(first_stack), -1)
                scales = np.maximum(np.linalg.norm(flat, axis=1), 1.0)
                residuals = np.linalg.norm(flat - (flat @ target.conj().T) @ target, axis=1)
                for i in np.nonzero(residuals > tol.eps_abs * scales)[0]:
                    out.append(cat.Violation("composition", (x, y, z, j, int(i)),
                                             float(residuals[i]),
                                             "product of basis elements leaves hom(x,z)"))
    return out


def exhaustive_functor_composition(functor):
    """The functor's composition violations with every basis product
    formed, as the validator computed them before the certificate."""
    src, tol, out = functor.source, functor.tol, []
    for (x, y), first in src.homs.items():
        first_stack = np.stack(first.basis)
        fa_stack = np.stack(functor.hom_maps[(x, y)])
        for z in src.object_names:
            second = src.homs.get((y, z))
            if second is None:
                continue
            target = src.hom(x, z)
            for j, (b, fb) in enumerate(zip(second.basis, functor.hom_maps[(y, z)])):
                rhs = (fb @ fa_stack).reshape(len(fa_stack), -1)
                diffs = rhs
                if target.dim:
                    f_target = np.stack(functor.hom_maps[(x, z)]).reshape(target.dim, -1)
                    coords = (b @ first_stack).reshape(len(first_stack), -1) @ \
                        target._rows.conj().T
                    diffs = coords @ f_target - rhs
                residuals = np.linalg.norm(diffs, axis=1)
                scales = np.maximum(np.linalg.norm(rhs, axis=1), 1.0)
                for i in np.nonzero(residuals > tol.eps_abs * scales)[0]:
                    out.append(cat.Violation("composition", (x, y, z, j, int(i)),
                                             float(residuals[i]), "F(b.a) != F(b).F(a)"))
    return out


def nudged_category(c, rng, scale):
    """``c`` with one stored basis element moved by ``scale`` in HS norm and
    its hom re-orthonormalized."""
    pair = list(c.homs)[int(rng.integers(len(c.homs)))]
    space = c.homs[pair]
    basis = list(space.basis)
    k = int(rng.integers(len(basis)))
    noise = rng.standard_normal(space.shape) + 1j * rng.standard_normal(space.shape)
    basis[k] = basis[k] + scale * noise / np.linalg.norm(noise)
    homs = dict(c.homs)
    homs[pair] = subspace_span(basis, ambient_shape=space.shape, tol=c.tol)
    return cat.MatCStarCategory([(o.name, o.dim) for o in c.objects], homs, tol=c.tol)


def nudged_functor(f, rng, scale):
    """``f`` with one basis image moved by ``scale`` in HS norm."""
    images = {pair: list(mats) for pair, mats in f.hom_maps.items()}
    pair = list(images)[int(rng.integers(len(images)))]
    k = int(rng.integers(len(images[pair])))
    noise = rng.standard_normal(images[pair][k].shape) + \
        1j * rng.standard_normal(images[pair][k].shape)
    images[pair][k] = images[pair][k] + scale * noise / np.linalg.norm(noise)
    return cat.StarFunctor(f.source, f.target, f.object_map, images)


def counting_basis_products(monkeypatch):
    calls = []
    kernel = cat._basis_products

    def counted(b, first):
        calls.append(len(first))
        return kernel(b, first)

    monkeypatch.setattr(cat, "_basis_products", counted)
    return calls


#: perturbation scales straddling the default eps_abs = 1e-9
NUDGES = (0.0, 1e-11, 3e-10, 1e-9, 3e-9, 1e-6)


def test_certified_category_verdicts_match_the_exhaustive_loop(monkeypatch):
    monkeypatch.setattr(light, "CERTIFY_WORK", -1)        # certify at every size
    calls = counting_basis_products(monkeypatch)
    certified = fell_back = 0
    for seed in range(12):
        rng = rg.rng_from_seed(seed)
        c, _ = rg.random_matcat(rng, n_objects=int(rng.integers(2, 4)), max_dim=5)
        for scale in NUDGES:
            subject = nudged_category(c, rng, scale) if scale else c
            calls.clear()
            report = cat.validate_category(subject)
            assert report == exhaustive_category_report(subject)
            certified += not calls
            fell_back += bool(calls)
            # every unperturbed category is certified without a basis product
            assert calls == [] or scale
    assert certified >= 24 and fell_back >= 24


def test_certified_functor_verdicts_match_the_exhaustive_loop(monkeypatch):
    from cstarcat.suites import functor_zoo

    monkeypatch.setattr(light, "CERTIFY_WORK", -1)
    calls = counting_basis_products(monkeypatch)
    rng = rg.rng_from_seed(21)
    for _kind, f in functor_zoo(rng, 12):
        for scale in NUDGES:
            subject = nudged_functor(f, rng, scale) if scale else f
            calls.clear()
            report = cat.validate_functor(subject)
            expected = exhaustive_functor_composition(subject)
            assert [v for v in report if v.kind == "composition"] == expected
            # every unperturbed functor is certified without a basis product
            assert calls == [] or scale


def test_failed_certificate_returns_the_exhaustive_list(monkeypatch):
    monkeypatch.setattr(light, "CERTIFY_WORK", -1)
    # a broken composition: the certificate fails and every product is formed
    broken = product_chain([unit_matrix(2, 1, 0, 0)])
    assert light.LightClosure(broken).certify() is None
    assert cat.validate_category(broken) == exhaustive_category_report(broken)
    # forced: a refused certificate gives the exhaustive list, in its order
    rng = rg.rng_from_seed(4)
    c, _ = rg.random_matcat(rng, n_objects=3, max_dim=5)
    subject = nudged_category(c, rng, 1e-6)
    monkeypatch.setattr(light.LightClosure, "certify", lambda self: None)
    report = cat.validate_category(subject)
    assert len(composition_where(report)) >= 2
    assert report == exhaustive_category_report(subject)
    assert cat.validate_category(c) == []


def cyclic_groupoid_category(n):
    from cstarcat import groupoids as gpd

    groupoid = gpd.connected_groupoid(["a", "b"], gpd.cyclic_group_table(n), check=False)
    return gpd.cstar_max(groupoid).category


def test_z60_groupoid_category_is_certified_without_basis_products(monkeypatch):
    calls = counting_basis_products(monkeypatch)
    c = cyclic_groupoid_category(60)
    assert cat.validate_category(c) == []
    assert calls == []
    assert [c.hom(x, y).dim for x, y in c.pairs()] == [60] * 4


def test_a_certified_category_is_freed_by_reference_counting():
    # the category keeps its closure; the closure must not refer back to
    # it, or every validated category would wait for the cycle collector
    c = cyclic_groupoid_category(10)
    assert cat.validate_category(c) == [] and c.light_certificate[1] is not None
    gc.disable()
    try:
        ref = weakref.ref(c)
        del c
        assert ref() is None
    finally:
        gc.enable()


def test_size_rule_sides(monkeypatch):
    calls = counting_basis_products(monkeypatch)
    # Z/8 on two objects: exactly CERTIFY_WORK multiply-adds, so exhaustive
    small = cyclic_groupoid_category(8)
    assert not light.worth_certifying(small)
    assert cat.validate_category(small) == [] and len(calls) == 8 * 8
    calls.clear()
    large = cyclic_groupoid_category(10)
    assert light.worth_certifying(large)
    assert cat.validate_category(large) == [] and calls == []
    assert cat.validate_functor(cat.identity_functor(large)) == [] and calls == []


# ---------------------------------------------------------------------------
# functors


def test_identity_functor_validates():
    full = cat.full_matrix_category([2, 3])
    assert cat.validate_functor(cat.identity_functor(full)) == []


def test_identity_functor_shares_the_stored_bases(rng):
    source, _ = rg.random_matcat(rng, n_objects=2, max_dim=3)
    ident = cat.identity_functor(source)
    assert ident.hom_maps.keys() == source.homs.keys()
    for pair, maps in ident.hom_maps.items():
        assert np.shares_memory(maps, source.homs[pair].basis)


def test_functor_holds_each_hom_map_as_one_read_only_array():
    full = cat.full_matrix_category([2, 3])
    ident = cat.identity_functor(full)
    images = {pair: list(mats) for pair, mats in ident.hom_maps.items()}
    for functor in (ident, cat.StarFunctor(full, full, ident.object_map, images)):
        for (x, y), maps in functor.hom_maps.items():
            space = full.hom(x, y)
            assert isinstance(maps, np.ndarray) and maps.dtype == np.complex128
            assert maps.shape == (space.dim, *space.shape)
            assert not maps.flags.writeable
            assert np.array_equal(maps, space.basis)


def test_functor_judges_by_its_sources_tolerance():
    # every image moved by 1e-5: within the source's eps_abs = 1e-3, but a
    # unit, composition and involution violation at the default 1e-9
    full = cat.full_matrix_category([2], tol=Tolerance(1e-3))
    noise = rg.rng_from_seed(5).standard_normal((4, 2, 2, 2)) @ [1, 1j]
    noise /= np.linalg.norm(noise, axis=(1, 2), keepdims=True)
    images = {("m0", "m0"): full.hom("m0", "m0").basis + 1e-5 * noise}
    functor = cat.StarFunctor(full, full, {"m0": "m0"}, images)
    assert functor.tol is full.tol
    assert cat.validate_functor(functor) == []


def test_unit_law_violation():
    unit = cat.full_matrix_category([1], ["pt"])
    zero = np.zeros((1, 1), dtype=complex)
    broken = cat.StarFunctor(unit, unit, {"pt": "pt"}, {("pt", "pt"): [zero]})
    report = cat.validate_functor(broken)
    assert any(v.kind == "unit" for v in report)


def test_involution_violation_from_perturbation():
    full = cat.full_matrix_category([2])
    ident = cat.identity_functor(full)
    images = {pair: list(mats) for pair, mats in ident.hom_maps.items()}
    bad = [m.copy() for m in images[("m0", "m0")]]
    bad[1] = bad[1] + 0.05 * np.array([[0, 1], [0, 0]], dtype=complex)
    images[("m0", "m0")] = bad
    broken = cat.StarFunctor(full, full, {"m0": "m0"}, images)
    report = cat.validate_functor(broken)
    assert any(v.kind == "involution" for v in report)
    witness = [v for v in report if v.kind == "involution"][0]
    assert witness.residual > 1e-3


def test_functor_composition_and_equality():
    full = cat.full_matrix_category([2])
    ident = cat.identity_functor(full)
    assert cat.functors_agree(cat.compose_functors(ident, ident), ident)


# ---------------------------------------------------------------------------
# unitarize / iso_exists


def test_unitarize_identity_and_scaling():
    full = cat.full_matrix_category([2])
    eye = np.eye(2, dtype=complex)
    assert np.allclose(cat.unitarize(full, eye, "m0", "m0"), eye)
    u = np.array([[0, 1], [-1, 0]], dtype=complex)
    assert np.allclose(cat.unitarize(full, 2 * u, "m0", "m0"), u)


def test_unitarize_diagonal_by_hand():
    # oracle: a = diag(2,-3); a*a = diag(4,9); (a*a)^(-1/2) = diag(1/2,1/3)
    full = cat.full_matrix_category([2])
    a = np.diag([2.0, -3.0]).astype(complex)
    expected = np.diag([1.0, -1.0]).astype(complex)
    assert np.allclose(a @ np.diag([0.5, 1.0 / 3.0]), expected)
    assert np.allclose(cat.unitarize(full, a, "m0", "m0"), expected)


def test_unitarize_errors():
    full = cat.full_matrix_category([2, 3])
    with pytest.raises(SingularOperand):
        cat.unitarize(full, np.diag([1.0, 0.0]).astype(complex), "m0", "m0")
    with pytest.raises(NotInvertible):
        cat.unitarize(full, np.zeros((3, 2), dtype=complex), "m0", "m1")


def test_unitarize_stays_in_hom_and_is_idempotent(rng):
    u = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
    conj = conjugated_full_category(u)
    hom = conj.hom("c", "c")
    a = hom.from_coords(rng.standard_normal(hom.dim) + 1j * rng.standard_normal(hom.dim))
    w = cat.unitarize(conj, a, "c", "c")
    assert is_unitary(w)
    assert hom.contains(w, conj.tol)
    assert np.allclose(cat.unitarize(conj, w, "c", "c"), w, atol=1e-9)


def test_unitarize_accepts_its_own_gram_matrix_at_a_tiny_tolerance():
    # a*a is Hermitian by construction, but a BLAS product can leave its two
    # triangles ulps apart, more than eps_abs = 1e-17 allows
    tol = Tolerance(1e-17)
    full = cat.full_matrix_category([6], tol=tol)
    for seed in range(5):
        gen = np.random.default_rng(seed)
        a = gen.standard_normal((6, 6)) + 1j * gen.standard_normal((6, 6))
        w = cat.unitarize(full, a, "m0", "m0")
        assert is_unitary(w, Tolerance(1e-12))
        # w is the unitary polar factor of a, u . vh from its SVD
        u, _s, vh = np.linalg.svd(a)
        assert np.allclose(w, u @ vh)


def test_iso_exists_trivial_cases():
    full = cat.full_matrix_category([2, 3])
    yes = cat.iso_exists(full, "m0", "m0")
    assert yes.status == "YES" and np.allclose(yes.witness, np.eye(2))
    no = cat.iso_exists(full, "m0", "m1")
    assert no.status == "NO" and no.witness is None


def test_iso_exists_nilpotent_line():
    nil = np.array([[0, 1.0], [0, 0]], dtype=complex)
    c = cat.MatCStarCategory(
        [("x", 2), ("y", 2)],
        {("x", "x"): [np.eye(2, dtype=complex) / np.sqrt(2)],
         ("y", "y"): [np.eye(2, dtype=complex) / np.sqrt(2)],
         ("x", "y"): [nil]},
    )
    # hom(y, x) is zero, so the adjoint of the line is missing: a clean NO
    verdict = cat.iso_exists(c, "x", "y", seed=5)
    assert verdict.status == "NO"


def test_iso_exists_rejects_matching_dimensions_without_invertible():
    # all four hom dimensions are 1, but hom(x, y) holds no invertible
    # element, which a C*-category cannot do
    nil = np.array([[0, 1.0], [0, 0]], dtype=complex)
    eye = np.eye(2, dtype=complex) / np.sqrt(2)
    c = cat.MatCStarCategory(
        [("x", 2), ("y", 2)],
        {("x", "x"): [eye], ("y", "y"): [eye],
         ("x", "y"): [nil], ("y", "x"): [nil.conj().T]},
    )
    with pytest.raises(InvalidCategory):
        cat.iso_exists(c, "x", "y")


def test_iso_exists_matches_sector_multiplicities():
    # oracle: x and y are unitarily isomorphic iff their SectorModel
    # multiplicity vectors are equal
    rng = np.random.default_rng(1004)
    yes = 0
    for trial in range(200):
        c, model = rg.random_matcat(rng, n_objects=3)
        for x in c.object_names:
            for y in c.object_names:
                verdict = cat.iso_exists(c, x, y, seed=trial)
                same = model.multiplicities[x] == model.multiplicities[y]
                assert verdict.status == ("YES" if same else "NO"), (trial, x, y)
                assert cat.isomorphic(c, x, y) == same, (trial, x, y)
                if same:
                    yes += x != y
                    assert is_unitary(verdict.witness)
                    assert c.hom(x, y).contains(verdict.witness, c.tol)
    assert yes > 0


# ---------------------------------------------------------------------------
# natural transformation spaces


def test_nat_space_schur_dimensions():
    for n in (2, 3):
        assert commutant_dimension_oracle(n) == 1
        full = cat.full_matrix_category([n])
        ident = cat.identity_functor(full)
        assert cat.nat_space(ident, ident).dim == 1


def test_nat_space_splits_over_components():
    unit = cat.full_matrix_category([1], ["pt"])
    two = cat.disjoint_union([unit, unit], prefixes=["l_", "r_"])
    ident = cat.identity_functor(two)
    assert cat.nat_space(ident, ident).dim == 2


def test_nat_space_rigid_pair_has_dimension_zero():
    # two distinct characters of the diagonal algebra admit no intertwiner:
    # alpha * chi1(m) - chi2(m) * alpha = 0 over the two basis elements reads
    # alpha = 0 and -alpha = 0, a rank-one system in one unknown
    rows = [[1.0], [-1.0]]
    assert 1 - rank_by_elimination(rows) == 0
    diag = diag_algebra_category()
    unit = cat.full_matrix_category([1], ["pt"])
    chi1 = cat.StarFunctor(diag, unit, {"d": "pt"},
                           {("d", "d"): [np.array([[1.0]]), np.array([[0.0]])]})
    chi2 = cat.StarFunctor(diag, unit, {"d": "pt"},
                           {("d", "d"): [np.array([[0.0]]), np.array([[1.0]])]})
    assert cat.validate_functor(chi1) == [] and cat.validate_functor(chi2) == []
    assert cat.nat_space(chi1, chi2).dim == 0


def test_nat_space_members_are_natural(rng):
    full = cat.full_matrix_category([2, 2])
    ident = cat.identity_functor(full)
    space = cat.nat_space(ident, ident)
    assert space.dim == 1 and space.shape == (4, 4)
    alpha = space.basis[0]
    assert naturality_residual(alpha, ident, ident) <= 1e-9
    # the one transformation is a multiple of the identity of the carrier
    assert np.allclose(alpha, alpha[0, 0] * np.eye(4))
    # a block-diagonal matrix that is not natural is not in the space
    swap = np.kron(np.eye(2), np.array([[0, 1], [1, 0]], dtype=complex))
    assert naturality_residual(swap, ident, ident) > 0.5
    assert not space.contains(swap, full.tol)


def test_nat_space_full_8x8_fits_in_memory():
    # the system has 16,384 naturality rows, one per basis element of each
    # of the four 64-dimensional homs and coordinate of its defect, and 128
    # columns (34 MB); the U of its full SVD would have 16,384^2 complex
    # entries (4.3 GB)
    full = cat.full_matrix_category([8, 8])
    ident = cat.identity_functor(full)
    tracemalloc.start()
    try:
        dim = cat.nat_space(ident, ident).dim
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert dim == 1
    assert peak < 128 * 2**20


def test_nat_space_matches_the_dense_formulation():
    from cstarcat.suites import functor_zoo

    for seed in range(6):
        for kind, f in functor_zoo(rg.rng_from_seed(seed), 12):
            ident = cat.identity_functor(f.target)
            for a, b in ((f, f), (ident, ident)):
                got, want = cat.nat_space(a, b), dense_nat_space(a, b)
                assert got.dim == want.dim, (seed, kind)
                assert np.linalg.norm(projector(got) - projector(want)) <= 1e-8, (seed, kind)


@pytest.mark.parametrize("group, objects, classes", [
    ("z16", 2, 16),  # abelian: every element is its own class
    ("klein", 2, 4),
    ("s3", 4, 3),    # identity, transpositions, 3-cycles
])
def test_nat_space_centre_counts_conjugacy_classes(group, objects, classes):
    # the centre nat(id, id) of C*[G] has one dimension per conjugacy class;
    # the dense system for Z/16 on 2 objects needs 2 GiB, for S3 on 4 objects
    # 248 GiB
    from cstarcat import groupoids as gpd

    table = gpd.cyclic_group_table(16) if group == "z16" else rg.group_table(group)
    groupoid = gpd.connected_groupoid([f"o{i}" for i in range(objects)], table, check=False)
    ident = cat.identity_functor(gpd.cstar_max(groupoid).category)
    start = time.perf_counter()
    assert cat.nat_space(ident, ident).dim == classes
    assert time.perf_counter() - start < 1.0


def test_nat_space_z8_pair_stays_small():
    # the dense system for Z/8 on 2 objects peaked at 140 MB
    ident = cat.identity_functor(cyclic_groupoid_category(8))
    tracemalloc.start()
    try:
        dim = cat.nat_space(ident, ident).dim
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert dim == 8
    assert peak < 4 * 2**20


def test_nat_space_full_12x12_stays_small():
    # the full system has 82,944 rows and 288 columns (382 MB) and peaked at
    # 730 MB; two combinations per hom impose 1,152 of them
    ident = cat.identity_functor(cat.full_matrix_category([12, 12]))
    tracemalloc.start()
    try:
        dim = cat.nat_space(ident, ident).dim
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert dim == 1
    assert peak < 32 * 2**20


@pytest.mark.parametrize("sectors", [1, 2, 3, 4])
def test_nat_space_centre_counts_sectors(sectors):
    # Schur: the centre of a sector category is one scalar per sector that
    # some object carries
    for seed in range(5):
        c, model = rg.random_matcat(rg.rng_from_seed(seed), n_objects=3, max_dim=6,
                                    n_sectors=sectors)
        present = sum(any(m[s] for m in model.multiplicities.values())
                      for s in range(sectors))
        ident = cat.identity_functor(c)
        assert cat.nat_space(ident, ident).dim == present, seed


def test_nat_space_grows_past_a_failed_certificate(monkeypatch):
    # every first-round combination is the hom's first basis element, so the
    # first kernel holds more than nat(F, G): the certificate must fail, the
    # violating elements join the imposed rows, and the answer stays exact
    from cstarcat.suites import functor_zoo

    monkeypatch.setattr(cat, "_first_combinations", lambda dim, rng: np.repeat(
        np.eye(1, dim, dtype=complex), cat.NAT_COMBINATIONS, axis=0))
    solves = []

    def counted(m, tol):
        solves.append(m.shape)
        return kernel_rows(m, tol)

    monkeypatch.setattr(cat, "kernel_rows", counted)
    full, _ = rg.conjugate_category(rg.rng_from_seed(3), cat.full_matrix_category([3, 3]))
    cases = [(cat.identity_functor(full),) * 2]
    cases += [(f, f) for _kind, f in functor_zoo(rg.rng_from_seed(0), 12)]
    grew = 0
    for a, b in cases:
        solves.clear()
        got, want = cat.nat_space(a, b), dense_nat_space(a, b)
        assert got.dim == want.dim
        assert np.linalg.norm(projector(got) - projector(want)) <= 1e-8
        grew += len(solves) > 1
    assert grew >= 1
    # on the full category the first round imposes one element per hom
    solves.clear()
    assert cat.nat_space(*cases[0]).dim == 1
    assert len(solves) > 1 and solves[0][0] < solves[-1][0]


# ---------------------------------------------------------------------------
# tensor products


def test_tensor_with_unit_preserves_dimensions():
    a = cat.full_matrix_category([2, 3])
    t = cat.tensor_max(a, cat.full_matrix_category([1], ["pt"]))
    assert [o.dim for o in t.objects] == [o.dim for o in a.objects]
    for x in a.object_names:
        for y in a.object_names:
            assert t.hom(cat.pair_name(x, "pt"), cat.pair_name(y, "pt")).dim == \
                a.hom(x, y).dim


def test_tensor_of_full_matrix_categories():
    # oracle: the 36 Kronecker products of 2x2 and 3x3 units have full rank
    units2, units3 = [], []
    for i in range(2):
        for j in range(2):
            m = np.zeros((2, 2), dtype=complex)
            m[i, j] = 1.0
            units2.append(m)
    for i in range(3):
        for j in range(3):
            m = np.zeros((3, 3), dtype=complex)
            m[i, j] = 1.0
            units3.append(m)
    krons = [np.kron(a, b).ravel().tolist() for a in units2 for b in units3]
    assert rank_by_elimination(krons) == 36

    t = cat.tensor_max(cat.full_matrix_category([2]), cat.full_matrix_category([3]))
    assert len(t.objects) == 1 and t.objects[0].dim == 6
    assert t.hom(t.object_names[0], t.object_names[0]).dim == 36
    assert cat.validate_category(t) == []


def test_tensor_hom_dimensions_multiply_and_swap():
    a = cat.full_matrix_category([2], names=["a0"])
    b = diag_algebra_category()
    left = cat.tensor_max(a, b)
    right = cat.tensor_max(b, a)
    assert left.hom(cat.pair_name("a0", "d"), cat.pair_name("a0", "d")).dim == \
        right.hom(cat.pair_name("d", "a0"), cat.pair_name("d", "a0")).dim == 8


def test_tensor_rejects_invalid_operand():
    proj = [np.diag([1.0, 0]).astype(complex)]
    broken = cat.MatCStarCategory([("x", 2)], {("x", "x"): proj})
    with pytest.raises(InvalidCategory):
        cat.tensor_max(broken, cat.full_matrix_category([1], ["pt"]))


# ---------------------------------------------------------------------------
# exponential law


def test_curry_uncurry_round_trip_on_identity():
    a = cat.full_matrix_category([2], names=["a0"])
    b = diag_algebra_category()
    tensor = cat.tensor_max(a, b)
    ident = cat.identity_functor(tensor)
    curried = cat.curry(ident, a, b)
    for functor in curried.target.functors.values():
        assert cat.validate_functor(functor) == []
    assert cat.validate_functor(curried) == []
    back = cat.uncurry(curried)
    assert cat.functors_agree(back, ident)


def test_curry_of_tensor_unit_is_constant_embedding():
    a = cat.full_matrix_category([2], names=["a0"])
    unit = cat.full_matrix_category([1], ["pt"])
    tensor = cat.tensor_max(a, unit)
    curried = cat.curry(cat.identity_functor(tensor), a, unit)
    assert curried.object_map == {"a0": "a0"}
    constant = curried.target.functors["a0"]
    assert constant.object_map == {"pt": cat.pair_name("a0", "pt")}
    img = constant.apply("pt", "pt", np.eye(1, dtype=complex))
    assert np.allclose(img, np.eye(2))


def test_curried_transformations_obey_sup_norm_bound(rng):
    a = cat.full_matrix_category([2], names=["a0"])
    b = cat.full_matrix_category([2, 1], names=["b0", "b1"])
    tensor = cat.tensor_max(a, b)
    ident = cat.identity_functor(tensor)
    curried = cat.curry(ident, a, b)
    functors = curried.target
    space = a.hom("a0", "a0")
    for _ in range(20):
        m = space.from_coords(rng.standard_normal(space.dim)
                              + 1j * rng.standard_normal(space.dim))
        alpha = curried.apply("a0", "a0", m)
        comps = [functors.component(alpha, "a0", "a0", y) for y in b.object_names]
        # the component at y is m (x) 1_y, and the operator norm of the
        # block-diagonal arrow is the sup norm of its components
        for y, comp in zip(b.objects, comps):
            assert np.allclose(comp, np.kron(m, np.eye(y.dim)))
        sup = max(op_norm(c) for c in comps)
        assert abs(op_norm(alpha) - sup) <= 1e-9
        assert sup <= op_norm(m) + 1e-9


def random_curried_instances(seed, count):
    """Seeded A, B with 1-2 objects, F = g (x) h for conjugations g and h,
    and the curried F, as (a, h, curried)."""
    rng = rg.rng_from_seed(seed)
    for _ in range(count):
        a, _ = rg.random_matcat(rng, n_objects=int(rng.integers(1, 3)), max_dim=3,
                                prefix="a")
        b, _ = rg.random_matcat(rng, n_objects=int(rng.integers(1, 3)), max_dim=3,
                                prefix="b")
        _target, g = rg.conjugate_category(rng, a)
        _target2, h = rg.conjugate_category(rng, b, prefix="d")
        functor = cat.tensor_functor(g, h)
        yield a, h, cat.curry(functor, a, b)


def test_functor_category_and_curried_functor_validate():
    for a, _h, curried in random_curried_instances(41, 8):
        assert isinstance(curried.target, cat.FunctorCategory)
        assert curried.target.object_names == a.object_names
        assert cat.validate_category(curried.target) == []
        assert cat.validate_functor(curried) == []


def test_curried_hom_dimensions_multiply():
    # nat(g(x) (x) h, g(x') (x) h) = hom(gx, gx') (x) nat(h, h), and a
    # conjugation g keeps hom dimensions
    for a, h, curried in random_curried_instances(43, 8):
        nat_hh = cat.nat_space(h, h).dim
        for x, x2 in a.pairs():
            assert curried.target.hom(x, x2).dim == a.hom(x, x2).dim * nat_hh


def test_functor_category_rejects_functors_that_are_not_parallel():
    one = cat.identity_functor(cat.full_matrix_category([2], names=["p"]))
    other = cat.identity_functor(cat.full_matrix_category([2], names=["q"]))
    with pytest.raises(NotParallel):
        cat.FunctorCategory({"one": one, "other": other})


# ---------------------------------------------------------------------------
# norm behavior of functors


def test_functors_are_norm_decreasing_and_faithful_isometric(rng):
    u = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0]
    full = cat.full_matrix_category([2])
    conj = conjugated_full_category(u)
    images = [u @ m @ u.conj().T for m in full.hom("m0", "m0").basis]
    functor = cat.StarFunctor(full, conj, {"m0": "c"}, {("m0", "m0"): images})
    assert cat.validate_functor(functor) == []
    space = full.hom("m0", "m0")
    for _ in range(50):
        m = space.from_coords(rng.standard_normal(4) + 1j * rng.standard_normal(4))
        img = functor.apply("m0", "m0", m)
        assert op_norm(img) <= op_norm(m) + 1e-9
        # conjugation is injective on homs, hence isometric
        assert abs(op_norm(img) - op_norm(m)) <= 1e-8


def test_from_json_keeps_an_orthonormal_basis_and_respans_any_other(rng):
    u = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0]
    basis = [u @ np.diag(d) @ u.conj().T for d in ([1.0, 0.0], [0.0, 1.0])]
    data = {"objects": [{"name": "x", "dim": 2}, {"name": "pt", "dim": 1}],
            "homs": {"x|x": matrix_to_json(np.stack(basis)),
                     "pt|pt": [matrix_to_json(2 * np.eye(1))]}}
    c = cat.MatCStarCategory.from_json(data)
    assert np.array_equal(c.hom("x", "x").basis, np.stack(basis))
    assert np.array_equal(c.hom("pt", "pt").basis, [np.eye(1)])
    data["homs"]["pt|pt"] = [[[[float("nan"), 0.0]]]]
    with pytest.raises(InvalidMatrix):
        cat.MatCStarCategory.from_json(data)


def test_category_json_round_trip():
    a = cat.full_matrix_category([2, 3])
    blob = a.to_json()
    again = cat.MatCStarCategory.from_json(blob)
    assert again.to_json() == blob
    f = cat.identity_functor(a)
    fblob = f.to_json()
    f2 = cat.StarFunctor.from_json(fblob)
    assert f2.to_json() == fblob
