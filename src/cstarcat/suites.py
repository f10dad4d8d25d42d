"""Verification suites: seeded end-to-end runs of the model-category,
monoidality, simplicial and adjunction properties, emitting report entries.

Each suite is deterministic in its seed and runs fixed counts of rounds.
Every instance is built with the suite's ``tol``, whose bounds judge every
residual.
"""

from __future__ import annotations

import numpy as np

from . import model as md
from . import randgen as rg
from .categories import (
    curry,
    disjoint_union,
    functors_agree,
    inclusion_functor,
    tensor_functor,
    tensor_max,
    uncurry,
    validate_category,
    validate_functor,
)
from .coset import DEFAULT_BUDGET
from .errors import CStarCatError, NotFiniteWithinBound
from .groupoids import (
    adjunction_extend,
    adjunction_restrict,
    comparison_functor,
    connected_groupoid,
    cstar_max,
    cyclic_groupoid,
    cyclic_group_table,
    fundamental_groupoid,
    interval_groupoid,
    normalize_fp,
    terminal_groupoid,
)
from .homotopy import cotensor, pi, pi_map, tensor_with_sset
from .linalg import DEFAULT_TOL, Tolerance, op_norm
from .reports import CheckEntry
from .simplicial import horn_inclusion, standard


def monoidality_groupoids():
    """The five bundled groupoids of the monoidality checks."""
    return {
        "terminal": terminal_groupoid(),
        "interval": interval_groupoid(),
        "z2": cyclic_groupoid(2),
        "z3": cyclic_groupoid(3),
        "pair_z2": connected_groupoid(["p0", "p1"], cyclic_group_table(2)),
    }


def functor_zoo(rng: np.random.Generator, count: int, tol: Tolerance = DEFAULT_TOL):
    """A labeled mix of functors covering full / non-full, faithful /
    non-faithful, object-surjective / non-surjective cases."""
    out = []
    kinds = ["weq", "conjugation", "padding", "fattening", "projection", "fold"]
    while len(out) < count:
        kind = kinds[len(out) % len(kinds)]
        if kind == "weq":
            cat, _ = rg.random_matcat(rng, n_objects=int(rng.integers(1, 3)),
                                      max_dim=4, tol=tol)
            out.append((kind, rg.random_weq(rng, cat, n_extra=1)))
        elif kind == "conjugation":
            cat, _ = rg.random_matcat(rng, n_objects=2, max_dim=4, tol=tol)
            out.append((kind, rg.conjugate_category(rng, cat)[1]))
        elif kind == "padding":
            cat, _ = rg.random_matcat(rng, n_objects=2, max_dim=3, tol=tol)
            out.append((kind, rg.padding_functor(rng, cat)))
        elif kind == "fattening":
            cat, model = rg.random_matcat(rng, n_objects=2, max_dim=3, tol=tol)
            out.append((kind, rg.fattening_functor(cat, model)))
        elif kind == "projection":
            cat, model = rg.random_matcat(rng, n_objects=2, max_dim=4,
                                          n_sectors=2, tol=tol)
            if not all(m[0] >= 1 for m in model.multiplicities.values()):
                continue
            out.append((kind, rg.sector_projection_functor(model, keep=0)))
        else:  # fold of a two-copy union onto one copy
            cat, _ = rg.random_matcat(rng, n_objects=1, max_dim=3, tol=tol)
            two = disjoint_union([cat, cat], prefixes=["l_", "r_"], tol=cat.tol)
            fold = {pre + x: x for pre in ("l_", "r_") for x in cat.object_names}
            out.append((kind, inclusion_functor(two, cat, fold)))
    return out


def _unbuilt(name: str, err: CStarCatError) -> CheckEntry:
    """The failing entry of a round whose instances cannot be built."""
    return CheckEntry(name, "fail", detail=f"{type(err).__name__}: {err}")


def _checked(name: str, check) -> CheckEntry:
    """The entry of a pass/fail ``check()``, or ``_unbuilt`` if it raises."""
    try:
        return CheckEntry(name, "pass" if check() else "fail")
    except CStarCatError as err:
        return _unbuilt(name, err)


# ---------------------------------------------------------------------------
# suites


def suite_mc(seed: int = 0, tol: Tolerance = DEFAULT_TOL):
    """MC2-MC5 at reduced scale: factorizations, lifts, retracts, 2-of-3 and
    the RLP agreement checks."""
    rng = rg.rng_from_seed(seed)
    entries = []

    for idx in range(10):
        cat, _ = rg.random_matcat(rng, n_objects=int(rng.integers(1, 3)),
                                  max_dim=4, tol=tol)
        functor = rg.random_weq(rng, cat, n_extra=1)
        path = md.factor_path(functor)
        cylinder = md.factor_cylinder(functor)
        weq = md.is_weak_equivalence(path.first)
        ok = (md.is_cofibration(path.first) and weq.status == "YES"
              and md.is_cofibration(cylinder.first)
              and md.is_trivial_fibration(cylinder.second)
              and not validate_category(path.midway)
              and not validate_category(cylinder.midway))
        residual = max(path.composite_residual(functor),
                       cylinder.composite_residual(functor))
        entries.append(CheckEntry(
            f"mc5[{idx}]", "pass" if ok and residual <= tol.composite else "fail",
            residual=residual))

    for idx in range(10):
        cat, _ = rg.random_matcat(rng, n_objects=2, max_dim=3, tol=tol)
        functor = rg.random_weq(rng, cat, n_extra=1)
        try:
            path = md.factor_path(functor)
            cylinder = md.factor_cylinder(functor)
            square = md.LiftingSquare(top=cylinder.first, left=path.first,
                                      right=cylinder.second, bottom=path.second)
            lift1 = md.lift_tcof_fib(square)
            lift2 = md.lift_cof_tfib(square)
        except CStarCatError as err:
            entries.append(_unbuilt(f"mc4[{idx}]", err))
            continue
        residual = max(*square.triangle_residuals(lift1),
                       *square.triangle_residuals(lift2))
        entries.append(CheckEntry(
            f"mc4[{idx}]", "pass" if residual <= tol.composite else "fail",
            residual=residual))

    zoo = functor_zoo(rng, 24, tol)
    entries.extend(
        CheckEntry(f"rlp[{i}]:{kind}", entry["status"], detail=entry.get("detail", ""))
        for i, ((kind, functor), entry) in enumerate(
            zip(zoo, md.axiom_harness("rlp_equiv", [f for _k, f in zoo]))))

    pairs = []
    for _ in range(10):
        cat, _ = rg.random_matcat(rng, n_objects=2, max_dim=3, tol=tol)
        f = rg.random_weq(rng, cat, n_extra=1)
        g = rg.random_weq(rng, f.target, n_extra=1, prefix="v")
        pairs.append((f, g))
    for entry in md.axiom_harness("two_of_three", pairs):
        entries.append(CheckEntry(entry["name"], entry["status"],
                                  detail=entry.get("detail", "")))

    retracts = []
    for _ in range(6):
        cat, _ = rg.random_matcat(rng, n_objects=1, max_dim=3, tol=tol)
        small = rg.random_weq(rng, cat, n_extra=1)
        big, i, p, j, q = rg.build_retract(small)
        retracts.append({"big": big, "small": small, "i": i, "p": p,
                         "j": j, "q": q})
    for entry in md.axiom_harness("retract", retracts):
        entries.append(CheckEntry(entry["name"], entry["status"],
                                  residual=entry.get("residual"),
                                  detail=entry.get("detail", "")))
    return entries


def suite_monoidal(seed: int = 0, tol: Tolerance = DEFAULT_TOL):
    """Comparison isomorphisms for all pairs of the bundled groupoids, plus
    pushout-product object checks on generated cofibrations."""
    rng = rg.rng_from_seed(seed)
    entries = []
    groupoids = monoidality_groupoids()
    for name1, g1 in groupoids.items():
        for name2, g2 in groupoids.items():
            _functor, verdict = comparison_functor(g1, g2, tol=tol)
            entries.append(CheckEntry(f"comparison[{name1},{name2}]",
                                      "pass" if verdict.isomorphism else "fail",
                                      residual=verdict.functor_residual))
    for idx in range(6):
        cat, _ = rg.random_matcat(rng, n_objects=2, max_dim=3, tol=tol)
        f = rg.padding_functor(rng, cat)
        cat2, _ = rg.random_matcat(rng, n_objects=1, max_dim=3, prefix="s", tol=tol)
        f2 = rg.padding_functor(rng, cat2)
        verdict = md.pushout_product_objects(f, f2)
        entries.append(CheckEntry(f"pushout_product[{idx}]",
                                  "pass" if verdict.injective else "fail"))
    return entries


def suite_simplicial(seed: int = 0, budget: int = DEFAULT_BUDGET,
                     tol: Tolerance = DEFAULT_TOL):
    """Quillen-pair content: horn inclusions, the interval identification,
    the circle obstruction, and tensor/cotensor sanity. A check that cannot
    be built within ``tol`` is a failing entry."""
    entries = []
    for n in (2, 3):
        for k in range(n + 1):
            entries.append(_checked(
                f"pi_horn_iso[{n},{k}]",
                lambda: pi_map(horn_inclusion(n, k, dim_cap=3), bound=budget,
                               tol=tol)[1].is_isomorphism()))
    edge = normalize_fp(fundamental_groupoid(standard("delta", 1, dim_cap=2)),
                        budget)
    ok = edge.finite and edge.groupoid.is_isomorphic_to(interval_groupoid())
    entries.append(CheckEntry("pi_edge_is_interval", "pass" if ok else "fail"))
    try:
        pi(standard("boundary", 2), bound=budget, tol=tol)
        entries.append(CheckEntry("pi_circle_unbounded", "fail",
                                  detail="expected NotFiniteWithinBound"))
    except NotFiniteWithinBound:
        entries.append(CheckEntry("pi_circle_unbounded", "pass"))

    rng = rg.rng_from_seed(seed)
    cat, _ = rg.random_matcat(rng, n_objects=2, max_dim=3, tol=tol)

    def tensor_unit_dims():
        tensored = tensor_with_sset(cat, standard("delta", 0, dim_cap=2), bound=budget)
        return sorted(o.dim for o in tensored.objects) == sorted(o.dim for o in cat.objects)

    def cotensor_point_homs():
        cotensored = cotensor(cat, standard("delta", 0, dim_cap=2), bound=budget)
        return all(cotensored.hom(x, y).dim == cat.hom(x, y).dim for x, y in cat.pairs())

    entries.append(_checked("tensor_unit_dims", tensor_unit_dims))
    entries.append(_checked("cotensor_point_homs", cotensor_point_homs))
    return entries


def suite_adjunctions(seed: int = 0, tol: Tolerance = DEFAULT_TOL):
    """Groupoid adjunction round trips and the exponential law. A round
    whose instances cannot be built within ``tol`` is a failing entry; its
    draws are all made before the first check, so later rounds see the same
    instances either way."""
    rng = rg.rng_from_seed(seed)
    entries = []
    for idx in range(10):
        groupoid = rg.random_groupoid(rng, n_objects=2, max_order=4)
        gc = cstar_max(groupoid, tol=tol)
        try:
            rep = rg.random_unitary_rep(rng, groupoid, gc)
            functor = adjunction_extend(gc, rep)
            back = adjunction_restrict(gc, functor)
        except CStarCatError as err:
            entries.append(_unbuilt(f"adjunction[{idx}]", err))
            continue
        residual = max(
            float(np.linalg.norm(back.arrow_map[g] - rep.arrow_map[g]))
            for g in groupoid.arrows)
        again = adjunction_extend(gc, back)
        ok = functors_agree(again, functor) and back.object_map == rep.object_map
        entries.append(CheckEntry(
            f"adjunction[{idx}]", "pass" if ok and residual <= tol.eps_abs else "fail",
            residual=residual))

    for idx in range(6):
        a, _ = rg.random_matcat(rng, n_objects=1, max_dim=2, prefix="a", tol=tol)
        b, _ = rg.random_matcat(rng, n_objects=1, max_dim=2, prefix="b", tol=tol)
        _target, g = rg.conjugate_category(rng, a)
        _target2, h = rg.conjugate_category(rng, b, prefix="d")
        tensor = tensor_max(a, b, check=False)
        functor = tensor_functor(g, h, tensor)
        curried = curry(functor, a, b)
        back = uncurry(curried, tensor)
        ok = (functors_agree(back, functor)
              and not validate_category(curried.target)
              and not validate_functor(curried))
        worst = 0.0
        for (x, x2), space in a.homs.items():
            for alpha, m in zip(curried.hom_maps[(x, x2)], space.basis):
                worst = max(worst, op_norm(alpha) - op_norm(m))
        entries.append(CheckEntry(
            f"exponential[{idx}]",
            "pass" if ok and worst <= tol.eps_abs else "fail",
            residual=max(worst, 0.0)))
    return entries
