"""Executable content of the unitary model structure.

Cofibrations are functors injective on objects; weak equivalences are
decided as fully faithful (rank checks) plus unitarily essentially
surjective (hom dimensions, see ``iso_exists``); trivial fibrations are
fully faithful and surjective on objects.
Fibration-hood is exposed only operationally, through the unitary-lift
solver, since the universally quantified lifting condition is not finitely
checkable.

The two factorizations follow the classical path/cylinder shapes: the path
midway category has one object (x, 1_Fx, Fx) per source object, with homs
borrowed from the source; the cylinder midway has the disjoint union of both
object sets with homs pulled back along the functor.

All nonconstructive choices (preimages, quasi-inverse object choices, lift
witnesses) are made deterministic: declaration order and seeded sampling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .categories import (
    MatCStarCategory,
    StarFunctor,
    compose_functors,
    functor_distance,
    functors_agree,
    hom_map_ranks,
    identity_functor,
    inclusion_functor,
    iso_exists,
    unitarize,
)
from .errors import (
    LiftObstruction,
    NotAWeakEquivalence,
    PreconditionFailed,
    SquareMismatch,
)
from . import linalg
from .linalg import as_matrix
from .presentations import UnionFind


# ---------------------------------------------------------------------------
# class predicates


def is_cofibration(functor: StarFunctor) -> bool:
    """Injective on objects, checked exactly."""
    images = list(functor.object_map.values())
    return len(set(images)) == len(images)


def is_fully_faithful(functor: StarFunctor):
    """(verdict, witness pair or None): every hom map bijective, by ranks."""
    for x, y, sdim, tdim, rank in hom_map_ranks(functor):
        if rank != sdim or rank != tdim:
            return False, (x, y)
    return True, None


@dataclass
class WeqVerdict:
    status: str                  # "YES" | "NO"
    witnesses: dict | None = None  # y -> (x, unitary Fx -> y)
    failure: tuple | None = None
    reason: str = ""

    def __bool__(self):
        return self.status == "YES"


def is_weak_equivalence(functor: StarFunctor, seed: int = 0) -> WeqVerdict:
    """Fully faithful plus unitarily essentially surjective, both exact.

    Full faithfulness is decided by rank checks. Essential surjectivity asks
    ``iso_exists``, per target object, for a unitary isomorphism from the
    first image object that admits one; the seed only picks the witnesses.
    """
    ff, witness = is_fully_faithful(functor)
    if not ff:
        return WeqVerdict("NO", failure=witness, reason="hom map not bijective")
    target = functor.target
    image = {}
    for x in functor.source.object_names:
        image.setdefault(functor.object_map[x], x)
    witnesses = {}
    for j, y in enumerate(target.object_names):
        if y in image:
            witnesses[y] = (image[y], target.identity(y))
            continue
        for i, x in enumerate(functor.source.object_names):
            verdict = iso_exists(target, functor.object_map[x], y,
                                 seed=seed * 7919 + 31 * j + i)
            if verdict:
                witnesses[y] = (x, verdict.witness)
                break
        else:
            return WeqVerdict("NO", failure=(y,),
                              reason="no candidate object can be isomorphic")
    return WeqVerdict("YES", witnesses=witnesses)


def is_trivial_fibration(functor: StarFunctor) -> bool:
    """Fully faithful and surjective on objects; fully deterministic."""
    surjective = set(functor.object_map.values()) == set(functor.target.object_names)
    return surjective and is_fully_faithful(functor)[0]


def rlp_generating(functor: StarFunctor, which: str) -> bool:
    """Right lifting property against the three generating cofibrations,
    through their proven characterizations: U (object surjectivity), V
    (fullness), W (faithfulness)."""
    if which == "U":
        return set(functor.object_map.values()) == set(functor.target.object_names)
    if which == "V":
        return all(rank == tdim for _x, _y, _sdim, tdim, rank in hom_map_ranks(functor))
    if which == "W":
        return all(rank == sdim for _x, _y, sdim, _tdim, rank in hom_map_ranks(functor))
    raise ValueError(f"unknown generating cofibration {which!r}")


# ---------------------------------------------------------------------------
# unitary lifts and quasi-inverses


def solve_unitary_lift(functor: StarFunctor, x: str, v, y: str):
    """Lift a unitary v: Fx -> y through the functor.

    Searches the preimages x' of y in declaration order, solves F(a) = v
    linearly on hom(x, x'), and polar-corrects an invertible solution; the
    functor then carries the correction to v (v*v)^(-1/2) = v, so F(u) = v.
    Every comparison is judged by the functor's tolerance. Returns (u, x')
    or None.
    """
    tol = functor.tol
    src, tgt = functor.source, functor.target
    fx = functor.object_map[x]
    v = as_matrix(v)
    if v.shape[1] != tgt.obj(fx).dim:
        raise SquareMismatch(f"unitary domain does not match F({x!r})")
    v = as_matrix(v, tgt.obj(y).dim, tgt.obj(fx).dim)
    if not linalg.is_unitary(v, tol):
        return None
    for x2 in src.object_names:
        if functor.object_map[x2] != y:
            continue
        space = src.hom(x, x2)
        if space.dim == 0:
            continue
        hom = tgt.hom(fx, y)
        if not hom.contains(v, tol):
            continue
        coord = functor.coord_matrix(x, x2)
        rhs = hom.coords(v)
        sol, *_ = np.linalg.lstsq(coord, rhs, rcond=None)
        if float(np.linalg.norm(coord @ sol - rhs)) > tol.bound(1.0):
            continue
        a = space.from_coords(sol)
        if linalg.smallest_singular_value(a) <= tol.eps_abs:
            continue
        u = unitarize(src, a, x, x2)
        if tol.close(functor.apply(x, x2, u), v):
            return u, x2
    return None


def quasi_inverse(functor: StarFunctor, seed: int = 0):
    """A quasi-inverse G with unitary natural isomorphisms u: GF -> id and
    v: FG -> id. When F is injective on objects the witnesses are chosen so
    that GF is the identity on objects and v is the identity on the image.

    Returns (G, u, v), with u and v as dicts of components by object."""
    verdict = is_weak_equivalence(functor, seed=seed)
    if verdict.status != "YES":
        raise NotAWeakEquivalence(f"verdict {verdict.status}: {verdict.reason}")
    src, tgt = functor.source, functor.target
    g_objects = {y: verdict.witnesses[y][0] for y in tgt.object_names}
    v_units = {y: verdict.witnesses[y][1] for y in tgt.object_names}

    def f_inverse(x: str, x2: str, m):
        space = src.hom(x, x2)
        hom = tgt.hom(functor.object_map[x], functor.object_map[x2])
        coord = functor.coord_matrix(x, x2)
        sol, *_ = np.linalg.lstsq(coord, hom.coords(m), rcond=None)
        return space.from_coords(sol)

    hom_maps = {}
    for (y, y2), space in tgt.homs.items():
        gx, gx2 = g_objects[y], g_objects[y2]
        hom_maps[(y, y2)] = [f_inverse(gx, gx2, v_units[y2].conj().T @ b @ v_units[y])
                             for b in space.basis]
    g = StarFunctor(tgt, src, g_objects, hom_maps, tol=functor.tol)

    u = {}
    for x in src.object_names:
        fx = functor.object_map[x]
        u[x] = f_inverse(g_objects[fx], x, v_units[fx])
    return g, u, v_units


# ---------------------------------------------------------------------------
# lifting squares


@dataclass
class LiftingSquare:
    """A commuting square top: A -> C, left: A -> B, right: C -> D,
    bottom: B -> D with right . top = bottom . left."""

    top: StarFunctor
    left: StarFunctor
    right: StarFunctor
    bottom: StarFunctor

    def __post_init__(self):
        around_top = compose_functors(self.right, self.top)
        around_bottom = compose_functors(self.bottom, self.left)
        if around_top.object_map != around_bottom.object_map:
            raise SquareMismatch("square does not commute on objects")
        if not functors_agree(around_top, around_bottom):
            raise SquareMismatch("square does not commute on matrices")

    def triangle_residuals(self, lift: StarFunctor) -> tuple[float, float]:
        """(max residual of lift.left vs top, of right.lift vs bottom)."""
        first = compose_functors(lift, self.left)
        second = compose_functors(self.right, lift)
        return (functor_distance(first, self.top),
                functor_distance(second, self.bottom))


def lift_tcof_fib(square: LiftingSquare, seed: int = 0) -> StarFunctor:
    """Lift when the left leg is a trivial cofibration and the right leg
    answers unitary-lift queries through ``solve_unitary_lift``.

    Follows the constructive recipe: choose a quasi-inverse F' of the left
    leg with F'F = id and identity witnesses on the image, lift the unitaries
    V(v_x) through the right leg to objects Lx with witnesses w_x, and set
    L(b) = w_{x'} . U F'(b) . w_x* (so LF = U on the nose on objects).
    """
    f, u_top, g, v_bottom = square.left, square.top, square.right, square.bottom
    if not is_cofibration(f):
        raise PreconditionFailed("left leg is not a cofibration")
    f_prime, _u, v = quasi_inverse(f, seed=seed)

    image = {f.object_map[z]: z for z in f.source.object_names}
    obj_map, w_units = {}, {}
    for x in f.target.object_names:
        if x in image:
            z = image[x]
            obj_map[x] = u_top.object_map[z]
            w_units[x] = u_top.target.identity(obj_map[x])
            continue
        y_x = u_top.object_map[f_prime.object_map[x]]
        v_x = v[x]  # unitary FF'x -> x in B
        vv = v_bottom.apply(f.object_map[f_prime.object_map[x]], x, v_x)
        lifted = solve_unitary_lift(g, y_x, vv, v_bottom.object_map[x])
        if lifted is None:
            raise LiftObstruction(f"no unitary lift over object {x!r}", obj=x)
        w_units[x], obj_map[x] = lifted

    hom_maps = {}
    for (x, x2), space in f.target.homs.items():
        fx, fx2 = f_prime.object_map[x], f_prime.object_map[x2]
        hom_maps[(x, x2)] = [
            w_units[x2] @ u_top.apply(fx, fx2, f_prime.apply(x, x2, b)) @ w_units[x].conj().T
            for b in space.basis]
    return StarFunctor(f.target, u_top.target, obj_map, hom_maps, tol=f.tol)


def lift_unitary_by_search(functor: StarFunctor, x: str, v):
    """Unitary-lift oracle backed by the generic solver: no codomain object
    is prescribed, every target object of matching dimension is tried."""
    tgt = functor.target
    for y in tgt.object_names:
        if tgt.obj(y).dim != np.asarray(v).shape[0]:
            continue
        lifted = solve_unitary_lift(functor, x, v, y)
        if lifted is not None:
            return lifted
    return None


def lift_cof_tfib(square: LiftingSquare) -> StarFunctor:
    """Lift when the left leg is a cofibration and the right leg a trivial
    fibration: objects by first-preimage choice (respecting the top leg on
    the image), homs by inverting the right leg's hom bijections against the
    bottom leg."""
    f, u_top, g, v_bottom = square.left, square.top, square.right, square.bottom
    if not is_cofibration(f):
        raise PreconditionFailed("left leg is not a cofibration")
    if not is_trivial_fibration(g):
        raise PreconditionFailed("right leg is not a trivial fibration")
    image = {f.object_map[z]: z for z in f.source.object_names}
    obj_map = {}
    for x in f.target.object_names:
        if x in image:
            obj_map[x] = u_top.object_map[image[x]]
        else:
            vx = v_bottom.object_map[x]
            obj_map[x] = next(c for c in g.source.object_names
                              if g.object_map[c] == vx)
    hom_maps = {}
    for (x, x2), space in f.target.homs.items():
        cx, cx2 = obj_map[x], obj_map[x2]
        c_space = g.source.hom(cx, cx2)
        coord = g.coord_matrix(cx, cx2)
        d_space = g.target.hom(g.object_map[cx], g.object_map[cx2])
        images = []
        for b in space.basis:
            vb = v_bottom.apply(x, x2, b)
            sol, *_ = np.linalg.lstsq(coord, d_space.coords(vb), rcond=None)
            images.append(c_space.from_coords(sol))
        hom_maps[(x, x2)] = images
    return StarFunctor(f.target, g.source, obj_map, hom_maps, tol=f.tol)


# ---------------------------------------------------------------------------
# the two factorizations


@dataclass
class FactorizationResult:
    first: StarFunctor
    midway: MatCStarCategory
    second: StarFunctor

    def composite_residual(self, original: StarFunctor) -> float:
        return functor_distance(compose_functors(self.second, self.first), original)


def factor_path(functor: StarFunctor) -> FactorizationResult:
    """F = P . I with I a trivial cofibration and P a fibration.

    The midway has one object per object x of A, the triple (x, 1_Fx, Fx),
    named "(x,Fx#0)" and carrying the homs of A. I is fully faithful with
    identity hom maps, and P sends (x, 1_Fx, Fx) to Fx and a to F(a).
    """
    src, tgt = functor.source, functor.target
    names = {x: f"({x},{functor.object_map[x]}#0)" for x in src.object_names}
    homs, p_hom_maps = {}, {}
    for x1, name1 in names.items():
        for x2, name2 in names.items():
            space = src.homs.get((x1, x2))
            if space is None:
                continue
            homs[(name1, name2)] = space
            p_hom_maps[(name1, name2)] = [functor.apply(x1, x2, b) for b in space.basis]
    objects = [(names[x], src.obj(x).dim) for x in src.object_names]
    midway = MatCStarCategory(objects, homs, tol=functor.tol)

    i_functor = inclusion_functor(src, midway, names)
    p_obj = {names[x]: functor.object_map[x] for x in src.object_names}
    p_functor = StarFunctor(midway, tgt, p_obj, p_hom_maps, tol=src.tol)
    return FactorizationResult(i_functor, midway, p_functor)


def factor_cylinder(functor: StarFunctor) -> FactorizationResult:
    """F = Q . J with J a cofibration and Q a trivial fibration.

    The midway category has objects ob A + ob B; homs are those of B pulled
    back along F on the A side, so Q is the identity on every hom space and
    J acts by F."""
    src, tgt = functor.source, functor.target

    def side_a(x):
        return f"a:{x}"

    def side_b(y):
        return f"b:{y}"

    def in_b(name):
        return functor.object_map[name[2:]] if name.startswith("a:") else name[2:]

    objects = [(side_a(x), tgt.obj(functor.object_map[x]).dim)
               for x in src.object_names]
    objects += [(side_b(y), tgt.obj(y).dim) for y in tgt.object_names]
    names = [n for n, _ in objects]
    homs = {}
    for n1 in names:
        for n2 in names:
            space = tgt.homs.get((in_b(n1), in_b(n2)))
            if space is not None:
                homs[(n1, n2)] = space
    midway = MatCStarCategory(objects, homs, tol=src.tol)

    j_obj = {x: side_a(x) for x in src.object_names}
    j_hom_maps = {}
    for (x, x2), space in src.homs.items():
        j_hom_maps[(x, x2)] = [functor.apply(x, x2, b) for b in space.basis]
    j_functor = StarFunctor(src, midway, j_obj, j_hom_maps, tol=src.tol)

    q_functor = inclusion_functor(midway, tgt, {n: in_b(n) for n in names})
    return FactorizationResult(j_functor, midway, q_functor)


# ---------------------------------------------------------------------------
# pushout-product on objects


@dataclass
class PushoutProductVerdict:
    injective: bool
    pushout_size: int
    witness: tuple | None = None


def pushout_product_objects(f: StarFunctor, f2: StarFunctor) -> PushoutProductVerdict:
    """Set-level pushout of (ob B x ob A') <- (ob A x ob A') -> (ob A x ob B')
    and injectivity of the induced map into ob B x ob B'."""
    left = [("L", b, a2) for b in f.target.object_names
            for a2 in f2.source.object_names]
    right = [("R", a, b2) for a in f.source.object_names
             for b2 in f2.target.object_names]
    glued = UnionFind(left + right)
    for a in f.source.object_names:
        for a2 in f2.source.object_names:
            glued.union(("L", f.object_map[a], a2), ("R", a, f2.object_map[a2]))

    def induced(e):
        tag, p, q = e
        if tag == "L":
            return (p, f2.object_map[q])
        return (f.object_map[p], q)

    classes: dict = {}
    for e in left + right:
        classes.setdefault(glued.find(e), e)
    seen: dict = {}
    for rep in sorted(classes):
        target = induced(classes[rep])
        if target in seen:
            return PushoutProductVerdict(False, len(classes),
                                         witness=(seen[target], classes[rep]))
        seen[target] = classes[rep]
    return PushoutProductVerdict(True, len(classes))


# ---------------------------------------------------------------------------
# axiom harnesses


def axiom_harness(kind: str, instances) -> list[dict]:
    """Run one of the model-axiom suites over supplied instances; returns a
    list of per-check entries with status pass/fail. Residuals are judged
    against the composite bound of the judged functor's tolerance."""
    entries = []
    if kind == "two_of_three":
        for idx, (f, g) in enumerate(instances):
            gf = compose_functors(g, f)
            verdicts = {"F": is_weak_equivalence(f), "G": is_weak_equivalence(g),
                        "GF": is_weak_equivalence(gf)}
            yes = sum(1 for v in verdicts.values() if v)
            status = "fail" if yes == 2 else "pass"
            detail = ",".join(f"{k}={v.status}" for k, v in verdicts.items())
            entries.append({"name": f"two_of_three[{idx}]", "status": status,
                            "detail": detail})
    elif kind == "retract":
        for idx, inst in enumerate(instances):
            big, small = inst["big"], inst["small"]
            residual = max(
                functor_distance(compose_functors(inst["p"], inst["i"]),
                                 identity_functor(small.source)),
                functor_distance(compose_functors(inst["q"], inst["j"]),
                                 identity_functor(small.target)),
            )
            big_v = is_weak_equivalence(big)
            small_v = is_weak_equivalence(small)
            ok = residual <= small.tol.composite and big_v and small_v
            status = "pass" if ok else "fail"
            entries.append({"name": f"retract[{idx}]", "status": status,
                            "residual": residual,
                            "detail": f"retract={small_v.status}"})
    elif kind == "rlp_equiv":
        for idx, functor in enumerate(instances):
            direct = is_trivial_fibration(functor)
            via_rlp = all(rlp_generating(functor, w) for w in ("U", "V", "W"))
            entries.append({
                "name": f"rlp_equiv[{idx}]",
                "status": "pass" if direct == via_rlp else "fail",
                "detail": f"direct={direct},rlp={via_rlp}",
            })
    else:
        raise ValueError(f"unknown harness kind {kind!r}")
    return entries
