"""Executable content of the unitary model structure.

Cofibrations are functors injective on objects; weak equivalences are
decided as fully faithful (rank checks) plus unitarily essentially
surjective (hom dimensions, see ``isomorphic``); trivial fibrations are
fully faithful and surjective on objects.

Fibrations are defined by unitary lifting: every unitary v: Fx -> y lifts
to a unitary u: x -> x' with F(u) = v. One v lifts if and only if
v = F(a) for some a in hom(x, x') with x' isomorphic to x and Fx' = y, and
then by a closed formula. The kernel of F on End(x) is a two-sided ideal
(1 - z) End(x) with z a central projection, and z is the least-norm
preimage of 1_Fx. For a unitary u0: x -> x' the kernel on hom(x, x') is
u0 (1 - z) End(x), so the least-norm preimage a of v lies in u0 z End(x),
where F is injective; F(a*a) = v*v = 1 = F(z) gives a*a = z, and
u = a + u0 (1 - z) is a unitary in hom(x, x') with F(u) = v. Every unitary
lift lies in such a hom(x, x'), so the construction is complete.

Between categories with finitely many objects fibrations are decided
exactly: F is a fibration if and only if (i) every End(x) -> End(Fx) is
onto, and (ii) for every x and every y isomorphic to Fx some x' isomorphic
to x has Fx' = y. Sufficiency: for v: Fx -> y, (ii) gives such an x' and a
unitary u0: x -> x', and F(hom(x, x')) = F(u0) End(Fx) = hom(Fx, y) by
(i), so v lifts by the construction. Necessity of (ii) is the lifting
itself. Necessity of (i): the lifts of the unitaries of End(Fx) over Fx
itself lie in the finitely many hom(x, x') with Fx' = Fx, so U(End Fx) is
a finite union of closed cosets of the compact group F(U(End x)). By
Baire one coset has interior, so that group is open in the connected
group U(End Fx), hence all of it, and the unitaries span End(Fx). With
infinitely many objects the condition is not finitely checkable.

Every class predicate is a function of the object map, the hom-map ranks
and the hom dimensions; unitary witnesses are built only where a
construction reads them.

The two factorizations follow the classical path/cylinder shapes: the path
midway category has one object (x, 1_Fx, Fx) per source object, with homs
borrowed from the source; the cylinder midway has the disjoint union of both
object sets with homs pulled back along the functor.

All nonconstructive choices are made deterministic: preimages are
least-norm (``StarFunctor.preimage``), objects are chosen in declaration
order, and unitary witnesses are seeded samples of ``iso_exists``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .categories import (
    MatCStarCategory,
    StarFunctor,
    compose_functors,
    functor_distance,
    functors_agree,
    hom_map_rank,
    hom_map_ranks,
    identity_functor,
    inclusion_functor,
    iso_exists,
    isomorphic,
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
    failure: tuple | None = None
    reason: str = ""

    def __bool__(self):
        return self.status == "YES"


def is_weak_equivalence(functor: StarFunctor) -> WeqVerdict:
    """Fully faithful plus unitarily essentially surjective, both exact.

    Full faithfulness is decided by rank checks, essential surjectivity by
    ``isomorphic`` between each target object and the image objects.
    """
    ff, witness = is_fully_faithful(functor)
    if not ff:
        return WeqVerdict("NO", failure=witness, reason="hom map not bijective")
    images = [functor.object_map[x] for x in functor.source.object_names]
    target = functor.target
    for y in target.object_names:
        if not any(isomorphic(target, fx, y) for fx in images):
            return WeqVerdict("NO", failure=(y,),
                              reason="no candidate object can be isomorphic")
    return WeqVerdict("YES")


def is_fibration(functor: StarFunctor) -> bool:
    """Unitary lifting, decided by the lemma of the module docstring: every
    End(x) -> End(Fx) is onto, and every y isomorphic to Fx is the image of
    an object isomorphic to x."""
    src, tgt = functor.source, functor.target
    for x in src.object_names:
        _sdim, tdim, rank = hom_map_rank(functor, x, x)
        if rank != tdim:
            return False
        over = {functor.object_map[x2] for x2 in src.object_names if isomorphic(src, x, x2)}
        fx = functor.object_map[x]
        if any(y not in over and isomorphic(tgt, fx, y) for y in tgt.object_names):
            return False
    return True


def is_trivial_fibration(functor: StarFunctor) -> bool:
    """Fully faithful and surjective on objects; fully deterministic."""
    surjective = set(functor.object_map.values()) == set(functor.target.object_names)
    return surjective and is_fully_faithful(functor)[0]


# ---------------------------------------------------------------------------
# unitary lifts and quasi-inverses


def solve_unitary_lift(functor: StarFunctor, x: str, v, y: str | None = None):
    """Lift a unitary v: Fx -> y through the functor, or v: Fx -> Fx' for
    any object x' when y is None.

    Exact, by the construction of the module docstring: the first x'
    isomorphic to x (and over y) in declaration order whose least-norm
    preimage a of v has F(a) = v gives u = a + u0 (1 - z), polar-corrected,
    with z the least-norm preimage of 1_Fx and u0 the ``iso_exists``
    witness x -> x'. Returns (u, x'), or None when v has no unitary lift.
    Every comparison is judged by the functor's tolerance.
    """
    tol = functor.tol
    src, tgt = functor.source, functor.target
    fx = functor.object_map[x]
    v = as_matrix(v)
    if v.shape[1] != tgt.obj(fx).dim:
        raise SquareMismatch(f"unitary domain does not match F({x!r})")
    if y is not None:
        v = as_matrix(v, tgt.obj(y).dim, tgt.obj(fx).dim)
    if not linalg.is_unitary(v, tol):
        return None
    for x2 in src.object_names:
        fx2 = functor.object_map[x2]
        if y not in (None, fx2) or tgt.obj(fx2).dim != len(v) or not isomorphic(src, x, x2):
            continue
        [a] = functor.preimage(x, x2, [v])
        if not tol.close(functor.apply(x, x2, a), v):
            continue
        [z] = functor.preimage(x, x, [tgt.identity(fx)])
        u0 = iso_exists(src, x, x2).witness
        return unitarize(src, a + u0 @ (src.identity(x) - z), x, x2), x2
    return None


def quasi_inverse(functor: StarFunctor):
    """A quasi-inverse G with unitary natural isomorphisms u: GF -> id and
    v: FG -> id. When F is injective on objects the witnesses are chosen so
    that GF is the identity on objects and v is the identity on the image;
    off the image, v at y is the ``iso_exists`` witness Fx -> y for the
    first source object x with Fx isomorphic to y.

    Returns (G, u, v), with u and v as dicts of components by object."""
    verdict = is_weak_equivalence(functor)
    if verdict.status != "YES":
        raise NotAWeakEquivalence(f"verdict {verdict.status}: {verdict.reason}")
    src, tgt = functor.source, functor.target
    image = {}
    for x in src.object_names:
        image.setdefault(functor.object_map[x], x)
    g_objects, v_units = {}, {}
    for j, y in enumerate(tgt.object_names):
        if y in image:
            g_objects[y], v_units[y] = image[y], tgt.identity(y)
            continue
        for i, x in enumerate(src.object_names):
            iso = iso_exists(tgt, functor.object_map[x], y, seed=31 * j + i)
            if iso:
                g_objects[y], v_units[y] = x, iso.witness
                break

    hom_maps = {}
    for (y, y2), space in tgt.homs.items():
        hom_maps[(y, y2)] = functor.preimage(
            g_objects[y], g_objects[y2],
            [v_units[y2].conj().T @ b @ v_units[y] for b in space.basis])
    g = StarFunctor(tgt, src, g_objects, hom_maps, tol=functor.tol)

    u = {}
    for x in src.object_names:
        fx = functor.object_map[x]
        [u[x]] = functor.preimage(g_objects[fx], x, [v_units[fx]])
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


def lift_tcof_fib(square: LiftingSquare) -> StarFunctor:
    """Lift when the left leg is a trivial cofibration and the right leg a
    fibration, through ``solve_unitary_lift``. Raises ``LiftObstruction``
    at an object where no unitary lift exists: the right leg is then not a
    fibration.

    Follows the constructive recipe: choose a quasi-inverse F' of the left
    leg with F'F = id and identity witnesses on the image, lift the unitaries
    V(v_x) through the right leg to objects Lx with witnesses w_x, and set
    L(b) = w_{x'} . U F'(b) . w_x* (so LF = U on the nose on objects).
    """
    f, u_top, g, v_bottom = square.left, square.top, square.right, square.bottom
    if not is_cofibration(f):
        raise PreconditionFailed("left leg is not a cofibration")
    f_prime, _u, v = quasi_inverse(f)

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
        hom_maps[(x, x2)] = g.preimage(obj_map[x], obj_map[x2],
                                       [v_bottom.apply(x, x2, b) for b in space.basis])
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
            # RLP against the generating cofibrations: fibrations that are weak equivalences
            direct = is_trivial_fibration(functor)
            via_rlp = is_fibration(functor) and bool(is_weak_equivalence(functor))
            entries.append({
                "name": f"rlp_equiv[{idx}]",
                "status": "pass" if direct == via_rlp else "fail",
                "detail": f"direct={direct},rlp={via_rlp}",
            })
    else:
        raise ValueError(f"unknown harness kind {kind!r}")
    return entries
