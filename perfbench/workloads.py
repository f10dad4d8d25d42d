"""The three workloads: inputs made from a seed, the operations of one pass,
and an independent expected verdict for every operation.

An operation is a callable that returns the number of verdicts it checked and
raises ``Mismatch`` when a verdict differs from the expected one. Library
functions are always looked up through their module at call time
(``cat_mod.validate_category`` rather than a name bound at import), so that
the traced run's rebinding catches the benchmark's own calls too.

The seed changes labels, random unitary conjugations and, in ``cli_session``,
the generated instances; it never changes the ladders' sizes, so every seed
of a ladder does the same amount of work.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
from dataclasses import dataclass
from functools import partial

import numpy as np

import cstarcat.categories as cat_mod
import cstarcat.cli as cli_mod
import cstarcat.groupoids as gpd_mod
import cstarcat.homotopy as htp_mod
import cstarcat.presentations as pres_mod
import cstarcat.randgen as rg_mod
import cstarcat.simplicial as ss_mod


class Mismatch(Exception):
    """A verdict differs from the expected one."""


def expect(condition: bool, what: str):
    if not condition:
        raise Mismatch(what)


@dataclass
class Op:
    name: str
    rung: int
    run: object          # () -> number of verdicts checked


# ---------------------------------------------------------------------------
# shared oracles, computed without the library


def conjugacy_classes(table) -> int:
    n = len(table)
    ident = next(i for i in range(n) if all(table[i][j] == j for j in range(n)))
    inv = [next(j for j in range(n) if table[i][j] == ident) for i in range(n)]
    seen, classes = set(), 0
    for a in range(n):
        if a in seen:
            continue
        classes += 1
        seen.update(table[table[g][a]][inv[g]] for g in range(n))
    return classes


def composable_strings(arrows: dict, idents: set, length: int) -> int:
    """Strings of ``length`` composable non-identity arrows, counted by
    dynamic programming over the arrows' endpoints."""
    ends = [(s, t) for a, (s, t) in arrows.items() if a not in idents]
    count = {}
    for _s, t in ends:
        count[t] = count.get(t, 0) + 1
    for _ in range(length - 1):
        nxt = {}
        for s, t in ends:
            nxt[t] = nxt.get(t, 0) + count.get(s, 0)
        count = nxt
    return sum(count.values())


def relabelled_table(table, rng):
    """An isomorphic copy of a group table: a random relabelling of the
    non-identity elements (the identity keeps label 0)."""
    n = len(table)
    ident = next(i for i in range(n) if all(table[i][j] == j for j in range(n)))
    rest = [i for i in range(n) if i != ident]
    order = [ident] + [rest[i] for i in rng.permutation(len(rest))]
    new = {old: k for k, old in enumerate(order)}
    return [[new[table[order[a]][order[b]]] for b in range(n)] for a in range(n)]


def _seed_tag(rng) -> str:
    return "".join("abcdefghjkmnpqrstuvwxyz"[int(i)] for i in rng.integers(0, 23, 3))


class Ladder:
    """A workload of rungs of growing size; ``rungs`` is a list of
    (rung number, [Op]) and the top rung is the last one."""

    io_bytes = (0, 0)

    def ops(self):
        return [op for _rung, ops in self.rungs for op in ops]

    def warmup_ops(self):
        return list(self.rungs[0][1])


# ---------------------------------------------------------------------------
# dense_ladder


# (cyclic order on 2 objects, objects for Klein and S3, comparison pair,
#  full matrix dimension, groupoid for nat_space)
DENSE_RUNGS = [
    (4, 1, ("interval", "z2"), 2, ("z", 3, 1)),
    (8, 2, ("z2", "z3"), 3, ("klein", 4, 1)),
    (10, 3, ("klein", "z2"), 4, ("s3", 6, 1)),
    (12, 3, ("s3", "z2"), 4, ("z", 8, 1)),
    (16, 4, ("s3_pair", "z2"), 5, ("klein", 4, 2)),
]


class DenseLadder(Ladder):
    name = "dense_ladder"
    top_rung = len(DENSE_RUNGS)

    def __init__(self, seed: int, workdir: str):
        rng = rg_mod.rng_from_seed(seed)
        tag = _seed_tag(rng)
        self.rungs = []
        for rung, (n, k, pair, d, (gkind, gorder, gobj)) in enumerate(DENSE_RUNGS, 1):
            items = []
            for kind, table, objs in (("cyclic", gpd_mod.cyclic_group_table(n), 2),
                                      ("klein", rg_mod.group_table("klein"), k),
                                      ("s3", rg_mod.group_table("s3"), k)):
                table = relabelled_table(table, rng)
                names = [f"{tag}{i}" for i in range(objs)]
                groupoid = gpd_mod.connected_groupoid(names, table, check=False)
                items.append(Op(f"validate[{kind}{len(table)}x{objs}]", rung,
                                partial(self._validate, groupoid)))
            items.append(Op(f"comparison[{pair[0]}*{pair[1]}]", rung,
                            partial(self._comparison, self._groupoid(pair[0], rng),
                                    self._groupoid(pair[1], rng))))
            full = cat_mod.full_matrix_category([d, d], names=[f"{tag}a", f"{tag}b"])
            conj, _ = rg_mod.conjugate_category(rng, full, prefix=tag)
            items.append(Op(f"nat_full[full{d}x2]", rung, partial(self._nat_full, conj)))
            table = relabelled_table(
                gpd_mod.cyclic_group_table(gorder) if gkind == "z"
                else rg_mod.group_table(gkind), rng)
            groupoid = gpd_mod.connected_groupoid([f"{tag}{i}" for i in range(gobj)],
                                                  table, check=False)
            items.append(Op(f"nat_groupoid[{gkind}{gorder}x{gobj}]", rung,
                            partial(self._nat_groupoid, groupoid, conjugacy_classes(table))))
            self.rungs.append((rung, items))

    @staticmethod
    def _groupoid(name: str, rng):
        if name == "interval":
            return gpd_mod.interval_groupoid()
        if name == "z2":
            return gpd_mod.cyclic_groupoid(2)
        if name == "z3":
            return gpd_mod.cyclic_groupoid(3)
        objects = ["p0", "p1"] if name == "s3_pair" else ["p0"]
        kind = "s3" if name.startswith("s3") else name
        table = relabelled_table(rg_mod.group_table(kind), rng)
        return gpd_mod.connected_groupoid(objects, table)

    @staticmethod
    def _validate(groupoid):
        gc = gpd_mod.cstar_max(groupoid)
        expect(not cat_mod.validate_category(gc.category),
               "validate_category found violations")
        checks = 1
        for x in groupoid.objects:
            for y in groupoid.objects:
                arrows = sum(1 for s, t in groupoid.arrows.values() if (s, t) == (x, y))
                expect(gc.category.hom(x, y).dim == arrows, "dim hom(x,y) != |G(x,y)|")
                checks += 1
        return checks

    @staticmethod
    def _comparison(g1, g2):
        _functor, verdict = gpd_mod.comparison_functor(g1, g2)
        expect(verdict.isomorphism, "comparison functor is not an isomorphism")
        return 1

    @staticmethod
    def _nat_full(cat):
        ident = cat_mod.identity_functor(cat)
        space = cat_mod.nat_space(ident, ident)
        expect(space.dim == 1, f"nat(id,id) on a full category has dim {space.dim}")
        return 1

    @staticmethod
    def _nat_groupoid(groupoid, classes):
        gc = gpd_mod.cstar_max(groupoid)
        ident = cat_mod.identity_functor(gc.category)
        space = cat_mod.nat_space(ident, ident)
        expect(space.dim == classes,
               f"nat(id,id) has dim {space.dim}, expected {classes} classes")
        return 1


# ---------------------------------------------------------------------------
# fp_ladder


# (cyclic order n, dihedral m (order 2m), objects k for both presentations,
#  nerve groupoid (objects, cyclic order, cap), pi simplex and horn,
#  ism groupoid (objects, cyclic order))
FP_RUNGS = [
    (8, 3, 1, (1, 4, 3), (1, (2, 0)), (1, 4)),
    (12, 4, 2, (2, 3, 3), (2, (2, 1)), (2, 3)),
    (16, 5, 3, (2, 5, 3), (2, (2, 2)), (2, 4)),
    (20, 6, 3, (2, 7, 3), (3, (3, 1)), (3, 3)),
    (24, 8, 3, (2, 9, 3), (3, (3, 2)), (3, 4)),
]


def cyclic_presentation(objects, n: int):
    """k objects joined by a path of edges, one loop ``a`` with a^n = 1."""
    return loop_presentation(objects, ["a"], [[("a", n)]])


def dihedral_presentation(objects, m: int):
    """k objects joined by a path of edges, loops ``r`` and ``s`` with
    r^m = s^2 = (s r)^2 = 1: the dihedral group of order 2m."""
    return loop_presentation(objects, ["r", "s"],
                             [[("r", m)], [("s", 2)], [("s", 1), ("r", 1)] * 2])


def loop_presentation(objects, loops, relators):
    """Edges e_i: x_{i-1} -> x_i, the given loops at x_0, and one relation
    w = 1 per relator w, a list of (loop, power)."""
    root = objects[0]
    gens = {f"e{i}": (objects[i - 1], objects[i]) for i in range(1, len(objects))}
    gens.update({loop: (root, root) for loop in loops})
    identity = gpd_mod.FPWord(root, root, ())
    rels = [(gpd_mod.FPWord(root, root, tuple((g, False) for g, power in rel
                                              for _ in range(power))), identity)
            for rel in relators]
    return gpd_mod.FPGroupoid(objects, gens, rels)


def conjugated_embedding(groupoid, rng):
    """The groupoid's C*-category conjugated by a random unitary per object,
    and the images of the arrows in it: isometries for ``evaluate``."""
    gc = gpd_mod.cstar_max(groupoid)
    units = {x: rg_mod.random_unitary(rng, gc.category.obj(x).dim) for x in groupoid.objects}
    homs = {(x, y): [units[y] @ b @ units[x].conj().T for b in space.basis]
            for (x, y), space in gc.category.homs.items()}
    category = cat_mod.MatCStarCategory(gc.category.objects, homs, tol=gc.category.tol)
    arrows = {g: units[y] @ gc.embed[g] @ units[x].conj().T
              for g, (x, y) in groupoid.arrows.items()}
    return category, arrows


class FpLadder(Ladder):
    name = "fp_ladder"
    top_rung = len(FP_RUNGS)

    def __init__(self, seed: int, workdir: str):
        rng = rg_mod.rng_from_seed(seed)
        tag = _seed_tag(rng)
        self.rungs = []
        for rung, (n, m, k, nerve_spec, (simplex, horn), ism_spec) in enumerate(FP_RUNGS, 1):
            objects = [f"{tag}{i}" for i in range(k)]
            items = [
                Op(f"normalize[cyclic{n}x{k}]", rung,
                   partial(self._normalize, cyclic_presentation(objects, n), n)),
                Op(f"normalize[dihedral{2 * m}x{k}]", rung,
                   partial(self._normalize, dihedral_presentation(objects, m), 2 * m)),
            ]
            kn, order, cap = nerve_spec
            table = relabelled_table(gpd_mod.cyclic_group_table(order), rng)
            groupoid = gpd_mod.connected_groupoid([f"{tag}{i}" for i in range(kn)], table)
            idents = set(groupoid.identities.values())
            expected = [kn] + [composable_strings(groupoid.arrows, idents, d)
                               for d in range(1, cap + 1)]
            items.append(Op(f"nerve[z{order}x{kn}@{cap}]", rung,
                            partial(self._nerve, groupoid, cap, expected)))
            items.append(Op(f"pi[delta{simplex}+horn{horn[0]},{horn[1]}]", rung,
                            partial(self._pi, ss_mod.standard("delta", simplex, dim_cap=3),
                                    ss_mod.horn_inclusion(horn[0], horn[1], dim_cap=3))))
            ki, oi = ism_spec
            table = relabelled_table(gpd_mod.cyclic_group_table(oi), rng)
            groupoid = gpd_mod.connected_groupoid([f"{tag}{i}" for i in range(ki)], table)
            items.append(Op(f"ism[z{oi}x{ki}]", rung,
                            partial(self._ism, groupoid, *conjugated_embedding(groupoid, rng))))
            self.rungs.append((rung, items))

    @staticmethod
    def _normalize(pres, order):
        result = gpd_mod.normalize_fp(pres)
        expect(result.finite, "normalize_fp did not finish within its budget")
        text = json.dumps(result.groupoid.to_json())
        again = gpd_mod.FiniteGroupoid.from_json(json.loads(text))
        checks = 1
        for x in pres.objects:
            for y in pres.objects:
                expect(len(again.hom(x, y)) == order,
                       f"|G(x,y)| = {len(again.hom(x, y))}, expected {order}")
                checks += 1
        return checks

    @staticmethod
    def _nerve(groupoid, cap, expected):
        sset = gpd_mod.nerve(groupoid, cap)
        counts = [sset.count_nondegenerate(d) for d in range(cap + 1)]
        expect(counts == expected, f"nerve counts {counts}, expected {expected}")
        expect(not sset.identity_violations(), "nerve breaks the simplicial identities")
        return 2

    @staticmethod
    def _pi(delta, horn):
        gc = htp_mod.pi(delta)
        verts = delta.count_nondegenerate(0)
        expect(len(gc.category.objects) == verts, "pi(Delta[n]) has the wrong objects")
        expect(all(gc.category.hom(x, y).dim == 1
                   for x in gc.category.object_names for y in gc.category.object_names),
               "pi(Delta[n]) is not the indiscrete groupoid")
        _functor, gfunctor = htp_mod.pi_map(horn)
        expect(gfunctor.is_isomorphism(), "pi of a horn inclusion is not an isomorphism")
        return 3

    @staticmethod
    def _ism(groupoid, category, arrow_assign):
        fcat = pres_mod.FiniteCategory(groupoid.objects, groupoid.arrows,
                                       groupoid.identities, groupoid.compose)
        pres = pres_mod.ism_presentation(fcat)
        idents = set(groupoid.identities.values())
        gens = [a for a in groupoid.arrows if a not in idents]
        pairs = sum(1 for g in gens for f in gens
                    if groupoid.arrows[f][1] == groupoid.arrows[g][0])
        expect(len(pres.relations) == pairs + len(gens),
               f"{len(pres.relations)} relations, expected {pairs + len(gens)}")
        evaluation = pres_mod.evaluate(pres, category, {x: x for x in groupoid.objects},
                                       {g: arrow_assign[g] for g in gens})
        worst = max(float(np.linalg.norm(evaluation(pres.gen(g)) - arrow_assign[g]))
                    for g in gens)
        expect(worst <= 1e-8, "evaluate does not send generators to their images")
        return 2


# ---------------------------------------------------------------------------
# cli_session


SUITE_CHECKS = {
    "mc": [f"mc5[{i}]" for i in range(10)] + [f"mc4[{i}]" for i in range(10)]
          + [f"rlp[{i}]:{k}" for i, k in zip(range(24), itertools.cycle(
              ["weq", "conjugation", "padding", "fattening", "projection", "fold"]))]
          + [f"two_of_three[{i}]" for i in range(10)]
          + [f"retract[{i}]" for i in range(6)],
    "monoidal": [f"comparison[{a},{b}]"
                 for a in ("terminal", "interval", "z2", "z3", "pair_z2")
                 for b in ("terminal", "interval", "z2", "z3", "pair_z2")]
                + [f"pushout_product[{i}]" for i in range(6)],
    "simplicial": [f"pi_horn_iso[{n},{k}]" for n in (2, 3) for k in range(n + 1)]
                  + ["pi_edge_is_interval", "pi_circle_unbounded", "tensor_unit_dims",
                     "cotensor_point_homs"],
    "adjunctions": [f"adjunction[{i}]" for i in range(10)]
                   + [f"exponential[{i}]" for i in range(6)],
}

# Each sub-session: the carriers of the large generated category and of the
# two small ones that are tensored, the weak equivalence's source carriers,
# target carriers and source hom dimension, and the groupoid's components as
# (objects, vertex group order). The weak equivalence and the groupoid set
# most of a sub-session's cost, so their shapes are fixed exactly; the small
# categories' carriers are fixed; the large category's are drawn freely.
SUB_SESSIONS = [
    ("6,6", "2,2", "2,2", ((2, 4), (2, 4, 4), 9), ((2, 4),)),
    ("5,4", "2,2", "2,2", ((2, 2), (2, 2, 2), 4), ((2, 3),)),
    ("2,6", "2,2", "2,2", ((2, 4), (2, 2, 4), 9), ((2, 4),)),
]


def pick_seed(rng, fits, tries: int = 5000) -> int:
    """A generator seed whose instance fits the wanted shape.

    The ``generate`` command draws sizes as well as entries from its seed;
    choosing among seeds of one shape keeps the amount of work the same for
    every workload seed. ``fits`` replays the command's draws through the
    library's generators."""
    for _ in range(tries):
        seed = int(rng.integers(0, 2**31 - 1))
        if fits(rg_mod.rng_from_seed(seed)):
            return seed
    raise RuntimeError(f"no generator seed fits in {tries} tries")


def matcat_fits(dims: str):
    sizes = [int(d) for d in dims.split(",")]

    def fits(rng):
        cat, _ = rg_mod.random_matcat(rng, n_objects=len(sizes), max_dim=max(sizes))
        return [o.dim for o in cat.objects] == sizes
    return fits


def weq_fits(source, target, homs):
    def fits(rng):
        cat, _ = rg_mod.random_matcat(rng, n_objects=2, max_dim=4)
        if tuple(sorted(o.dim for o in cat.objects)) != source or \
                sum(space.dim for space in cat.homs.values()) != homs:
            return False
        functor = rg_mod.random_weq(rng, cat, n_extra=1)
        return tuple(sorted(o.dim for o in functor.target.objects)) == target
    return fits


def groupoid_fits(components):
    def fits(rng):
        groupoid = rg_mod.random_groupoid(rng, n_objects=2, max_order=4)
        return tuple(sorted((len(c), len(groupoid.hom(c[0], c[0])))
                            for c in groupoid.components())) == components
    return fits


class CliSession:
    """One session per pass: in-process ``cli.main`` calls on files in a
    work directory, in the order a user chains them."""

    name = "cli_session"
    top_rung = 1          # the four verify-axioms suites

    def __init__(self, seed: int, workdir: str):
        rng = rg_mod.rng_from_seed(seed)
        self.dir = workdir
        self.io_bytes = [0, 0]
        self.seeds = []
        for _big, small0, small1, weq, groupoid in SUB_SESSIONS:
            self.seeds.append([int(rng.integers(0, 2**31 - 1)),
                               pick_seed(rng, matcat_fits(small0)),
                               pick_seed(rng, matcat_fits(small1)),
                               pick_seed(rng, weq_fits(*weq)),
                               pick_seed(rng, groupoid_fits(groupoid))])
        self.suite_seeds = [int(s) for s in rng.integers(0, 2**31 - 1, len(SUITE_CHECKS))]
        for name, sset in (("delta2", ss_mod.standard("delta", 2, dim_cap=2)),
                           ("boundary2", ss_mod.standard("boundary", 2, dim_cap=2))):
            with open(self.path(name), "w", encoding="utf-8") as handle:
                json.dump(sset.to_json(), handle)

    def path(self, name: str) -> str:
        return os.path.join(self.dir, name + ".json")

    def load(self, name: str):
        with open(self.path(name), encoding="utf-8") as handle:
            return json.load(handle)

    def call(self, argv, inputs=(), output=None, code=0):
        """Run ``cli.main`` on argv and return its parsed report."""
        out, err = io.StringIO(), io.StringIO()
        argv = list(argv) + (["--output", self.path(output)] if output else [])
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            got = cli_mod.main(argv)
        expect(got == code, f"exit {got}, expected {code}: {err.getvalue().strip()}")
        text = out.getvalue()
        self.io_bytes[0] += sum(os.path.getsize(self.path(n)) for n in inputs)
        self.io_bytes[1] += len(text) + (os.path.getsize(self.path(output)) if output else 0)
        return json.loads(text)

    @staticmethod
    def expect_checks(report, names, status="pass"):
        got = [(c["name"], c["status"]) for c in report["checks"]]
        expect(got == [(n, status) for n in names], f"{report['command']}: checks {got}")
        return len(got)

    # -- the steps of one sub-session ------------------------------------------

    def _matcat(self, name, dims, seed):
        def generate():
            rep = self.call(["generate", "--kind", "random_matcat", "--dims", dims,
                             "--seed", str(seed)], output=name)
            return self.expect_checks(rep, ["passes_validator"])

        def validate():
            rep = self.call(["validate", self.path(name)], inputs=[name])
            return self.expect_checks(rep, ["structure"])
        return [Op(f"generate[{name}]", 0, generate), Op(f"validate[{name}]", 0, validate)]

    def _weq(self, tag, seed):
        weq, path, cyl, square = (f"{tag}{n}" for n in ("weq", "path", "cylinder", "square"))

        def generate():
            rep = self.call(["generate", "--kind", "random_weq", "--objects", "2",
                             "--seed", str(seed)], output=weq)
            return self.expect_checks(rep, ["is_weak_equivalence"])

        def validate():
            rep = self.call(["validate", self.path(weq)], inputs=[weq])
            return self.expect_checks(rep, ["structure"])

        def factorize(mode, out, names):
            def step():
                rep = self.call(["factorize", self.path(weq), "--mode", mode,
                                 "--seed", str(seed)], inputs=[weq], output=out)
                return self.expect_checks(rep, names)
            return step

        def lift(mode):
            def step():
                if mode == "tcof-fib":
                    p, c = self.load(path), self.load(cyl)
                    with open(self.path(square), "w", encoding="utf-8") as handle:
                        json.dump({"top": c["first"], "left": p["first"],
                                   "right": c["second"], "bottom": p["second"]}, handle)
                rep = self.call(["lift", self.path(square), "--mode", mode,
                                 "--seed", str(seed)], inputs=[square])
                return self.expect_checks(rep, ["upper_triangle", "lower_triangle"])
            return step

        return [
            Op(f"generate[{weq}]", 0, generate),
            Op(f"validate[{weq}]", 0, validate),
            Op(f"factorize[{tag}path]", 0, factorize("path", path, [
                "first_is_cofibration", "first_is_weak_equivalence",
                "second_answers_unitary_lifts", "composite_equals_original",
                "midway_validates"])),
            Op(f"factorize[{tag}cylinder]", 0, factorize("cylinder", cyl, [
                "first_is_cofibration", "second_is_trivial_fibration",
                "composite_equals_original", "midway_validates"])),
            Op(f"lift[{tag}tcof-fib]", 0, lift("tcof-fib")),
            Op(f"lift[{tag}cof-tfib]", 0, lift("cof-tfib")),
        ]

    def _groupoid(self, tag, seed):
        gpd, gcat, ner = f"{tag}gpd", f"{tag}gpdcat", f"{tag}nerve"

        def generate():
            rep = self.call(["generate", "--kind", "random_groupoid", "--objects", "2",
                             "--order", "4", "--seed", str(seed)], output=gpd)
            return self.expect_checks(rep, ["valid_groupoid"])

        def read_groupoid():
            # in a groupoid the identities are exactly the idempotent arrows
            data = self.load(gpd)
            arrows = {a["name"]: (a["src"], a["tgt"]) for a in data["arrows"]}
            idents = {a for a in arrows if data["compose"].get(f"{a}|{a}") == a}
            return data, arrows, idents

        def cstar():
            rep = self.call(["groupoid-cstar", self.path(gpd)], inputs=[gpd], output=gcat)
            checks = self.expect_checks(
                rep, ["validates", "arrows_are_unitary", "hom_dims_count_arrows"])
            data, arrows, _ = read_groupoid()
            homs = self.load(gcat)["homs"]
            for x in data["objects"]:
                for y in data["objects"]:
                    want = sum(1 for s, t in arrows.values() if (s, t) == (x, y))
                    expect(len(homs.get(f"{x}|{y}", [])) == want, "dim hom(x,y) != |G(x,y)|")
                    checks += 1
            return checks

        def nerve():
            rep = self.call(["nerve", self.path(gpd), "--dim-cap", "3"], inputs=[gpd],
                            output=ner)
            checks = self.expect_checks(rep, ["simplicial_identities"])
            data, arrows, idents = read_groupoid()
            simplices = self.load(ner)["simplices"]
            want = [len(data["objects"])] + [composable_strings(arrows, idents, d)
                                             for d in (1, 2, 3)]
            got = [len(simplices[str(d)]) for d in range(4)]
            expect(got == want, f"nerve counts {got}, expected {want}")
            return checks + 1

        return [Op(f"generate[{gpd}]", 0, generate),
                Op(f"groupoid-cstar[{gpd}]", 0, cstar),
                Op(f"nerve[{gpd}]", 0, nerve)]

    def _tensor(self, left, right):
        out = f"{left}x{right}"

        def tensor():
            rep = self.call(["tensor", self.path(left), self.path(right)],
                            inputs=[left, right], output=out)
            checks = self.expect_checks(rep, ["hom_dimensions_multiply", "validates"])
            a, b = self.load(left), self.load(right)
            want = sorted(p["dim"] * q["dim"] for p in a["objects"] for q in b["objects"])
            got = sorted(o["dim"] for o in self.load(out)["objects"])
            expect(got == want, f"tensor carriers {got}, expected {want}")
            return checks + 1
        return [Op(f"tensor[{out}]", 0, tensor)]

    def _sub_session(self, idx):
        big, small0, small1 = SUB_SESSIONS[idx][:3]
        seeds = self.seeds[idx]
        tag = f"s{idx}"
        return (self._matcat(f"{tag}m", big, seeds[0])
                + self._matcat(f"{tag}a", small0, seeds[1])
                + self._matcat(f"{tag}b", small1, seeds[2])
                + self._weq(tag, seeds[3])
                + self._groupoid(tag, seeds[4])
                + self._tensor(f"{tag}a", f"{tag}b"))

    def _pi(self):
        def delta():
            rep = self.call(["pi", self.path("delta2")], inputs=["delta2"], output="pi")
            checks = self.expect_checks(rep, ["fundamental_groupoid_finite", "validates"])
            cat = self.load("pi")
            expect([o["dim"] for o in cat["objects"]] == [3, 3, 3]
                   and len(cat["homs"]) == 9
                   and all(len(v) == 1 for v in cat["homs"].values()),
                   "pi(Delta[2]) is not the indiscrete groupoid on 3 objects")
            return checks + 1

        def circle():
            rep = self.call(["pi", self.path("boundary2")], inputs=["boundary2"], code=3)
            return self.expect_checks(rep, ["fundamental_groupoid_finite"], "unknown")
        return [Op("pi[delta2]", 0, delta), Op("pi[boundary2]", 0, circle)]

    def _suites(self):
        def suite(name, seed):
            def step():
                rep = self.call(["verify-axioms", "--suite", name, "--seed", str(seed)])
                return self.expect_checks(rep, SUITE_CHECKS[name])
            return step
        return [Op(f"verify-axioms[{name}]", 1, suite(name, seed))
                for name, seed in zip(SUITE_CHECKS, self.suite_seeds)]

    def ops(self):
        out = []
        for idx in range(len(SUB_SESSIONS)):
            out += self._sub_session(idx)
        return out + self._pi() + self._suites()

    def warmup_ops(self):
        return self._matcat("warm", SUB_SESSIONS[0][0], self.seeds[0][0])


WORKLOADS = {w.name: w for w in (CliSession, DenseLadder, FpLadder)}
