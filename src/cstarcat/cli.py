"""Command-line front end.

Commands operate on JSON files (categories, functors, groupoids, presented
groupoids, *-category presentations, simplicial sets, lifting squares) and
emit a JSON report with a fixed field order; timing goes to stderr so
reports stay byte-reproducible.

Each command takes ``--output`` and only the shared flags it reads:
``--seed`` (factorize, lift, verify-axioms, generate), ``--tolerance``
(every command but nerve and fundamental-groupoid, which decide exactly),
``--coset-budget`` (pi, verify-axioms) and ``--dim-cap`` (nerve). The
tolerance reaches every comparison of its command: instances are built
with it, and each residual verdict is judged against its ``eps_abs`` or
its composite bound (see ``linalg.Tolerance``). factorize and lift accept
``--seed`` only because ``perfbench/workloads.py`` passes it: their
verdicts and witnesses sample nothing the seed reaches, so the flag changes
no byte of their output.

Exit codes: 0 all checks passed, 1 some check failed, 2 usage or parse
error, 3 unknown-only (a coset enumeration ran out of budget), 4 internal
error (any other exception, such as running out of memory, reported on one
stderr line).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import model as md
from . import randgen as rg
from . import suites
from .categories import (
    MatCStarCategory,
    StarFunctor,
    tensor_max,
    validate_category,
    validate_functor,
)
from .coset import DEFAULT_BUDGET
from .errors import CStarCatError, InvalidParams, MalformedInput, NotFiniteWithinBound
from .groupoids import FPGroupoid, FiniteGroupoid, cstar_max, fundamental_groupoid, nerve
from .homotopy import pi
from .linalg import DEFAULT_TOL, Tolerance, is_unitary, matrix_from_json
from .presentations import PresentedStarCategory
from .reports import Report
from .simplicial import FiniteSimplicialSet


def _load(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def detect_kind(data: dict) -> str:
    if not isinstance(data, dict):
        raise MalformedInput(f"expected a JSON object, not {type(data).__name__}")
    if "object_map" in data:
        return "functor"
    if "homs" in data:
        return "category"
    if "compose" in data:
        return "groupoid"
    if "generators" in data:
        return "fp-groupoid"
    if "simplices" in data:
        return "sset"
    if "arrows" in data and ("relations" in data or "bounds" in data):
        return "presentation"
    raise InvalidParams("could not detect the input kind")


def _emit(report: Report, args, started: float) -> int:
    """Reports go to --output (or stdout). Commands that produce an artifact
    (a category, functor, groupoid or simplicial-set file) instead write the
    raw artifact to --output, so outputs can be fed back into other
    commands; their report then goes to stdout."""
    artifact = getattr(args, "artifact", False)
    text, payload = report.dumps()
    out = getattr(args, "output", None)
    if out and artifact and payload is not None:
        Path(out).write_text(payload, encoding="utf-8")
        sys.stdout.write(text)
    elif out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    print(f"{report.command}: {report.status} "
          f"({len(report.checks)} checks, {time.time() - started:.2f}s)",
          file=sys.stderr)
    return report.exit_code


def _tol(args) -> Tolerance:
    """The --tolerance flag as a Tolerance; only a missing flag, or a
    command that takes none, means the default."""
    eps = getattr(args, "tolerance", None)
    if eps is None:
        return Tolerance()
    try:
        return Tolerance(eps)
    except ValueError as err:
        raise InvalidParams(f"--tolerance {eps}: {err}") from None


# ---------------------------------------------------------------------------
# commands


STRUCTURE_LOADERS = {
    "groupoid": FiniteGroupoid.from_json,
    "fp-groupoid": FPGroupoid.from_json,
    "presentation": PresentedStarCategory.from_json,
    "sset": FiniteSimplicialSet.from_json,
}


def cmd_validate(args) -> Report:
    data = _load(args.file)
    kind = args.kind if args.kind != "auto" else detect_kind(data)
    report = Report("validate")
    if kind == "category":
        cat = MatCStarCategory.from_json(data, tol=args.tol)
        violations = validate_category(cat)
    elif kind == "functor":
        functor = StarFunctor.from_json(data, tol=args.tol)
        violations = validate_category(functor.source) + \
            validate_category(functor.target) + validate_functor(functor)
    else:
        # these kinds are checked by their constructors, which raise
        STRUCTURE_LOADERS[kind](data)
        violations = []
    if not violations:
        report.add("structure", "pass")
    for v in violations:
        report.add(f"{v.kind}@{','.join(map(str, v.where))}", "fail",
                   residual=v.residual, detail=v.detail)
    return report


def cmd_factorize(args) -> Report:
    functor = StarFunctor.from_json(_load(args.file), tol=args.tol)
    report = Report(f"factorize:{args.mode}")
    if args.mode == "path":
        result = md.factor_path(functor)
        weq = md.is_weak_equivalence(result.first)
        report.add("first_is_cofibration",
                   "pass" if md.is_cofibration(result.first) else "fail")
        report.add("first_is_weak_equivalence",
                   "pass" if weq else "fail",
                   detail=weq.reason)
        report.add("second_answers_unitary_lifts", "pass",
                   detail="path fibration; see lift --mode generator")
    else:
        result = md.factor_cylinder(functor)
        report.add("first_is_cofibration",
                   "pass" if md.is_cofibration(result.first) else "fail")
        report.add("second_is_trivial_fibration",
                   "pass" if md.is_trivial_fibration(result.second) else "fail")
    residual = result.composite_residual(functor)
    report.add("composite_equals_original",
               "pass" if residual <= args.tol.composite else "fail", residual=residual)
    bad = validate_category(result.midway)
    report.add("midway_validates", "pass" if not bad else "fail",
               detail="" if not bad else str(bad[0]))
    report.payload = {
        "midway": result.midway.to_json(),
        "first": result.first.to_json(),
        "second": result.second.to_json(),
    }
    return report


def _load_functor_ref(ref, base: Path, tol: Tolerance) -> StarFunctor:
    """A functor given inline or as a path relative to the lift file."""
    if isinstance(ref, str):
        return StarFunctor.from_json(_load(str(base / ref)), tol=tol)
    return StarFunctor.from_json(ref, tol=tol)


def _require_keys(data, keys):
    """A lift file must be an object holding every key of ``keys``;
    otherwise it raises ``MalformedInput``."""
    if not isinstance(data, dict):
        raise MalformedInput(f"lift file: expected an object, not {type(data).__name__}")
    for key in keys:
        if key not in data:
            raise MalformedInput(f"lift file: missing key {key!r}")


def _lift_object(data, key: str, cat: MatCStarCategory) -> str:
    """The object name under ``key``, which ``cat`` must declare."""
    name = data[key]
    if not isinstance(name, str) or name not in cat.object_names:
        raise MalformedInput(f"lift file: {key!r} must name an object of "
                             f"{cat.object_names}, not {name!r}")
    return name


def cmd_lift(args) -> Report:
    data = _load(args.file)
    base = Path(args.file).parent
    tol = args.tol
    report = Report(f"lift:{args.mode}")
    if args.mode == "generator":
        _require_keys(data, ("F", "x", "v"))
        functor = _load_functor_ref(data["F"], base, tol)
        x = _lift_object(data, "x", functor.source)
        v = matrix_from_json(data["v"])
        y = _lift_object(data, "y", functor.target) if "y" in data else None
        lifted = md.solve_unitary_lift(functor, x, v, y)
        if lifted is None:
            report.add("unitary_lift", "fail", detail="no unitary lift exists")
        else:
            u, obj = lifted
            residual = float(np.linalg.norm(functor.apply(x, obj, u) - v))
            report.add("unitary_lift", "pass" if residual <= tol.composite else "fail",
                       residual=residual, witness=obj)
        return report
    legs = ("top", "left", "right", "bottom")
    _require_keys(data, legs)
    square = md.LiftingSquare(**{leg: _load_functor_ref(data[leg], base, tol) for leg in legs})
    if args.mode == "tcof-fib":
        lift = md.lift_tcof_fib(square)
    else:
        lift = md.lift_cof_tfib(square)
    res1, res2 = square.triangle_residuals(lift)
    report.add("upper_triangle", "pass" if res1 <= tol.composite else "fail", residual=res1)
    report.add("lower_triangle", "pass" if res2 <= tol.composite else "fail", residual=res2)
    report.payload = {"lift": lift.to_json()}
    return report


def cmd_tensor(args) -> Report:
    tol = args.tol
    a = MatCStarCategory.from_json(_load(args.left), tol=tol)
    b = MatCStarCategory.from_json(_load(args.right), tol=tol)
    tensor = tensor_max(a, b)
    report = Report("tensor")
    ok = all(
        tensor.hom(f"({x},{u})", f"({y},{v})").dim ==
        a.hom(x, y).dim * b.hom(u, v).dim
        for x in a.object_names for y in a.object_names
        for u in b.object_names for v in b.object_names)
    report.add("hom_dimensions_multiply", "pass" if ok else "fail")
    bad = validate_category(tensor)
    report.add("validates", "pass" if not bad else "fail")
    report.payload = tensor.to_json()
    return report


def cmd_groupoid_cstar(args) -> Report:
    groupoid = FiniteGroupoid.from_json(_load(args.file))
    gc = cstar_max(groupoid, tol=args.tol)
    report = Report("groupoid-cstar")
    bad = validate_category(gc.category)
    report.add("validates", "pass" if not bad else "fail")
    unitary = all(is_unitary(m, args.tol) for m in gc.embed.values())
    report.add("arrows_are_unitary", "pass" if unitary else "fail")
    dims_ok = all(gc.category.hom(x, y).dim == len(groupoid.hom(x, y))
                  for x in groupoid.objects for y in groupoid.objects)
    report.add("hom_dims_count_arrows", "pass" if dims_ok else "fail")
    report.payload = gc.category.to_json()
    return report


def cmd_fundamental_groupoid(args) -> Report:
    sset = FiniteSimplicialSet.from_json(_load(args.file))
    pres = fundamental_groupoid(sset)
    report = Report("fundamental-groupoid")
    report.add("generators", "pass",
               detail=f"{len(pres.generators)} generators, "
                      f"{len(pres.relations)} relations")
    report.payload = pres.to_json()
    return report


def cmd_nerve(args) -> Report:
    groupoid = FiniteGroupoid.from_json(_load(args.file))
    sset = nerve(groupoid, args.dim_cap)
    report = Report("nerve")
    bad = sset.identity_violations()
    report.add("simplicial_identities", "pass" if not bad else "fail",
               detail="" if not bad else bad[0])
    report.payload = sset.to_json()
    return report


def cmd_pi(args) -> Report:
    sset = FiniteSimplicialSet.from_json(_load(args.file))
    report = Report("pi")
    try:
        gc = pi(sset, bound=args.coset_budget, tol=args.tol)
    except NotFiniteWithinBound as err:
        report.add("fundamental_groupoid_finite", "unknown", detail=str(err))
        return report
    report.add("fundamental_groupoid_finite", "pass")
    bad = validate_category(gc.category)
    report.add("validates", "pass" if not bad else "fail")
    report.payload = gc.category.to_json()
    return report


def cmd_verify_axioms(args) -> Report:
    report = Report(f"verify-axioms:{args.suite}")
    if args.suite == "mc":
        entries = suites.suite_mc(seed=args.seed, tol=args.tol)
    elif args.suite == "monoidal":
        entries = suites.suite_monoidal(seed=args.seed, tol=args.tol)
    elif args.suite == "simplicial":
        entries = suites.suite_simplicial(seed=args.seed, budget=args.coset_budget,
                                          tol=args.tol)
    else:
        entries = suites.suite_adjunctions(seed=args.seed, tol=args.tol)
    report.checks.extend(entries)
    return report


def cmd_generate(args) -> Report:
    rng = rg.rng_from_seed(args.seed)
    report = Report(f"generate:{args.kind}")
    if args.kind == "random_groupoid":
        groupoid = rg.random_groupoid(rng, n_objects=args.objects,
                                      max_order=args.order)
        payload = groupoid.to_json()
        report.add("valid_groupoid", "pass",
                   detail=f"{len(groupoid.objects)} objects, "
                          f"{len(groupoid.arrows)} arrows")
    elif args.kind == "random_matcat":
        try:
            dims = [int(d) for d in args.dims.split(",")] if args.dims else [2, 3]
        except ValueError:
            raise InvalidParams(f"--dims {args.dims!r}: expected comma-separated "
                                "integers") from None
        if len(dims) > 5 or any(d > 6 or d < 1 for d in dims):
            raise InvalidParams("supported bounds: <= 5 objects, dims <= 6")
        cat, _model = rg.random_matcat(rng, n_objects=len(dims),
                                       max_dim=max(dims), tol=args.tol)
        bad = validate_category(cat)
        report.add("passes_validator", "pass" if not bad else "fail")
        payload = cat.to_json()
    elif args.kind == "random_weq":
        cat, _model = rg.random_matcat(rng, n_objects=args.objects, max_dim=4,
                                       tol=args.tol)
        functor = rg.random_weq(rng, cat, n_extra=1)
        verdict = md.is_weak_equivalence(functor)
        report.add("is_weak_equivalence",
                   "pass" if verdict.status == "YES" else "fail")
        payload = functor.to_json()
    else:
        raise InvalidParams(f"unknown generator kind {args.kind!r}")
    report.payload = payload
    return report


# ---------------------------------------------------------------------------
# argument wiring


#: the flags that several commands share; each command registers only the
#: ones it reads, next to the --output that all of them take
SHARED_FLAGS = {
    "--seed": dict(type=int, default=0, help="seed of the command's random choices"),
    "--tolerance": dict(
        type=float, default=None,
        help=f"comparison threshold eps_abs > 0 (default {DEFAULT_TOL.eps_abs:g}); "
             "single comparisons and numerical ranks are judged against eps_abs, "
             "scaled by the operand norms, and composite residuals (functor "
             "distances, lifting triangles, lifted unitaries) against "
             "10 * eps_abs"),
    "--coset-budget": dict(type=int, default=DEFAULT_BUDGET,
                           help="cosets a coset enumeration may define before the "
                                "verdict is unknown"),
    "--dim-cap": dict(type=int, default=2, help="highest dimension of the nerve"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cstarcat",
        description="Finite-dimensional C*-categories and the unitary model "
                    "structure: validators, factorizations, lifts and "
                    "axiom-verification suites.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, flags, help, artifact=False):
        p = sub.add_parser(name, help=help)
        for flag in flags:
            p.add_argument(flag, **SHARED_FLAGS[flag])
        p.add_argument("--output", type=str, default=None,
                       help="write the artifact, or else the report, to this file")
        # main looks the command up by name when it runs, so a cmd_* rebound
        # in this module after the cached parser was built is the one called
        p.set_defaults(run=run.__name__, artifact=artifact)
        return p

    p = command("validate", cmd_validate, ["--tolerance"],
                help="validate a category, functor, groupoid, presented groupoid, "
                     "presentation or simplicial-set file")
    p.add_argument("file")
    p.add_argument("--kind", choices=["auto", "category", "functor", *STRUCTURE_LOADERS],
                   default="auto")

    p = command("factorize", cmd_factorize, ["--seed", "--tolerance"],
                help="factor a functor (MC5)", artifact=True)
    p.add_argument("file")
    p.add_argument("--mode", choices=["path", "cylinder"], required=True)

    p = command("lift", cmd_lift, ["--seed", "--tolerance"],
                help="solve a lifting problem (MC4)")
    p.add_argument("file")
    p.add_argument("--mode", choices=["tcof-fib", "cof-tfib", "generator"],
                   required=True)

    p = command("tensor", cmd_tensor, ["--tolerance"],
                help="maximal tensor product of two categories", artifact=True)
    p.add_argument("left")
    p.add_argument("right")

    p = command("groupoid-cstar", cmd_groupoid_cstar, ["--tolerance"],
                help="groupoid C*-category via the regular representation",
                artifact=True)
    p.add_argument("file")

    p = command("fundamental-groupoid", cmd_fundamental_groupoid, [],
                help="presented fundamental groupoid of a simplicial set",
                artifact=True)
    p.add_argument("file")

    p = command("nerve", cmd_nerve, ["--dim-cap"],
                help="nerve of a finite groupoid", artifact=True)
    p.add_argument("file")

    p = command("pi", cmd_pi, ["--tolerance", "--coset-budget"],
                help="C*-category of the fundamental groupoid", artifact=True)
    p.add_argument("file")

    p = command("verify-axioms", cmd_verify_axioms,
                ["--seed", "--tolerance", "--coset-budget"],
                help="run a verification suite")
    p.add_argument("--suite", choices=["mc", "monoidal", "simplicial", "adjunctions"],
                   required=True)

    p = command("generate", cmd_generate, ["--seed", "--tolerance"],
                help="emit a random instance file", artifact=True)
    p.add_argument("--kind", choices=["random_groupoid", "random_matcat",
                                      "random_weq"], required=True)
    p.add_argument("--objects", type=int, default=2)
    p.add_argument("--order", type=int, default=2)
    p.add_argument("--dims", type=str, default=None)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    started = time.time()
    try:
        args.tol = _tol(args)
        budget = getattr(args, "coset_budget", None)
        if budget is not None and budget < 1:
            raise InvalidParams(f"--coset-budget {budget}: budget must be >= 1")
        report = globals()[args.run](args)
    except (json.JSONDecodeError, UnicodeDecodeError, OSError) as err:
        print(f"parse error: {err}", file=sys.stderr)
        return 2
    except InvalidParams as err:
        print(f"invalid parameters: {err}", file=sys.stderr)
        return 2
    except CStarCatError as err:
        print(f"check failed: {type(err).__name__}: {err}", file=sys.stderr)
        return 1
    except Exception as err:
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return 4
    return _emit(report, args, started)


if __name__ == "__main__":
    sys.exit(main())
