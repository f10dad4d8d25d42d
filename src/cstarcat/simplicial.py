"""Finite simplicial sets with explicit degeneracy bookkeeping.

Only nondegenerate simplices are stored, and only the dimensions that hold
some; every simplex is addressed by a :class:`SimplexRef`, a nondegenerate
base name together with a canonical strictly-decreasing word of degeneracy
operators. Faces of arbitrary refs are computed by pushing face operators
through degeneracies with the simplicial identities, bottoming out in the
stored face tables. The exhaustive check of the simplicial identities computes
the faces of each distinct face ref once per check.

Simplices are inserted a level at a time (``add_level``, the one insertion
path), each entry checked in listing order, so the error raised is the first
one met. The face checks of a level run once per distinct face ref, not once
per face slot.

Standard simplices, horns and boundaries are generated from vertex subsets of
{0..n}; the horn inclusions come out as :class:`SimplicialMap` values.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from .errors import InvalidParams, InvalidSimplicialSet, MalformedInput


def canon_degens(word) -> tuple[int, ...]:
    """Normalize a degeneracy word (outermost first) to the canonical
    strictly decreasing form via s_i s_j = s_{j+1} s_i for i <= j."""
    word = list(word)
    changed = True
    while changed:
        changed = False
        for k in range(len(word) - 1):
            i, j = word[k], word[k + 1]
            if i <= j:
                word[k], word[k + 1] = j + 1, i
                changed = True
    return tuple(word)


class SimplexRef(NamedTuple):
    """A (possibly degenerate) simplex: ``s_{j1} ... s_{jk}`` applied to a
    nondegenerate base, with j1 > ... > jk."""

    base: str
    base_dim: int
    degens: tuple = ()

    @property
    def dim(self) -> int:
        return self.base_dim + len(self.degens)

    @property
    def degenerate(self) -> bool:
        return bool(self.degens)

    def degenerate_by(self, i: int) -> "SimplexRef":
        word = canon_degens((i,) + self.degens)
        return SimplexRef(self.base, self.base_dim, word)

    def to_json(self):
        if not self.degens:
            return self.base
        return {"of": self.base, "degens": list(self.degens)}


class FiniteSimplicialSet:
    """Nondegenerate simplices per dimension up to ``dim_cap``, each with its
    tuple of dim+1 face refs into the dimension below."""

    def __init__(self, dim_cap: int):
        if dim_cap < 0:
            raise InvalidParams("dim_cap must be >= 0")
        self.dim_cap = dim_cap
        # dim -> name -> tuple of SimplexRef faces (empty for vertices); a
        # dimension appears once it holds a simplex
        self.simplices: dict[int, dict[str, tuple]] = {}

    # -- construction --------------------------------------------------------

    def add_level(self, dim: int, entries):
        """Insert the ``dim``-simplices ``entries``, pairs (name, faces), in
        listing order. Each must have a new name and, above dimension 0,
        dim + 1 face refs (hashable ``SimplexRef`` values) of dimension
        dim - 1 into stored simplices, each with a degeneracy word that
        applies: strictly decreasing, every index >= 0 and the outermost
        <= dim - 2.

        Each entry is checked and inserted in turn, so the first failing
        entry raises the error it meets first and the entries before it
        stay. A face ref that passed its checks once in the call is not
        checked again: the dimension below does not change while a level
        is filled. A level left empty leaves no key in ``simplices``."""
        if dim > self.dim_cap or dim < 0:
            raise InvalidParams(f"dimension {dim} outside 0..{self.dim_cap}")
        known = self.simplices
        here = known.setdefault(dim, {})
        checked = set()
        try:
            for name, faces in entries:
                if name in here:
                    raise InvalidSimplicialSet(f"duplicate {dim}-simplex {name!r}")
                faces = tuple(faces)
                if dim == 0:
                    if faces:
                        raise InvalidSimplicialSet("vertices have no faces")
                else:
                    if len(faces) != dim + 1:
                        raise InvalidSimplicialSet(
                            f"{dim}-simplex {name!r} needs {dim + 1} faces")
                    for face in faces:
                        if face in checked:
                            continue
                        base, base_dim, degens = face
                        if base_dim + len(degens) != dim - 1:
                            raise InvalidSimplicialSet(f"face of {name!r} has wrong dimension")
                        top = dim - 1
                        for j in degens:
                            if not 0 <= j < top:
                                raise InvalidSimplicialSet(
                                    f"face of {name!r} has a degeneracy word that does not apply")
                            top = j
                        if base not in known.get(base_dim, ()):
                            raise InvalidSimplicialSet(f"face of {name!r} references "
                                                       f"unknown simplex {base!r}")
                        checked.add(face)
                here[name] = faces
        finally:
            if not here:
                del known[dim]

    def ref(self, dim: int, name: str) -> SimplexRef:
        if name not in self.simplices.get(dim, {}):
            raise InvalidSimplicialSet(f"unknown {dim}-simplex {name!r}")
        return SimplexRef(name, dim)

    # -- structure maps --------------------------------------------------------

    def face(self, ref: SimplexRef, i: int) -> SimplexRef:
        """d_i of an arbitrary simplex ref, by the simplicial identities."""
        base, base_dim, degens = ref
        dim = base_dim + len(degens)
        if dim == 0:
            raise InvalidParams("vertices have no faces")
        if not 0 <= i <= dim:
            raise InvalidParams(f"face index {i} out of range for dim {dim}")
        if not degens:
            return self.simplices[base_dim][base][i]
        j = degens[0]
        inner = SimplexRef(base, base_dim, degens[1:])
        if i == j or i == j + 1:
            return inner
        if i < j:
            return self.face(inner, i).degenerate_by(j - 1)
        return self.face(inner, i - 1).degenerate_by(j)

    def nondegenerate(self, dim: int) -> list[str]:
        return list(self.simplices.get(dim, {}))

    def count_nondegenerate(self, dim: int) -> int:
        return len(self.simplices.get(dim, {}))

    def identity_violations(self) -> list[str]:
        """Exhaustive check of d_i d_j = d_{j-1} d_i (i < j) on every stored
        simplex up to dim_cap. d_j x is read from the stored faces of x, and
        the faces of each distinct face ref are computed once per call."""
        out = []
        face_tuples: dict[SimplexRef, tuple] = {}
        for dim in sorted(d for d in self.simplices if d >= 2):
            pairs = [(i, j) for j in range(1, dim + 1) for i in range(j)]
            for name, faces in self.simplices[dim].items():
                lower = [face_tuples[f] if f in face_tuples else
                         face_tuples.setdefault(f, tuple(self.face(f, k) for k in range(dim)))
                         for f in faces]
                for i, j in pairs:
                    if lower[j][i] != lower[i][j - 1]:
                        out.append(f"d_{i} d_{j} != d_{j-1} d_{i} at {name!r}")
        return out

    # -- serialization ----------------------------------------------------------

    def to_json(self) -> dict:
        blob = {}
        for dim in range(self.dim_cap + 1):
            entries = []
            for name, faces in self.simplices.get(dim, {}).items():
                entry = {"name": name, "degenerate": False}
                if dim > 0:
                    entry["faces"] = [f.to_json() for f in faces]
                entries.append(entry)
            blob[str(dim)] = entries
        return {"dim_cap": self.dim_cap, "simplices": blob}

    @classmethod
    def from_json(cls, data) -> "FiniteSimplicialSet":
        """Read a simplicial-set file; a JSON shape error raises
        ``MalformedInput``, face data that breaks the simplicial identities
        ``InvalidSimplicialSet``. Keys of ``simplices`` other than the
        dimensions 0..dim_cap are ignored."""
        try:
            dim_cap = data["dim_cap"]
            if type(dim_cap) is not int:
                raise TypeError(f"dim_cap {dim_cap!r} is not an integer")
            blob = data["simplices"]
            if not isinstance(blob, dict):
                raise TypeError(f"simplices must be an object, not {type(blob).__name__}")
            levels = [(dim, [(entry, [_face_from_json(raw, dim) for raw in entry.get("faces", [])])
                             for entry in blob[str(dim)]])
                      for dim in _listed_dims(blob, dim_cap)]
            if not all(isinstance(entry["name"], str)
                       for _dim, level in levels for entry, _faces in level):
                raise TypeError("simplex names must be strings")
            if not all(type(entry.get("degenerate", False)) is bool
                       for _dim, level in levels for entry, _faces in level):
                raise TypeError("degenerate must be true or false")
        except (AttributeError, KeyError, TypeError) as err:
            raise MalformedInput(f"simplicial-set file: {type(err).__name__}: {err}") from None
        out = cls(dim_cap)
        for dim, level in levels:
            # the entries before the first degenerate one go in as one level,
            # so an error among them is still met before the degenerate one
            clean = list(itertools.takewhile(lambda item: not item[0].get("degenerate"), level))
            out.add_level(dim, [(entry["name"], faces) for entry, faces in clean])
            if len(clean) < len(level):
                raise InvalidSimplicialSet("only nondegenerate simplices may be listed")
        bad = out.identity_violations()
        if bad:
            raise InvalidSimplicialSet("; ".join(bad[:3]))
        return out

    def __repr__(self):
        counts = [self.count_nondegenerate(d) for d in range(self.dim_cap + 1)]
        return f"FiniteSimplicialSet(nondegenerate per dim: {counts})"


def _listed_dims(blob: dict, dim_cap: int) -> list[int]:
    """The dimensions 0..dim_cap that have a key in ``blob``, ascending."""
    dims = []
    for key in blob:
        try:
            dim = int(key)
        except (TypeError, ValueError):
            continue
        if 0 <= dim <= dim_cap and str(dim) == key:
            dims.append(dim)
    return sorted(dims)


def _face_from_json(raw, dim: int) -> SimplexRef:
    """A face entry of a ``dim``-simplex: a base name, or {"of", "degens"}."""
    if isinstance(raw, str):
        return SimplexRef(raw, dim - 1)
    base, degens = raw["of"], list(raw["degens"])
    if not isinstance(base, str) or not all(type(j) is int for j in degens):
        raise TypeError(f"face {raw!r} needs a name and integer degeneracies")
    degens = canon_degens(degens)
    return SimplexRef(base, dim - 1 - len(degens), degens)


class SimplicialMap:
    """Per-dimension assignment of nondegenerate simplices to target refs,
    commuting with all face maps up to dim_cap."""

    def __init__(self, source: FiniteSimplicialSet, target: FiniteSimplicialSet,
                 maps: dict):
        self.source = source
        self.target = target
        self.maps = {int(d): dict(m) for d, m in maps.items()}
        bad = self.violations()
        if bad:
            raise InvalidSimplicialSet("; ".join(bad[:3]))

    def apply(self, ref: SimplexRef) -> SimplexRef:
        image = self.maps[ref.base_dim][ref.base]
        for j in reversed(ref.degens):
            image = image.degenerate_by(j)
        return image

    def violations(self) -> list[str]:
        out = []
        for dim in range(min(self.source.dim_cap, self.target.dim_cap) + 1):
            for name in self.source.nondegenerate(dim):
                if name not in self.maps.get(dim, {}):
                    out.append(f"{dim}-simplex {name!r} has no image")
                    continue
                ref = self.source.ref(dim, name)
                image = self.apply(ref)
                if image.dim != dim:
                    out.append(f"image of {name!r} has wrong dimension")
                    continue
                if dim == 0:
                    continue
                for i in range(dim + 1):
                    left = self.apply(self.source.face(ref, i))
                    right = self.target.face(image, i)
                    if left != right:
                        out.append(f"face {i} of {name!r} does not commute")
        return out


# ---------------------------------------------------------------------------
# standard shapes


def _subset_name(verts) -> str:
    return ".".join(str(v) for v in verts)


def _build_from_subsets(subsets, dim_cap: int) -> FiniteSimplicialSet:
    out = FiniteSimplicialSet(dim_cap)
    chosen = sorted(subsets, key=lambda s: (len(s), s))
    for size, level in itertools.groupby(chosen, key=len):
        dim = size - 1
        if dim > dim_cap:
            break
        out.add_level(dim, [(_subset_name(verts),
                             [SimplexRef(_subset_name(verts[:i] + verts[i + 1:]), dim - 1)
                              for i in range(dim + 1)] if dim > 0 else ())
                            for verts in level])
    return out


def standard(kind: str, n: int, k: int | None = None, dim_cap: int = 3) -> FiniteSimplicialSet:
    """Delta[n], Horn(n, k) or Boundary(n) as a finite simplicial set.

    Nondegenerate simplices are the vertex subsets of {0..n}, minus the full
    set for boundaries, and minus both the full set and the k-th facet for
    horns.
    """
    if n < 0:
        raise InvalidParams("n must be >= 0")
    allsets = [tuple(c) for r in range(1, n + 2)
               for c in itertools.combinations(range(n + 1), r)]
    full = tuple(range(n + 1))
    if kind == "delta":
        subsets = allsets
    elif kind == "boundary":
        if n < 1:
            raise InvalidParams("boundary needs n >= 1")
        subsets = [s for s in allsets if s != full]
    elif kind == "horn":
        if k is None or not 0 <= k <= n or n < 1:
            raise InvalidParams("horn needs n >= 1 and 0 <= k <= n")
        omitted = tuple(v for v in full if v != k)
        subsets = [s for s in allsets if s not in (full, omitted)]
    else:
        raise InvalidParams(f"unknown kind {kind!r}")
    return _build_from_subsets(subsets, dim_cap)


def horn_inclusion(n: int, k: int, dim_cap: int = 3) -> SimplicialMap:
    """The generating trivial cofibration Horn(n, k) -> Delta[n]."""
    horn = standard("horn", n, k, dim_cap)
    delta = standard("delta", n, dim_cap=dim_cap)
    maps = {dim: {name: delta.ref(dim, name) for name in horn.nondegenerate(dim)}
            for dim in range(dim_cap + 1)}
    return SimplicialMap(horn, delta, maps)
