"""Numerical substrate: complex dense matrices, operator norms, Hermitian
functional calculus, Hilbert-Schmidt subspaces of matrix spaces, and seeded
search for invertible elements.

All values are immutable after construction (stacked matrices are read-only)
and all routines are pure given explicit seeds. Matrices are numpy
``complex128`` arrays throughout; equality is tolerance-based, with residuals
compared against ``eps_abs * max(1, operand norms)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidMatrix,
    MalformedInput,
    MissingShape,
    NotHermitian,
    NotSquare,
    ShapeMismatch,
    SingularOperand,
)


@dataclass(frozen=True)
class Tolerance:
    """The comparison policy of the package. ``eps_abs`` judges single
    comparisons (``close``, the rank cutoff, the adjunction and exponential
    round trips); ``composite`` judges residuals that accumulate several
    products and solves: functor distances, factorization composites,
    lifting triangles, lifted unitaries, retracts and the comparison
    functor's residual."""

    eps_abs: float = 1e-9

    def __post_init__(self):
        if not self.eps_abs > 0:
            raise ValueError("tolerances must be strictly positive")

    @property
    def composite(self) -> float:
        """The bound on composite residuals: ``10 * eps_abs``."""
        return 10 * self.eps_abs

    def bound(self, *scales: float) -> float:
        """Comparison threshold scaled by ``max(1, scales)``."""
        return self.eps_abs * max(1.0, *scales) if scales else self.eps_abs

    def close(self, a: np.ndarray, b: np.ndarray) -> bool:
        a, b = np.asarray(a), np.asarray(b)
        if a.shape != b.shape:
            return False
        scale = max(float(np.linalg.norm(a)), float(np.linalg.norm(b)))
        return float(np.linalg.norm(a - b)) <= self.bound(scale)


DEFAULT_TOL = Tolerance()


def as_matrix(m, rows: int | None = None, cols: int | None = None) -> np.ndarray:
    """Coerce to a finite complex128 matrix, validating shape if given."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2:
        raise InvalidMatrix(f"expected a 2-d matrix, got ndim={a.ndim}")
    if not np.all(np.isfinite(a)):
        raise InvalidMatrix("matrix has non-finite entries")
    if rows is not None and a.shape != (rows, cols):
        raise ShapeMismatch(f"expected shape {(rows, cols)}, got {a.shape}")
    return a


def stack_matrices(mats, rows: int, cols: int) -> np.ndarray:
    """One read-only ``(n, rows, cols)`` complex128 array of ``n`` matrices,
    each checked by ``as_matrix``: the one storage of a hom basis and of a
    functor's images of it."""
    mats = [as_matrix(m, rows, cols) for m in mats]
    stacked = np.stack(mats) if mats else np.zeros((0, rows, cols), dtype=np.complex128)
    stacked.flags.writeable = False
    return stacked


def matrix_to_json(m: np.ndarray) -> list:
    """Row-major nested lists of [re, im] pairs; a ``(n, rows, cols)``
    stack gives the list of its ``n`` matrices' lists."""
    m = np.asarray(m, dtype=np.complex128)
    return np.stack((m.real, m.imag), -1).tolist()


def matrix_from_json(data) -> np.ndarray:
    rows = []
    try:
        for row in data:
            rows.append([complex(re, im) for re, im in row])
        stacked = np.array(rows, dtype=np.complex128)
    except (TypeError, ValueError) as err:
        raise MalformedInput(f"matrix entries must be [re, im] pairs: {err}") from None
    if not rows:
        return np.zeros((0, 0), dtype=np.complex128)
    return as_matrix(stacked)


def split_pair_key(key: str) -> tuple[str, str]:
    """Parse the ``"a|b"`` keys of the JSON hom and composition tables."""
    parts = key.split("|")
    if len(parts) != 2:
        raise MalformedInput(f"key {key!r} is not of the form 'a|b'")
    return parts[0], parts[1]


def hs_norm(a: np.ndarray) -> float:
    return float(np.linalg.norm(a))


def op_norm(m) -> float:
    """Largest singular value; realizes the C*-norm in the concrete model."""
    a = as_matrix(m)
    if a.size == 0:
        return 0.0
    return float(np.linalg.svd(a, compute_uv=False)[0])


def numerical_rank(svals: np.ndarray, tol: Tolerance) -> int:
    """Number of singular values (in descending order) above
    ``tol.bound(sigma_max)``: the one rank cutoff of the package."""
    if not svals.size:
        return 0
    return int(np.sum(svals > tol.bound(float(svals[0]))))


def kernel_rows(m: np.ndarray, tol: Tolerance) -> np.ndarray:
    """Orthonormal basis of the null space of ``m``: the conjugated right
    singular rows past ``numerical_rank``.

    The SVD is taken of the R factor of a QR decomposition (Chan, ACM TOMS
    8, 1982), which has the singular values and right singular vectors of
    ``m`` but only min(rows, cols) rows, so the rows x rows U of a full SVD
    of ``m`` is never formed. ``full_matrices`` stays on because R is wide
    when ``m`` is, and the kernel then lies in the rows a thin SVD drops.
    """
    _, svals, vh = np.linalg.svd(np.linalg.qr(m, mode="r"), full_matrices=True)
    return vh[numerical_rank(svals, tol):].conj()


def smallest_singular_value(m) -> float:
    a = as_matrix(m)
    if a.size == 0:
        return 0.0
    return float(np.linalg.svd(a, compute_uv=False)[-1])


def is_hermitian(m, tol: Tolerance = DEFAULT_TOL) -> bool:
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        return False
    return float(np.linalg.norm(a - a.conj().T)) <= tol.bound(hs_norm(a))


def herm_funcalc(h, fn: str, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Apply ``fn`` in {sqrt, inv_sqrt, inv} to a Hermitian matrix via its
    eigendecomposition.

    ``inv_sqrt`` and ``inv`` require every eigenvalue above ``tol.eps_abs``;
    ``sqrt`` tolerates eigenvalues down to ``-tol.eps_abs`` (clipped to 0).
    """
    a = as_matrix(h)
    if a.shape[0] != a.shape[1]:
        raise NotHermitian(f"matrix of shape {a.shape} is not square")
    if not is_hermitian(a, tol):
        raise NotHermitian("matrix is not Hermitian within tolerance")
    sym = (a + a.conj().T) / 2.0
    eigvals, eigvecs = np.linalg.eigh(sym)
    if fn == "sqrt":
        if np.any(eigvals < -tol.eps_abs):
            raise SingularOperand(f"negative eigenvalue {eigvals.min():.3e} under sqrt")
        vals = np.sqrt(np.clip(eigvals, 0.0, None))
    elif fn == "inv_sqrt":
        if np.any(eigvals <= tol.eps_abs):
            raise SingularOperand(f"eigenvalue {eigvals.min():.3e} too small for inv_sqrt")
        vals = 1.0 / np.sqrt(eigvals)
    elif fn == "inv":
        if np.any(eigvals <= tol.eps_abs):
            raise SingularOperand(f"eigenvalue {eigvals.min():.3e} too small for inv")
        vals = 1.0 / eigvals
    else:
        raise ValueError(f"unknown function {fn!r}")
    out = (eigvecs * vals) @ eigvecs.conj().T
    return (out + out.conj().T) / 2.0


def is_unitary(m, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff a*a = 1 and aa* = 1 within tolerance."""
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        return False
    eye = np.eye(a.shape[1])
    left = float(np.linalg.norm(a.conj().T @ a - eye))
    right = float(np.linalg.norm(a @ a.conj().T - eye))
    return left <= tol.bound(1.0) and right <= tol.bound(1.0)


class Subspace:
    """A linear subspace of the ``rows x cols`` complex matrices, held as an
    orthonormal basis under the Hilbert-Schmidt inner product.

    ``basis`` is one read-only ``(dim, rows, cols)`` array; ``_rows`` is its
    ``(dim, rows * cols)`` view of flattened rows, which makes projections
    one matmul.
    """

    def __init__(self, ambient_rows: int, ambient_cols: int, basis=(),
                 tol: Tolerance = DEFAULT_TOL, _trusted: bool = False):
        self.ambient_rows = int(ambient_rows)
        self.ambient_cols = int(ambient_cols)
        self.tol = tol
        self.basis = stack_matrices(basis, self.ambient_rows, self.ambient_cols)
        self._rows = self.basis.reshape(self.dim, self.ambient_rows * self.ambient_cols)
        if self.dim and not _trusted:
            gram = self._rows @ self._rows.conj().T
            if float(np.linalg.norm(gram - np.eye(self.dim))) > tol.bound(1.0):
                raise InvalidMatrix("basis is not HS-orthonormal; use subspace_span")

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.ambient_rows, self.ambient_cols)

    def coords(self, m) -> np.ndarray:
        """HS coordinates of ``m`` with respect to the stored basis."""
        a = as_matrix(m, self.ambient_rows, self.ambient_cols)
        # conj(R) a = conj(R conj(a)): conjugates one vector, not the basis
        return (self._rows @ a.ravel().conj()).conj()

    def from_coords(self, coeffs) -> np.ndarray:
        c = np.asarray(coeffs, dtype=np.complex128)
        if c.shape != (self.dim,):
            raise ShapeMismatch(f"expected {self.dim} coordinates, got {c.shape}")
        flat = c @ self._rows
        return flat.reshape(self.ambient_rows, self.ambient_cols)

    def project(self, m) -> np.ndarray:
        return self.from_coords(self.coords(m))

    def residual(self, m) -> float:
        """HS distance from ``m`` to the subspace."""
        a = as_matrix(m, self.ambient_rows, self.ambient_cols)
        return hs_norm(a - self.project(a))

    def contains(self, m, tol: Tolerance | None = None) -> bool:
        tol = tol or self.tol
        a = as_matrix(m, self.ambient_rows, self.ambient_cols)
        return self.residual(a) <= tol.bound(hs_norm(a))

    def __repr__(self):
        return f"Subspace({self.ambient_rows}x{self.ambient_cols}, dim={self.dim})"


def subspace_span(mats, ambient_shape: tuple[int, int] | None = None,
                  tol: Tolerance = DEFAULT_TOL) -> Subspace:
    """Orthonormalize a list of matrices into a :class:`Subspace`.

    Dependent inputs are dropped: the dimension equals the numerical rank of
    the stack, with singular values below ``eps_abs * max(1, sigma_max)``
    treated as zero.
    """
    mats = list(mats)
    if not mats:
        if ambient_shape is None:
            raise MissingShape("empty span needs an explicit ambient shape")
        return Subspace(ambient_shape[0], ambient_shape[1], [], tol=tol)
    first = as_matrix(mats[0])
    shape = first.shape
    if ambient_shape is not None and tuple(ambient_shape) != shape:
        raise ShapeMismatch(f"ambient {ambient_shape} != matrix shape {shape}")
    stacked = stack_matrices(mats, *shape).reshape(len(mats), -1)
    _, svals, vh = np.linalg.svd(stacked, full_matrices=False)
    rank = numerical_rank(svals, tol)
    return Subspace(shape[0], shape[1], vh[:rank].reshape(rank, *shape), tol=tol,
                    _trusted=True)


INVERTIBLE_SAMPLES = 64


def find_invertible(space: Subspace, seed: int,
                    tol: Tolerance = DEFAULT_TOL) -> np.ndarray | None:
    """Search a square-matrix subspace for an invertible element.

    Draws ``INVERTIBLE_SAMPLES`` seeded random coefficient vectors, normalizes
    each candidate to unit operator norm, and accepts the first one whose
    smallest singular value exceeds ``eps_abs``. A ``None`` answer is only
    evidence of absence (the determinant polynomial may vanish on every
    sample), never a proof.
    """
    if space.ambient_rows != space.ambient_cols:
        raise NotSquare("invertible elements require a square ambient shape")
    if space.dim == 0:
        return None
    rng = np.random.default_rng(np.random.PCG64(seed))
    for _ in range(INVERTIBLE_SAMPLES):
        coeffs = rng.standard_normal(space.dim) + 1j * rng.standard_normal(space.dim)
        candidate = space.from_coords(coeffs)
        top = op_norm(candidate)
        if top <= tol.eps_abs:
            continue
        candidate = candidate / top
        if smallest_singular_value(candidate) > tol.eps_abs:
            return candidate
    return None
