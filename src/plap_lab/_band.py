"""LAPACK's banded Cholesky, factored on the calling thread.

Every sparse symmetric positive definite system of the program is factored
here: the mesh map's graph Laplacian (``geometry._harmonic_map``) and the
Newton tangents (``solver._factor``).  Both are factored in the mesh's own
vertex numbering, which each mesher makes keep their entries in a narrow
band about the diagonal (George and Liu, Computer Solution of Large Sparse
Positive Definite Systems, 1981).  ``dpbtrf`` factors the upper band in
LAPACK's (kd + 1) x n band storage and ``dpbtrs`` solves with it.

LAPACK's block size for ``dpbtrf`` is 1 at half-widths kd <= 64 (reference
ILAENV), so such a band is factored unblocked, one rank-1 update of at most
kd x kd entries per column.  OpenBLAS splits every one of those small
updates across its threads, which costs more than it saves: with 2 BLAS
threads a factorization on the 2:1 ellipse at h = 0.035 (kd = 55) took
three times as long as with 1.  So ``dpbtrf`` runs in ``_serial``, which
sets scipy's OpenBLAS to one thread on the calling thread alone
(``openblas_set_num_threads_local``) and restores the previous setting
after, whether the factorization succeeds or raises.  The factor is bit for
bit the same at any thread count.  Where scipy's OpenBLAS or that symbol is
not found, the factorization runs with the library's own threads.
scipy.linalg is imported on the first factorization.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class BandCholesky:
    """The upper Cholesky factor of an SPD matrix of half-width ``kd``, in
    LAPACK's (kd + 1) x n band storage; ``solve`` runs ``dpbtrs``."""
    band: np.ndarray
    kd: int

    def solve(self, b: np.ndarray) -> np.ndarray:
        from scipy.linalg.lapack import dpbtrs
        return dpbtrs(self.band, b)[0]


def band_cholesky(rows: np.ndarray, cols: np.ndarray, values: np.ndarray,
                  n: int) -> BandCholesky:
    """LAPACK's banded Cholesky (``dpbtrf``) of the n x n SPD matrix whose
    upper triangle holds ``values`` at (``rows``, ``cols``), rows <= cols,
    each entry once.  The half-width kd is the largest col - row, and the
    entries go straight into LAPACK's band storage,
    ab[kd + i - j, j] = A[i, j].  A matrix that is not positive definite
    raises RuntimeError."""
    from scipy.linalg.lapack import dpbtrf
    kd = int((cols - rows).max(initial=0))
    # row j of `band` is column j of LAPACK's storage
    band = np.zeros((n, kd + 1))
    band[cols, kd + rows - cols] = values
    with _serial():
        factor, info = dpbtrf(band.T, overwrite_ab=1)
        if info > 0:
            raise RuntimeError(f"the leading minor of order {info} is not positive definite")
    return BandCholesky(factor, kd)


@functools.cache
def _local_threads():
    """scipy's OpenBLAS ``openblas_set_num_threads_local``, which sets the
    calling thread's thread count and returns the one it replaced, or None
    where it is not found.  The library is the one scipy.linalg loads, from
    the ``scipy.libs`` folder of a wheel install."""
    import scipy
    import scipy.linalg.lapack  # noqa: F401  loads scipy's OpenBLAS first
    for path in sorted((Path(scipy.__file__).parents[1] / "scipy.libs")
                       .glob("libscipy_openblas*.so")):
        try:
            setter = ctypes.CDLL(str(path)).openblas_set_num_threads_local
        except (OSError, AttributeError):
            continue
        setter.argtypes, setter.restype = [ctypes.c_int], ctypes.c_int
        return setter
    return None


@contextlib.contextmanager
def _serial():
    """Run the block with scipy's OpenBLAS on one thread on the calling
    thread, and restore its previous setting after."""
    setter = _local_threads()
    if setter is None:
        yield
        return
    previous = setter(1)
    try:
        yield
    finally:
        setter(previous)
