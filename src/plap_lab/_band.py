"""LAPACK's banded Cholesky, factored on the calling thread.

Every sparse symmetric positive definite system of the program is factored
here: the mesh map's graph Laplacian (``geometry._harmonic_map``) and the
Newton tangents (``solver._factor``).  Both are factored in the mesh's own
vertex numbering, which each mesher makes keep their entries in a narrow
band about the diagonal (George and Liu, Computer Solution of Large Sparse
Positive Definite Systems, 1981).  ``dpbtrf`` factors the upper band in
LAPACK's (kd + 1) x n band storage and ``dpbtrs`` solves with it.

Both routines are the f2py wrappers of scipy's ``_flapack`` extension,
which read n, kd and the number of right-hand sides from the arrays.  The
extension is loaded from its file by ``_sparse.scipy_extension``, so a run
imports no scipy.linalg, and with the sparse products of ``_sparse`` a
2-D run on any domain imports no public scipy subpackage at all.
Any nonzero ``info`` of either routine raises RuntimeError.

LAPACK's block size for ``dpbtrf`` is 1 at half-widths kd <= 64 (reference
ILAENV), so such a band is factored unblocked, one rank-1 update of at most
kd x kd entries per column.  OpenBLAS splits every one of those small
updates across its threads, which costs more than it saves: with 2 BLAS
threads a factorization on the 2:1 ellipse at h = 0.035 (kd = 55) took
three times as long as with 1.  So ``dpbtrf`` runs in ``_serial``, which
sets scipy's OpenBLAS to one thread on the calling thread alone
(``openblas_set_num_threads_local``, called by ctypes) and restores the
previous setting after, whether the factorization succeeds or raises.  The
factor is bit for bit the same at any thread count.  Where scipy's OpenBLAS
or that symbol is not found, the factorization runs with the library's own
threads.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
from pathlib import Path

import numpy as np

from ._sparse import scipy_extension

# scipy's f2py wrappers of LAPACK
_flapack = functools.partial(scipy_extension, "linalg", "_flapack")


class BandCholesky:
    """The upper Cholesky factor of an SPD matrix in LAPACK's (kd + 1) x n
    band storage (Fortran order); ``solve`` runs ``dpbtrs`` on one or more
    right-hand sides."""

    def __init__(self, band: np.ndarray):
        self.band = band

    @property
    def kd(self) -> int:
        return self.band.shape[0] - 1

    def solve(self, b: np.ndarray) -> np.ndarray:
        x, info = _flapack().dpbtrs(self.band, b)
        _check(info, "dpbtrs")
        return x


def band_cholesky(rows: np.ndarray, cols: np.ndarray, values: np.ndarray,
                  n: int) -> BandCholesky:
    """LAPACK's banded Cholesky (``dpbtrf``) of the n x n SPD matrix whose
    upper triangle holds ``values`` at (``rows``, ``cols``), rows <= cols,
    each entry once.  The half-width kd is the largest col - row, and the
    entries go straight into LAPACK's band storage,
    ab[kd + i - j, j] = A[i, j].  A matrix that is not positive definite
    raises RuntimeError."""
    kd = int((cols - rows).max(initial=0))
    # row j of `band` is column j of LAPACK's storage
    band = np.zeros((n, kd + 1))
    band[cols, kd + rows - cols] = values
    with _serial():
        factor, info = _flapack().dpbtrf(band.T, overwrite_ab=1)
        _check(info, "dpbtrf")
    return BandCholesky(factor)


def _check(info: int, routine: str) -> None:
    """Raise RuntimeError on a nonzero LAPACK ``info``: a leading minor that
    is not positive definite (> 0), or an illegal argument (< 0)."""
    if info > 0:
        raise RuntimeError(f"the leading minor of order {info} is not positive definite")
    if info < 0:
        raise RuntimeError(f"{routine}: argument {-info} has an illegal value")


@functools.cache
def _local_threads():
    """``openblas_set_num_threads_local`` of scipy's OpenBLAS, from the
    ``scipy.libs`` folder of a wheel install, which sets the calling
    thread's thread count and returns the one it replaced; None where the
    library or the symbol is not found."""
    import scipy
    for path in sorted((Path(scipy.__file__).parents[1] / "scipy.libs")
                       .glob("libscipy_openblas*.so")):
        with contextlib.suppress(OSError, AttributeError):
            # int openblas_set_num_threads_local(int)
            return ctypes.CFUNCTYPE(ctypes.c_int, ctypes.c_int)(
                ("openblas_set_num_threads_local", ctypes.CDLL(str(path))))
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
