"""LAPACK's banded Cholesky, factored on the calling thread.

Every sparse symmetric positive definite system of the program is factored
here: the mesh map's graph Laplacian (``geometry._harmonic_map``) and the
Newton tangents (``solver._factor``).  Both are factored in the mesh's own
vertex numbering, which each mesher makes keep their entries in a narrow
band about the diagonal (George and Liu, Computer Solution of Large Sparse
Positive Definite Systems, 1981).  ``dpbtrf`` factors the upper band in
LAPACK's (kd + 1) x n band storage and ``dpbtrs`` solves with it.

Both routines are called by ctypes from scipy's OpenBLAS, the library in
the ``scipy.libs`` folder of a wheel install, as ``scipy_dpbtrf_`` and
``scipy_dpbtrs_`` (`_OpenBLAS`).  So a run imports no scipy.linalg, whose
f2py wrappers call the same two routines of the same library, bit for bit
alike, and with the sparse products of ``_sparse`` a disk, ellipse or
annulus run imports no public scipy subpackage at all.  Where the library
or a symbol is not found the routines come from scipy.linalg.lapack
(`_ScipyLapack`), imported on the first factorization.  Any nonzero
``info`` of either routine raises RuntimeError.  The import saved costs
each solve a little: on the disk at h = 0.025 (5167 unknowns,
kd = 83, 2-vCPU host) a ctypes ``dpbtrs`` took about 0.31 ms against the
f2py call's 0.29, with the same gap when the call solves in place, so it
lies in the call and not in building its arguments.

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
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
from pathlib import Path
from typing import Callable

import numpy as np


class BandCholesky:
    """The upper Cholesky factor of an SPD matrix of half-width ``kd``, in
    LAPACK's (kd + 1) x n band storage (Fortran order); ``solve`` runs
    ``dpbtrs`` on one or more right-hand sides, whose call arguments are
    built here, once per factor."""

    def __init__(self, band: np.ndarray, kd: int):
        self.band, self.kd = band, kd
        self._dpbtrs = _lapack().solver(band, kd)

    def solve(self, b: np.ndarray) -> np.ndarray:
        x, info = self._dpbtrs(b)
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
        factor, info = _lapack().factor(band.T, kd)
        _check(info, "dpbtrf")
    return BandCholesky(factor, kd)


def _check(info: int, routine: str) -> None:
    """Raise RuntimeError on a nonzero LAPACK ``info``: a leading minor that
    is not positive definite (> 0), or an illegal argument (< 0)."""
    if info > 0:
        raise RuntimeError(f"the leading minor of order {info} is not positive definite")
    if info < 0:
        raise RuntimeError(f"{routine}: argument {-info} has an illegal value")


def _ref(value: int):
    """A Fortran integer argument: a 32-bit int, passed by reference."""
    return ctypes.byref(ctypes.c_int(value))


def _pointer(a: np.ndarray) -> ctypes.Array:
    """The data of the Fortran-ordered float64 array ``a`` as a ctypes
    array, which keeps ``a`` alive and is passed as a pointer to its first
    entry.  ``a.T`` shares that data in C order, as the buffer protocol
    asks; a non-contiguous ``a`` raises TypeError there."""
    if a.dtype != np.float64:
        raise ValueError(f"LAPACK's d routines take float64, not {a.dtype}")
    return (ctypes.c_double * a.size).from_buffer(a.T)


_UPLO = ctypes.c_char_p(b"U")        # the upper triangle
_UPLO_LENGTH = ctypes.c_size_t(1)    # its hidden length argument, last


class _OpenBLAS:
    """``dpbtrf`` and ``dpbtrs`` of scipy's OpenBLAS, called by ctypes as
    gfortran passes arguments: each by reference, integers as LAPACK's 32-bit
    ones, and the hidden length of the character argument ``uplo`` last.  A
    solve's arguments are built once per factor.  The band ``ab`` is a
    Fortran-ordered (ldab, n) float64 array."""

    def __init__(self, lib: ctypes.CDLL):
        # an AttributeError here means a symbol is missing
        self.dpbtrf, self.dpbtrs = lib.scipy_dpbtrf_, lib.scipy_dpbtrs_
        for routine, pointers in ((self.dpbtrf, 5), (self.dpbtrs, 8)):
            routine.argtypes = ([ctypes.c_char_p] + [ctypes.c_void_p] * pointers
                                + [ctypes.c_size_t])
            routine.restype = None

    def factor(self, ab: np.ndarray, kd: int) -> tuple[np.ndarray, int]:
        """``dpbtrf`` of ``ab`` in place: (ab, info)."""
        info = ctypes.c_int()
        self.dpbtrf(_UPLO, _ref(ab.shape[1]), _ref(kd), _pointer(ab), _ref(ab.shape[0]),
                    ctypes.byref(info), _UPLO_LENGTH)
        return ab, info.value

    def solver(self, ab: np.ndarray, kd: int) -> Callable[[np.ndarray], tuple[np.ndarray, int]]:
        """The map b -> (x, info) of ``dpbtrs`` with the factor ``ab``; b has
        n rows and one column (shape (n,)) or more (shape (n, nrhs)), and x
        comes back in b's shape, Fortran-ordered."""
        n, one = _ref(ab.shape[1]), _ref(1)
        head = (_UPLO, n, _ref(kd))
        band = (_pointer(ab), _ref(ab.shape[0]))

        def solve(b: np.ndarray) -> tuple[np.ndarray, int]:
            x = np.array(b, dtype=float, order="F")
            if x.ndim > 2 or x.shape[:1] != ab.shape[1:]:
                raise ValueError(f"right-hand side of shape {x.shape} for a factor of order {ab.shape[1]}")
            info = ctypes.c_int()
            nrhs = one if x.ndim == 1 else _ref(x.shape[1])
            self.dpbtrs(*head, nrhs, *band, _pointer(x), n, ctypes.byref(info), _UPLO_LENGTH)
            return x, info.value
        return solve


class _ScipyLapack:
    """The same two routines from scipy.linalg.lapack's f2py wrappers, which
    read kd from the band's shape."""

    def __init__(self):
        from scipy.linalg.lapack import dpbtrf, dpbtrs
        self.dpbtrf, self.dpbtrs = dpbtrf, dpbtrs

    def factor(self, ab: np.ndarray, kd: int) -> tuple[np.ndarray, int]:
        return self.dpbtrf(ab, overwrite_ab=1)

    def solver(self, ab: np.ndarray, kd: int) -> Callable[[np.ndarray], tuple[np.ndarray, int]]:
        return lambda b: self.dpbtrs(ab, b)


@functools.cache
def _openblas() -> ctypes.CDLL | None:
    """scipy's OpenBLAS, from the ``scipy.libs`` folder of a wheel install,
    or None where it is not found.  Importing scipy itself loads no
    subpackage."""
    import scipy
    for path in sorted((Path(scipy.__file__).parents[1] / "scipy.libs")
                       .glob("libscipy_openblas*.so")):
        try:
            return ctypes.CDLL(str(path))
        except OSError:
            continue
    return None


@functools.cache
def _lapack() -> _OpenBLAS | _ScipyLapack:
    """The band routines: by ctypes where scipy's OpenBLAS and both symbols
    are found, else from scipy.linalg.lapack."""
    lib = _openblas()
    if lib is not None:
        with contextlib.suppress(AttributeError):
            return _OpenBLAS(lib)
    return _ScipyLapack()


@functools.cache
def _local_threads():
    """scipy's OpenBLAS ``openblas_set_num_threads_local``, which sets the
    calling thread's thread count and returns the one it replaced, or None
    where it is not found."""
    lib = _openblas()
    setter = getattr(lib, "openblas_set_num_threads_local", None)
    if setter is None:
        return None
    setter.argtypes, setter.restype = [ctypes.c_int], ctypes.c_int
    return setter


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
