"""Compressed sparse matrices as bare arrays, multiplied by scipy's kernels.

`Compressed` holds a CSR or CSC matrix (Saad, Iterative Methods for Sparse
Linear Systems, 2003, ch. 3).  Its products, and the pattern and square of
the recovery's two-ring, call the C++ routines of scipy's ``_sparsetools``
extension with scipy.sparse's arguments (a product on a zeroed result), so
each is scipy.sparse's bit for bit.

`scipy_extension` loads that extension, and the LAPACK wrappers
``_flapack`` of ``_band``, from its file, without its subpackage: importing
scipy.sparse would cost a 2-D run about 0.13 s and 15-20 MB, and
scipy.linalg loads much that no 2-D run uses.  A
module the subpackage has already imported is taken as it is, and where the
file is not found the module is imported through the subpackage.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@functools.cache
def scipy_extension(subpackage: str, name: str):
    """scipy's compiled module ``scipy.<subpackage>.<name>``: the one
    sys.modules holds, else the one loaded from its file, else an import
    through the subpackage.  A module loaded from its file is taken out of
    sys.modules again, so that a later import of the subpackage binds it
    as an attribute; CPython's extension cache gives that import the same
    functions, without a second initialization."""
    full = f"scipy.{subpackage}.{name}"
    if full in sys.modules:
        return sys.modules[full]
    import scipy
    folder = Path(scipy.__file__).parent / subpackage
    for path in (folder / (name + suffix) for suffix in importlib.machinery.EXTENSION_SUFFIXES):
        if path.is_file():
            spec = importlib.util.spec_from_file_location(full, path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            sys.modules.pop(full, None)
            return module
    return importlib.import_module(full)


# the C++ kernels of scipy.sparse
_kernels = functools.partial(scipy_extension, "sparse", "_sparsetools")


@dataclass(eq=False)
class Compressed:
    """An (m, n) matrix in ``layout`` "csr" (row i holds indices[indptr[i]:
    indptr[i + 1]]) or "csc" (the same by columns)."""

    layout: str
    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    shape: tuple[int, int]

    @property
    def nnz(self) -> int:
        return int(self.indptr[-1])

    @property
    def T(self) -> Compressed:
        """The transpose on the same arrays: a CSR matrix read as CSC."""
        return Compressed("csc" if self.layout == "csr" else "csr", self.data, self.indices,
                          self.indptr, self.shape[::-1])

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        m, n = self.shape
        y = np.zeros((m, *x.shape[1:]), dtype=np.result_type(self.data, x))
        if x.ndim == 1:
            getattr(_kernels(), self.layout + "_matvec")(
                m, n, self.indptr, self.indices, self.data, x, y)
        else:
            getattr(_kernels(), self.layout + "_matvecs")(
                m, n, x.shape[1], self.indptr, self.indices, self.data, x.ravel(), y.ravel())
        return y


def csr_pattern(rows: np.ndarray, cols: np.ndarray, shape: tuple[int, int]) -> Compressed:
    """The pattern of the (rows, cols) pairs as a canonical CSR matrix of
    ones, formed as scipy.sparse's COO to CSR and its sum of duplicates are:
    each row's columns ascending, each pair once."""
    m, nnz, kernels = shape[0], len(rows), _kernels()
    a = Compressed("csr", np.empty(nnz), np.empty(nnz, dtype=np.int32),
                   np.empty(m + 1, dtype=np.int32), shape)
    kernels.coo_tocsr(m, shape[1], nnz, rows.astype(np.int32), cols.astype(np.int32),
                      np.ones(nnz), a.indptr, a.indices, a.data)
    kernels.csr_sort_indices(m, a.indptr, a.indices, a.data)
    kernels.csr_sum_duplicates(m, shape[1], a.indptr, a.indices, a.data)
    return Compressed("csr", np.ones(a.nnz), a.indices[:a.nnz], a.indptr, shape)


def csr_square(a: Compressed) -> Compressed:
    """a @ a of a square CSR matrix, formed as scipy.sparse's csr @ csr is:
    the same entries in the same order within each row."""
    n, kernels = a.shape[0], _kernels()
    nnz = kernels.csr_matmat_maxnnz(n, n, a.indptr, a.indices, a.indptr, a.indices)
    c = Compressed("csr", np.empty(nnz), np.empty(nnz, dtype=a.indices.dtype),
                   np.empty(n + 1, dtype=a.indptr.dtype), (n, n))
    kernels.csr_matmat(n, n, a.indptr, a.indices, a.data, a.indptr, a.indices, a.data,
                       c.indptr, c.indices, c.data)
    # a sum that cancels to zero is dropped, as scipy.sparse prunes it
    return Compressed("csr", c.data[:c.nnz], c.indices[:c.nnz], c.indptr, (n, n))
