"""Cyclic Jacobi eigensolver, kept as an independent oracle.

The library takes its eigenvalues from numpy.linalg.eigvalsh; the tests
cross-check that route against this one, which shares no code with it.
"""
import math

import numpy as np


def jacobi_eigenvalues(A: np.ndarray, tol: float = 1e-12,
                       max_sweeps: int = 60) -> np.ndarray:
    """Eigenvalues of a symmetric matrix by cyclic Jacobi rotations."""
    A = np.array(A, dtype=float)
    n = A.shape[0]
    if n == 0:
        return np.zeros(0)
    scale = max(1.0, float(np.sqrt(np.sum(A * A))))
    for _ in range(max_sweeps):
        off = math.sqrt(max(0.0, float(np.sum(A * A) - np.sum(np.diag(A) ** 2))))
        if off <= tol * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = A[p, q]
                if abs(apq) <= 1e-300:
                    continue
                theta = (A[q, q] - A[p, p]) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                rowp = A[p, :].copy()
                rowq = A[q, :].copy()
                A[p, :] = c * rowp - s * rowq
                A[q, :] = s * rowp + c * rowq
                colp = A[:, p].copy()
                colq = A[:, q].copy()
                A[:, p] = c * colp - s * colq
                A[:, q] = s * colp + c * colq
                A[p, q] = A[q, p] = 0.0
    return np.sort(np.diag(A))
