"""Draws, the structural function and the integrals of a finite atomic
random measure (cdburgers.randmeasure).  The structural function is
diagonal: each cell carries the nonnegative value |xi_j|^2 p_j times the
squared multiplier, and evaluations over cell-aligned sets are finite sums
of those atoms.  Step-function integrals, weighted measures, and the
iterated-integral exchange all reduce to rearrangements of one finite sum,
so their identities hold to rounding.

Only measure-check and the tests use this module; cdburgers.randmeasure
serves its names on first use.
"""

from __future__ import annotations

import numpy as np

from cdburgers.randmeasure import AtomicRandomMeasure, _draw_chunks, moments


class Realizations:
    """Index draws of one sampling run; per-sample values are gathers of a
    per-cell table by the draws."""

    def __init__(self, measure: AtomicRandomMeasure, draws: np.ndarray):
        self.measure = measure
        self.draws = draws

    @property
    def count(self) -> int:
        return len(self.draws)

    def coefficients(self) -> np.ndarray:
        """c[s, j] = xi_j 1{J_s = j}; at most one nonzero entry per row."""
        xi = np.asarray(self.measure.xi, dtype=np.complex128)
        return np.diag(xi)[self.draws]

    def apply_H(self, cells, x) -> np.ndarray:
        """Per-sample H(M) x = sum_{j in M} c_j v_j x over the cell set M:
        the step integral of x on the cells of M and zero elsewhere.

        The empty set gives exactly zero; since at most one summand is
        nonzero per sample, unions of disjoint sets add exactly.
        """
        cells = self.measure.partition.check_cells(cells)
        zero = np.zeros(np.shape(x), dtype=np.complex128)
        return integrate_step(self.measure, self, [
            x if j in cells else zero for j in range(self.measure.size)])


def sample_H(measure: AtomicRandomMeasure, count: int) -> Realizations:
    """Draw `count` cell indices from the measure's seeded stream."""
    return Realizations(measure, next(_draw_chunks(measure, count, count)))


class StructuralMeasure:
    """Diagonal structural function: one nonnegative atom per cell."""

    def __init__(self, measure: AtomicRandomMeasure):
        self.measure = measure
        self.cells = measure.structural_cells()

    def value(self, cells):
        """m(M): the multiplication factor summed over the cells of M."""
        cells = self.measure.partition.check_cells(cells)
        return sum((self.cells[j] for j in cells), 0.0)

    def bilinear(self, cells, x, y):
        """m_{x,y}(M) = (m(M) x, y) in the grid inner product."""
        m = self.value(cells)
        x = np.asarray(x, dtype=np.complex128)
        y = np.asarray(y, dtype=np.complex128)
        return complex(np.sum(m * x * np.conj(y)))


def structural_function(measure: AtomicRandomMeasure, m1, m2):
    """Analytic m(M1, M2) = m(M1 n M2), a sum of cell atoms.

    Scalar when every multiplier is scalar, an array factor otherwise.
    """
    c1 = set(measure.partition.check_cells(m1))
    c2 = set(measure.partition.check_cells(m2))
    return StructuralMeasure(measure).value(sorted(c1 & c2))


def integrate_step(measure: AtomicRandomMeasure, real: Realizations,
                   values) -> np.ndarray:
    """Per-sample integral of the step function with per-cell values a_k:
    sum_k H(G_k) a_k = c_J v_J a_J for the drawn index J."""
    if real.measure is not measure:
        raise ValueError("realizations belong to a different measure")
    if len(values) != measure.size:
        raise ValueError("need one value per cell")
    mult = measure.multipliers()
    terms = [np.asarray(measure.xi[j] * (mult[j] * np.asarray(values[j])),
                        dtype=np.complex128)
             for j in range(measure.size)]
    return np.stack(np.broadcast_arrays(*terms))[real.draws]


class WeightedMeasure:
    """eta(N) = integral of H against g restricted to N, with its
    structural measure n(N) = sum_{j in N} (m_j g_j, g_j)."""

    def __init__(self, measure: AtomicRandomMeasure, g):
        if len(g) != measure.size:
            raise ValueError("need one weight per cell")
        self.measure = measure
        self.g = tuple(g)

    def eta(self, cells, real: Realizations) -> np.ndarray:
        """Per-sample eta(N) = sum_{j in N} c_j v_j g_j."""
        cells = self.measure.partition.check_cells(cells)
        masked = [self.g[j] if j in cells else 0.0
                  for j in range(self.measure.size)]
        return integrate_step(self.measure, real, masked)

    def structural(self, cells):
        """n(N): the g-weighted structural atoms summed over N."""
        cells = self.measure.partition.check_cells(cells)
        atoms = self.measure.structural_cells()
        return sum((atoms[j] * abs(self.g[j]) ** 2 for j in cells), 0.0)

    def integrate(self, f, real: Realizations) -> np.ndarray:
        """integral of the cell-wise scalar f against eta: the same finite
        sum as integrating f g against H, term by term."""
        if len(f) != self.measure.size:
            raise ValueError("need one value per cell")
        scaled = [f[j] * np.asarray(self.g[j])
                  for j in range(self.measure.size)]
        return integrate_step(self.measure, real, scaled)


def fubini_check(measure: AtomicRandomMeasure, real: Realizations,
                 g: np.ndarray, h: np.ndarray,
                 weights: np.ndarray) -> dict:
    """Exchange of the quadrature sum and the H-integral.

    g has one row per quadrature node and one column per cell; h and
    weights live on the nodes.  The left side integrates
    sum_j c_j v_j g[k, j] sample-wise and then applies the quadrature; the
    right side applies the quadrature first, f_j = sum_k w_k h_k g[k, j],
    and integrates f against H.  Both are rearrangements of one finite
    double sum, so the per-sample gap is rounding only.
    """
    g = np.asarray(g, dtype=np.complex128)
    h = np.asarray(h, dtype=np.complex128)
    weights = np.asarray(weights, dtype=float)
    if g.shape != (len(h), measure.size):
        raise ValueError("g must be (quadrature nodes) x (cells)")
    # cell j's value is the column g[:, j], its node axis ahead of any
    # multiplier axes, so inner[s, k] = c_J v_J g[k, J]
    ones = (1,) * max(np.ndim(v) for v in measure.multipliers())
    inner = integrate_step(measure, real, g.T.reshape(g.T.shape + ones))
    lhs = np.tensordot(inner, weights * h, axes=(1, 0))
    f = np.tensordot(weights * h, g, axes=(0, 0))
    rhs = integrate_step(measure, real, f)
    gap = float(np.max(np.abs(lhs - rhs))) if real.count else 0.0
    return {
        "lhs": lhs,
        "rhs": rhs,
        "max_gap": gap,
        "scale": float(max(np.max(np.abs(lhs)), 1e-300)),
    }


def expectation(samples: np.ndarray) -> tuple:
    """Monte Carlo mean and standard error over the leading axis.

    numpy's pairwise reduction fixes the summation order, so the result is
    a deterministic function of the sample array.
    """
    if len(samples) == 0:
        raise ValueError("need at least one sample")
    return moments(np.ones(len(samples), dtype=np.int64), samples)
