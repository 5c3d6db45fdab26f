"""Finite atomic random operator valued measures.

A measure here assigns to each cell of a finite partition of the parameter
space a random multiple of a fixed multiplication operator: one index J is
drawn per sample with P(J = j) = p_j, and the cell coefficient is
c_j = xi_j 1{J = j}.  This single-draw construction is chosen deliberately:
it satisfies the delta condition E(c_i c_j) = delta_ij xi_j E(c_j) and
orthogonality over disjoint cells simultaneously, which independent
per-cell amplitudes cannot (E(c_i c_j) would factor as xi_i xi_j p_i p_j,
nonzero for i != j).  Because at most one cell coefficient is nonzero per
sample, additivity over disjoint unions is exact in floating point, not
just in expectation.

The structural function of the measure is diagonal: each cell carries the
nonnegative value |xi_j|^2 p_j times the squared multiplier, and evaluations
over cell-aligned sets are finite sums of those atoms.  Step-function
integrals, weighted measures, and the iterated-integral exchange all reduce
to rearrangements of one finite sum, so their identities hold to rounding.

Because each draw picks one cell, every per-sample quantity is the value
of the drawn cell: integrals, H(M) x and the coefficients are a per-cell
table gathered by the drawn indices.  One seeded stream, read in chunks,
gives sample_H's indices or sample_counts' per-cell counts; the CLI's
Monte Carlo checks reduce those counts (moments), so nothing of length
`samples` is formed, and expectation reduces a per-sample array.  Both
fix their summation order: every reported number is reproducible bit for
bit from (seed, sample count).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Partition",
    "AtomicRandomMeasure",
    "StructuralMeasure",
    "Realizations",
    "xi_from_rule",
    "sample_H",
    "sample_counts",
    "moments",
    "structural_function",
    "integrate_step",
    "WeightedMeasure",
    "fubini_check",
    "expectation",
]


@dataclass(frozen=True)
class Partition:
    """Finite cells of the parameter space, each with a representative."""

    reps: tuple  # per-cell representative, a tuple of complex entries

    def __post_init__(self):
        if len(self.reps) == 0:
            raise ValueError("partition needs at least one cell")
        width = len(self.reps[0])
        for r in self.reps:
            if len(r) != width:
                raise ValueError("representatives have mixed dimensions")

    @property
    def size(self) -> int:
        return len(self.reps)

    def check_cells(self, cells) -> tuple:
        out = tuple(sorted(set(int(j) for j in cells)))
        for j in out:
            if not 0 <= j < self.size:
                raise ValueError(f"cell index {j} outside the partition")
        return out


def xi_from_rule(rep, m: int, gamma: complex = 0.0,
                 varsigma: complex = 0.0) -> complex:
    """Amplitude at a representative: gamma/(2 lambda_1 lambda_{m+2}) when
    gamma != 0, else varsigma/(2 lambda_1 lambda_{m+3})."""
    if m < 1:
        raise ValueError(f"need m >= 1, got m = {m}")
    lam = tuple(rep)
    if len(lam) != m + 3:
        raise ValueError(f"representative needs {m + 3} entries")
    if gamma != 0:
        den = 2.0 * lam[0] * lam[m + 1]
        if den == 0:
            raise ZeroDivisionError("lambda_1 lambda_{m+2} vanishes")
        return gamma / den
    if varsigma != 0:
        den = 2.0 * lam[0] * lam[m + 2]
        if den == 0:
            raise ZeroDivisionError("lambda_1 lambda_{m+3} vanishes")
        return varsigma / den
    raise ValueError("need gamma != 0 or varsigma != 0")


@dataclass(frozen=True)
class AtomicRandomMeasure:
    """Partition plus weights, amplitudes, multipliers, and the seed."""

    partition: Partition
    p: tuple  # cell probabilities, sum 1
    xi: tuple  # cell amplitudes
    multiplier: tuple | None = None  # real multiplication factors, default 1
    seed: int = 0

    def __post_init__(self):
        J = self.partition.size
        if len(self.p) != J or len(self.xi) != J:
            raise ValueError("weights and amplitudes must match the cells")
        p = np.asarray(self.p, dtype=float)
        if np.any(p < 0) or abs(float(p.sum()) - 1.0) > 1e-12:
            raise ValueError("cell probabilities must be >= 0 and sum to 1")
        if self.multiplier is not None:
            if len(self.multiplier) != J:
                raise ValueError("multipliers must match the cells")
            for v in self.multiplier:
                if np.iscomplexobj(np.asarray(v)):
                    raise ValueError("multipliers must be real valued")

    @property
    def size(self) -> int:
        return self.partition.size

    def multipliers(self) -> list:
        if self.multiplier is None:
            return [1.0] * self.size
        return [np.asarray(v, dtype=float) if np.ndim(v) else float(v)
                for v in self.multiplier]

    def structural_cells(self) -> list:
        """Per-cell structural atoms |xi_j|^2 p_j v_j^2, each nonnegative."""
        return [abs(x) ** 2 * pj * v * v
                for x, pj, v in zip(self.xi, self.p, self.multipliers())]


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


_CHUNK = 8192  # draws per streamed chunk: a 64 KiB index array


def _draw_chunks(measure: AtomicRandomMeasure, count: int, chunk: int):
    """The measure's seeded stream in chunks of `chunk` indices: choice with
    p reads one uniform per draw, so every chunking gives the same draws."""
    if count <= 0:
        raise ValueError(f"need a positive sample count, got {count}")
    rng = np.random.default_rng(measure.seed)
    p = np.asarray(measure.p, dtype=float)
    for start in range(0, count, chunk):
        yield rng.choice(measure.size, size=min(chunk, count - start), p=p)


def sample_H(measure: AtomicRandomMeasure, count: int) -> Realizations:
    """Draw `count` cell indices from the measure's seeded stream."""
    return Realizations(measure, next(_draw_chunks(measure, count, count)))


def sample_counts(measure: AtomicRandomMeasure, count: int) -> np.ndarray:
    """Per-cell counts of sample_H's draws, streamed in _CHUNK pieces."""
    return sum(np.bincount(draws, minlength=measure.size)
               for draws in _draw_chunks(measure, count, _CHUNK))


def moments(counts, values) -> tuple:
    """Monte Carlo mean and standard error over the leading axis of
    `values`, with draw counts n_j per leading entry: mean = sum_j n_j v_j
    / N, var = sum_j n_j |v_j - mean|^2 / (N - 1), N = sum_j n_j (N = 1
    gives se = 0).  numpy's pairwise reduction fixes the summation order."""
    values = np.asarray(values)
    counts = np.reshape(counts, (-1,) + (1,) * (values.ndim - 1))
    total = int(np.sum(counts))
    mean = np.add.reduce(counts * values) / total
    if total == 1:
        return mean, np.zeros_like(np.abs(mean))
    dev = counts * np.abs(values - mean) ** 2
    var = np.add.reduce(dev) / (total - 1)
    return mean, np.sqrt(var / total)


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

