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

Because each draw picks one cell, every per-sample quantity is the value
of the drawn cell: integrals, H(M) x and the coefficients are a per-cell
table gathered by the drawn indices.  One seeded stream, read in chunks,
gives sample_H's indices or sample_counts' per-cell counts; the CLI's
Monte Carlo checks reduce those counts (moments), so nothing of length
`samples` is formed, and expectation reduces a per-sample array.  Both
fix their summation order: every reported number is reproducible bit for
bit from (seed, sample count).

The numeric stages run only this module.  Realizations, sample_H, the
structural function, the step and weighted integrals, fubini_check and
expectation live in randmeasure_ext.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from cdburgers import _served_by

__all__ = ["Partition", "AtomicRandomMeasure", "StructuralMeasure",
           "Realizations", "xi_from_rule", "sample_H", "sample_counts",
           "moments", "structural_function", "integrate_step",
           "WeightedMeasure", "fubini_check", "expectation"]

__getattr__ = _served_by(__name__, "cdburgers.randmeasure_ext", __all__)


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
