"""cdburgers: a workbench for nonlinear Sobolev-Burgers equations built on
Cayley-Dickson algebras.

The pipeline: translate a real PDE into a hypercomplex form, construct an
auxiliary two-point kernel K by Picard iteration of a noncommutative
integral equation, solve a nonlinear temporal Cauchy problem, and assemble
candidate solutions as integrals against finite atomic random operator
valued measures, then verify everything with grid residuals.

The algebra names in __all__ are served from cdburgers.algebra on first use,
so importing the package (or the CLI) loads no numpy.
"""

__version__ = "0.1.0"

__all__ = ["CdElement", "ComplexCdElement", "EmbeddingMap", "cd_conj",
           "cd_mul", "cd_norm_sq", "euclid_products", "pi_project", "re_im",
           "__version__"]


def __getattr__(name):
    if name in __all__:
        from cdburgers import algebra

        return getattr(algebra, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
