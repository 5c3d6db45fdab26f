"""cdburgers: a workbench for nonlinear Sobolev-Burgers equations built on
Cayley-Dickson algebras.

The pipeline: translate a real PDE into a hypercomplex form, construct an
auxiliary two-point kernel K by Picard iteration of a noncommutative
integral equation, solve a nonlinear temporal Cauchy problem, and assemble
candidate solutions as integrals against finite atomic random operator
valued measures, then verify everything with grid residuals.

The algebra names in __all__ are served from cdburgers.algebra_ext on first
use, so importing the package (or the CLI) loads no numpy.
"""

import importlib

__version__ = "0.1.0"

__all__ = ["CdElement", "ComplexCdElement", "EmbeddingMap", "cd_conj",
           "cd_mul", "cd_norm_sq", "euclid_products", "pi_project", "re_im",
           "__version__"]


def _served_by(module: str, sibling: str, names):
    """A PEP 562 module __getattr__ for `module`: each of `names` is read
    from the module `sibling`, which is imported on the first such read."""

    def __getattr__(name):
        if name in names:
            return getattr(importlib.import_module(sibling), name)
        raise AttributeError(f"module {module!r} has no attribute {name!r}")

    return __getattr__


__getattr__ = _served_by(__name__, "cdburgers.algebra_ext", __all__)
