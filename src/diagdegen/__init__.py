"""Wonderful compactification strata and diagonal degenerations of G/P.

Given a Dynkin type, a parabolic subset I and a stratum subset J, this
package computes the orbit lattice of the wonderful compactification of
the adjoint group and the full catalogue of irreducible components of the
corresponding degeneration of the diagonal in G/P x G/P, together with
brute-force oracles for every nontrivial formula.

The names in ``__all__`` resolve lazily (PEP 562): importing the package,
or one of its modules, loads only the modules that are actually used.
"""

from importlib import import_module

__version__ = "0.1.0"

#: The two readings of the Gorenstein equation in :mod:`diagdegen.projgor`,
#: kept here so the CLI can offer them without importing that module.
VARIANTS = ("paper", "signed")

_EXPORTS = {
    "cosets": ("Quotient", "QuotientData", "double_min_reps", "min_reps", "quotient"),
    "degen": ("FiberComponent", "UnfaithfulActionError", "closed_fiber", "component_count",
              "fiber_components", "fixed_point_profile", "weight_set"),
    "projgor": ("Composition", "PnComponent", "RationalPolynomial", "composition_from_J",
                "diag_hilbert_poly", "gorenstein_obstruction", "pairwise_intersection_dim",
                "pn_components"),
    "rootsys": ("DynkinError", "DynkinType", "RootSystem", "WeylOrderCapError",
                "build_root_system", "parse_dynkin"),
    "sweep": ("SweepReport", "run_sweep"),
    "weyl": ("WeylGroup", "generate"),
    "wonderful": ("OrbitDescriptor", "orbit", "orbit_lattice"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        # Submodule names must fail here too, so `from diagdegen import cli` imports cli.
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | _MODULE_OF.keys())
