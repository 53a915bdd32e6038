"""Exact-arithmetic analyzer for blow-ups of hypersurfaces along
coordinate-subspace centers: strict-transform smoothness by two independent
routes, divisor-class and discrepancy bookkeeping, and derived-category
block ledgers."""

__version__ = "0.1.0"

from .errors import (
    DegreeLimitError,
    InternalCheckError,
    ParseError,
    SceneError,
    StrictSmoothError,
    StructuralError,
)
from .scalars import QQ, ModularInt, PrimeField, RationalField
from .poly import Monomial, Polynomial
from .groebner import (
    GroebnerBasis,
    Ideal,
    basis_audit,
    degree_limit,
    determinant,
    groebner,
    ideal_power_membership,
    is_empty_affine,
    krull_dimension,
    minors_ideal,
    normal_form,
    power_ideal,
    radical_membership,
)
from .geometry import (
    Analysis,
    BlowupChart,
    Center,
    CenterAnalysis,
    Scene,
    Status,
    Verdict,
    adjunction_ledger,
    analyze,
    base_locus_check,
    chart_oracle,
    charts,
    leading_form,
    multiplicity,
    section_smoothness,
    singular_locus_in_centers,
)
from .sod import lefschetz, serre_vanishing_record, sod
from .parsing import parse_expression
from .report import build_report, render_plain, render_structured


def __getattr__(name):
    """`load_scene` and `scene_from_document`, importing PyYAML and
    jsonschema with `scene_io` on first use, so the rest of the package
    imports without them (PEP 562)."""
    if name in ("load_scene", "scene_from_document"):
        from . import scene_io

        return getattr(scene_io, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
