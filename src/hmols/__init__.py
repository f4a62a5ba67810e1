"""Holey MOLS and holey transversal designs: finite field constructions,
recursive compositions, exhaustive verifiers, and bound planning.

The usual entry points:

- designs: LatinSquare, HoleyLatinSquareSet, IncompleteMolsSet,
  BlockDesign, the verify_* family, and the HMOLS <-> HTD equivalence.
- cyclotomic: template matrices, allowed-coset tables, the seeded
  difference-vector search, relative difference families, and the
  expansion of an indexed TD into a holey TD.
- compose: td_product, diag_product, wilson_compose, the incomplete
  TDs product_itd and subfield_itd, itd_truncate_compose.
- planner: number-theoretic helpers, the fact registry, plan search
  and execution.
- formats: grid and JSON interchange; fixtures: shipped data.
"""

from . import compose, cyclotomic, designs, formats, gf, planner
from .designs import (
    BlockDesign,
    HoleyLatinSquareSet,
    IncompleteMolsSet,
    LatinSquare,
    VerificationReport,
    hmols_to_htd,
    htd_to_hmols,
    imols_to_itd,
    restrict_groups,
    td_from_field,
    unit_hole_htd,
    verify_design,
    verify_hmols,
    verify_imols,
    verify_latin,
)
from .gf import CyclotomyContext, FieldSpec, class_of, cyclotomy_new, \
    field_new, primitive_root

__version__ = "0.1.0"

__all__ = [
    "BlockDesign", "CyclotomyContext", "FieldSpec", "HoleyLatinSquareSet",
    "IncompleteMolsSet", "LatinSquare", "VerificationReport",
    "class_of", "compose", "cyclotomic", "cyclotomy_new", "designs",
    "field_new", "formats", "gf", "hmols_to_htd",
    "htd_to_hmols", "imols_to_itd", "planner", "primitive_root",
    "restrict_groups", "td_from_field", "unit_hole_htd", "verify_design",
    "verify_hmols", "verify_imols", "verify_latin",
]
