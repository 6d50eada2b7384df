"""Exact verification of the Terwilliger algebra of wreath products of
cyclic association schemes."""

__version__ = "0.1.0"

from .cyclotomic import ONE, ZERO, CycloNum, cyclotomic_polynomial, euler_phi, rational, zeta
from .linalg import ExactMatrix, ExactSpan
from .scheme import AxiomReport, AxiomViolation, CheckResult, Scheme, load_scheme, save_scheme
from .structure import (
    BasePoint,
    CentralIdempotentFamily,
    DecompReport,
    MatrixUnitFamily,
    StructureError,
    build_central_idempotents,
    build_matrix_units,
    check_adjacency_action,
    check_block_form,
    check_central_idempotents,
    check_commutation,
    check_matrix_units,
    decomposition_report,
    dimension_formula,
    matrix_block_size,
    one_dim_ideal_count,
)
from .terwilliger import (
    block_closure,
    check_primary_module,
    check_triple_list,
    check_triply_regular,
    predict_triple_nonzero,
    starting_pieces,
)
from .wreath import (
    WreathIndex,
    check_moduli,
    check_translation_certificate,
    check_vanishing_criterion,
    class_indices,
    cyclic_scheme,
    index_from_flat,
    indices_below_level,
    num_classes,
    predict_vanishing,
    wreath_of_cyclics,
    wreath_product,
)

__all__ = [name for name in dir() if not name.startswith("_")]
