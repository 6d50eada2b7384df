"""Exact verification of the Terwilliger algebra of wreath products of
cyclic association schemes.

The namespace is lazy (PEP 562): ``import wreathalg`` imports no
submodule, and the first read of a public name imports the module that
defines it.  Where no bytecode is written, every run compiles each module
it imports from source, so a command compiles only what it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each public name, by the module that defines it.
_EXPORTS = {
    "cyclotomic": "ONE ZERO CycloNum cyclotomic_polynomial euler_phi rational zeta",
    "linalg": "ExactMatrix ExactSpan",
    "scheme": "AxiomViolation CheckResult Scheme load_scheme save_scheme",
    "structure": "BasePoint DecompReport StructureError",
    "decomposition": "CentralIdempotentFamily MatrixUnitFamily build_central_idempotents "
                     "build_matrix_units check_adjacency_action check_block_form "
                     "check_central_idempotents check_commutation check_matrix_units "
                     "check_primary_module check_triple_list decomposition_report "
                     "dimension_formula matrix_block_size one_dim_ideal_count "
                     "predict_triple_nonzero",
    "terwilliger": "block_closure check_triply_regular starting_pieces",
    "wreath": "WreathIndex check_moduli check_translation_certificate check_vanishing_criterion "
              "class_indices cyclic_scheme index_from_flat indices_below_level num_classes "
              "predict_vanishing wreath_of_cyclics wreath_product",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
# The submodules that are public names too.
_MODULES = ("cyclotomic", "linalg", "scheme", "structure", "terwilliger", "wreath")

__all__ = sorted([*_HOME, *_MODULES])


def __getattr__(name: str):
    if name in _MODULES:
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
