"""Conceptua: finite relational calculus, order adjunctions, polar
factorization, formal concept analysis, and a propositional lattice of
theories, with every law executable.

The package names below are imported on first access (PEP 562), so a
program that uses one layer loads only that layer and what it imports.
"""

import importlib

# Each submodule and the public names it re-exports here.
_EXPORTS = {
    "errors": (
        "AdjunctionError",
        "CarrierMismatchError",
        "ConceptuaError",
        "NotAConceptLatticeError",
        "ParseError",
        "SizeLimitError",
        "UnknownElementError",
    ),
    "finrel": (
        "FinFunction",
        "FinSet",
        "Relation",
        "Subset",
        "compose",
        "derive_forward",
        "derive_reverse",
        "image_factorize",
        "images",
        "residuate_left",
        "residuate_right",
        "transpose",
    ),
    "order": (
        "MonotoneMap",
        "OrderBimodule",
        "Poset",
        "Preorder",
        "bounds",
        "power_order",
        "quotient",
    ),
    "galois": (
        "Adjunction",
        "PolarFactorization",
        "check_adjunction",
        "closure_interior",
        "diagonalize",
        "is_coreflection",
        "is_reflection",
        "polar_factorize",
    ),
    "clsn": (
        "Classification",
        "Infomorphism",
        "check_infomorphism",
        "derivation",
        "exponent",
        "multiply",
        "order_as_classification",
    ),
    "clg": (
        "ConceptLattice",
        "ConceptMorphism",
        "FormalConcept",
        "classification_of",
        "concept_lattice",
        "concept_morphism_of",
        "lattice_joins_meets",
        "lattice_roundtrip_iso",
    ),
    "institution": (
        "MergeSpan",
        "Model",
        "PropositionalInstitution",
        "Sentence",
        "Signature",
        "SignatureMorphism",
        "TheoryObject",
        "check_satisfaction_condition",
        "merge_theories",
        "parse_sentence",
        "satisfies",
        "style_interconvert",
        "theory_fiber",
        "transport_theory",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = [*_HOME, "__version__"]


def __getattr__(name: str):
    """A re-exported name, or one of the submodules above, imported on first access."""
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
