"""Surface-group representations with kernels containing no simple loop.

The package builds the mod-2 homology cover of a closed genus-g surface as
an explicit CW complex, assembles the finite quotient group the cover
defines, and machine-checks that the quotient's kernel is nontrivial yet
meets no certified simple closed curve class, alongside the classical torus
demonstration and symbolic manifold-construction recipes.

Importing the package imports none of its modules: each name below, and each
module that exports one, is imported on first attribute access (PEP 562), so
a command loads only the modules it uses.
"""

import importlib

# The names each module exports at the package level.
_EXPORTS = {
    "cover": ("CoverCW", "ResourceLimitError", "build_mod2_cover"),
    "curves": (
        "SimpleClass",
        "VerificationReport",
        "generate_simple_classes",
        "replay_certificate",
        "standard_curves",
        "twist_table",
        "verify_non_geometric",
    ),
    "demos": (
        "OrientationCharacter",
        "TorusClass",
        "extend_to_dimension",
        "iota_star",
        "is_simple_torus",
        "torus_kernel_scan",
    ),
    "quotient": (
        "GElement",
        "GroupContext",
        "image_rank",
        "in_kernel",
        "rho",
        "search_kernel_elements",
    ),
    "realize": (
        "ManifoldRecipe",
        "Presentation",
        "parse_presentation",
        "recipe_for_G",
        "recipe_for_presentation",
    ),
    "words": (
        "Word",
        "canonical_class",
        "commutator",
        "concat",
        "cyclic_reduce",
        "dehn_normal_form",
        "free_reduce",
        "from_letters",
        "inverse",
        "is_proper_power",
        "is_trivial",
        "separating_word",
        "substitute",
        "surface_relator",
        "word_from_str",
        "word_to_str",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is not None:
        value = globals()[name] = getattr(importlib.import_module("." + module, __name__), name)
        return value
    if name in _EXPORTS:
        return importlib.import_module("." + name, __name__)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_EXPORTS))
