"""Surface-group representations with kernels containing no simple loop.

The package builds the mod-2 homology cover of a closed genus-g surface as
an explicit CW complex, assembles the finite quotient group the cover
defines, and machine-checks that the quotient's kernel is nontrivial yet
meets no certified simple closed curve class, alongside the classical torus
demonstration and symbolic manifold-construction recipes.
"""

from .cover import (
    CoverCW,
    ResourceLimitError,
    build_mod2_cover,
)
from .curves import (
    SimpleClass,
    VerificationReport,
    generate_simple_classes,
    replay_certificate,
    standard_curves,
    twist_table,
    verify_non_geometric,
)
from .demos import (
    OrientationCharacter,
    TorusClass,
    extend_to_dimension,
    iota_star,
    is_simple_torus,
    torus_kernel_scan,
)
from .gf2 import GF2Matrix, QuotientMap, kernel_basis, rank, rref
from .quotient import (
    GElement,
    GroupContext,
    image_rank,
    in_kernel,
    inv,
    mul,
    representative,
    rho,
    search_kernel_elements,
)
from .realize import (
    ManifoldRecipe,
    Presentation,
    free_product,
    parse_presentation,
    realize,
    recipe_for_G,
)
from .words import (
    Word,
    abelianization_mod2,
    canonical_class,
    commutator,
    concat,
    cyclic_reduce,
    dehn_normal_form,
    free_reduce,
    from_letters,
    inverse,
    is_proper_power,
    is_trivial,
    separating_word,
    substitute,
    surface_relator,
    word_from_str,
    word_to_str,
)

__all__ = [
    "CoverCW",
    "GElement",
    "GF2Matrix",
    "GroupContext",
    "ManifoldRecipe",
    "OrientationCharacter",
    "Presentation",
    "QuotientMap",
    "ResourceLimitError",
    "SimpleClass",
    "TorusClass",
    "VerificationReport",
    "Word",
    "abelianization_mod2",
    "build_mod2_cover",
    "canonical_class",
    "commutator",
    "concat",
    "cyclic_reduce",
    "dehn_normal_form",
    "extend_to_dimension",
    "free_product",
    "free_reduce",
    "from_letters",
    "generate_simple_classes",
    "image_rank",
    "in_kernel",
    "inv",
    "inverse",
    "iota_star",
    "is_proper_power",
    "is_simple_torus",
    "is_trivial",
    "kernel_basis",
    "mul",
    "parse_presentation",
    "rank",
    "realize",
    "recipe_for_G",
    "replay_certificate",
    "representative",
    "rho",
    "rref",
    "search_kernel_elements",
    "separating_word",
    "standard_curves",
    "substitute",
    "surface_relator",
    "torus_kernel_scan",
    "twist_table",
    "verify_non_geometric",
    "word_from_str",
    "word_to_str",
]
