"""Exact combinatorics of monomial ideals.

Arithmetic on monomial ideals, irredundant irreducible decomposition,
the size invariant, exact Stanley depth via interval partitions of the
characteristic poset, and a recursive lower bound built from pivot
splits of the decomposition.  All computations are exact integer work.
"""

from .bound import (BoundReport, BoundTerm, CheckReport, DirectSumReport,
                    HypothesisReport, MonomialClass, PivotBound, PivotSplit,
                    SummandFamily, SUBSET_CAP, build_split,
                    check_size_inequality, classify_monomial,
                    enumerate_families, hypothesis_check, sdepth_lower_bound,
                    verify_direct_sum)
from .core import (EXPONENT_CAP, MonomialIdeal, RingCtx, divides,
                   is_squarefree, lcm, monomials_up_to_degree, mul,
                   polarization_parents, quotient, render_monomial,
                   restrict_exponents, squarefree_part, support, total_degree)
from .corpus import (FAMILIES, CorpusSpec, SplitMix64, generate_corpus,
                     random_ideal, random_monomial)
from .decomposition import (Decomposition, IrreducibleComponent, decompose,
                            is_irreducible, prune_irredundant)
from .errors import (DomainError, ExponentCapError, ParseError,
                     ResourceLimitError, RingMismatchError, StanleyError)
from .parsing import parse_ideal, parse_monomial
from .sdepth import (DEFAULT_POINT_CAP, Interval, StanleyDecomposition,
                     cap_vector, characteristic_points, clear_cache,
                     sdepth_ideal, sdepth_module, sdepth_quotient)
from .size import COMPONENT_CAP, SizeReport, min_cover, size, support_union

__version__ = "0.1.0"

__all__ = [
    "BoundReport", "BoundTerm", "CheckReport", "COMPONENT_CAP", "CorpusSpec",
    "Decomposition", "DEFAULT_POINT_CAP", "DirectSumReport", "DomainError",
    "EXPONENT_CAP", "ExponentCapError", "FAMILIES", "HypothesisReport",
    "Interval", "IrreducibleComponent", "MonomialClass", "MonomialIdeal",
    "ParseError", "PivotBound", "PivotSplit", "ResourceLimitError", "RingCtx",
    "RingMismatchError", "SizeReport", "SplitMix64", "StanleyDecomposition",
    "StanleyError", "SUBSET_CAP", "SummandFamily", "build_split", "cap_vector",
    "characteristic_points", "check_size_inequality", "classify_monomial",
    "clear_cache", "decompose", "divides", "enumerate_families",
    "generate_corpus", "hypothesis_check", "is_irreducible", "is_squarefree",
    "lcm", "min_cover", "monomials_up_to_degree", "mul", "parse_ideal",
    "parse_monomial", "polarization_parents", "prune_irredundant", "quotient",
    "random_ideal", "random_monomial", "render_monomial", "restrict_exponents",
    "sdepth_ideal", "sdepth_lower_bound", "sdepth_module", "sdepth_quotient",
    "size", "squarefree_part", "support", "support_union", "total_degree",
    "verify_direct_sum",
]
