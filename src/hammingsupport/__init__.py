"""Exact tools for minimum-support members of Hamming-graph eigenspace sums."""

from .core import (
    GridFunction,
    HGFError,
    all_words,
    dumps_hgf,
    hamming_distance,
    index_to_word,
    loads_hgf,
    neighbors,
    read_hgf,
    word_to_index,
    write_hgf,
)
from .spectra import (
    apply_adjacency,
    decompose,
    eigenspace_dimension,
    eigenvalue,
    in_direct_sum,
    is_eigenfunction,
    krawtchouk,
    project_eigenspace,
    project_span,
    spectral_profile,
)
from .constructions import (
    ElementaryFactor,
    FactorizationCertificate,
    Regime,
    RegimeError,
    SupportBound,
    a1,
    a2,
    a3,
    a4,
    build_F1,
    build_F2,
    counterexample_g,
    counterexample_h,
    counterexample_v,
    elementary,
    f1_support_size,
    f2_support_size,
    min_support_bound,
    uniform_support_bound,
)
from .reduction import (
    check_lemma_reduction,
    check_lemma_vanishing_slices,
    is_uniform,
    restrict,
    slices,
    support_lower_bound_inequality,
)
from .search import (
    SearchBudget,
    SearchOutcome,
    SearchStatus,
    exists_with_support_at_most,
    find_minimum,
)
from .characterize import (
    FactorizeResult,
    FactorizeStatus,
    factorize,
    is_minimum_and_characterized,
)

__all__ = [name for name in dir() if not name.startswith("_")]
