"""Weak indexing systems over finitely presented orbital categories."""

from .groups import GroupTable, NotAGroup
from .presentation import (
    InvalidSpec, MismatchedIndex, NoSuchMap, OrbitalPresentation, TooLarge,
    UnsupportedBackend, VSet, build_presentation, chain_group, cyclic_group,
    finite_group, indexed_coproduct, meet_semilattice, one_object_groupoid,
    trivial_point, validate_presentation,
)
from .gsets import (
    ConcreteGSet, coinduce_concrete, concretize, indexed_product,
    induce_concrete, orbit_decompose, restrict_concrete,
)
from .systems import (
    INDETERMINATE, NO, YES, BoundTooSmall, MixedPresentation, NotClosed,
    WeakIndexingSystem, bor_system, classify, closure_bound, coinduce_wis,
    downward_closure, e_system, f_complete, f_infinity, f_perp_nu, f_trivial,
    f_zero, is_sparse, join, leq, meet, multiplicative_hull,
    saturate, slice_restrict_wis, sparse_bound, sparse_decompose,
    sparse_extract, sparse_generate, sparse_part, sparse_universe,
    validate_wic,
)
from .fibrations import (
    NotUnital, TargetNotAbove, TransferSystem, cocartesian_transport,
    color_left, color_right, enumerate_families,
    enumerate_transfer_systems, fold_left, fold_right, is_family,
    minimal_unital, transfer_closure, transfer_codomain, transfer_domain,
    transfer_of, transfer_to_indexing, unit_left,
)
from .sieves import (
    NotAdmissible, Sieve, enumerate_sieves, fiber_from_sieve, fiber_systems,
    is_sieve, sieve_of, transport_sieve,
)
from .reps import (
    GroupMismatch, RepDescriptor, arity_support, embeds, named_rep, rep_sum,
)
from .enumeration import (
    enumerate_systems, enumerate_systems_fiberwise, system_label, system_poset,
)
from .poset import Poset, poset_from_covers
from .serialize import (
    SerializationError, dump, dumps, family_from_obj, family_to_obj, load,
    rep_from_obj, rep_to_obj, sieve_from_obj, sieve_to_obj, system_from_obj,
    system_to_obj, transfer_from_obj, transfer_to_obj, vset_from_obj,
    vset_to_obj,
)

__version__ = "0.1.0"
