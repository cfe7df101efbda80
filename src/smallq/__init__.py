"""smallq: exact verification engine for quantum groups at a root of unity.

Layers, bottom up:

  scalars    exact cyclotomic arithmetic, the Laurent polynomials
             Z[v, v^-1], q-integers/factorials/binomials
  rootdata   Cartan data, the ell-form, phi and phi_sc, affine Weyl dot
             action, orbit canonical forms, Steinberg decomposition
  repcore    X-graded modules with generator matrices, Weyl modules (A1),
             relation checking, tensor products with divided powers,
             submodule closure and composition factors
  frobenius  quantum Frobenius pullback, the small quantum group view,
             invariants, the commutator-identity engine, factorization
             reconstruction, Hecke structures alpha_V
  hopfcore   finite-dimensional (O, A, a) triples, cotensor/induction,
             de-equivariantization, conditions (i)-(iv), twisting,
             equivariant reconstruction
  blocks     predicted vs observed linkage, Steinberg verification, the
             block bijection on finite triples
  cli        verification reports and block tables from the command line
"""

from .scalars import (
    CycloField,
    LaurentRing,
    QParams,
    qbinom,
    qfact,
    qint,
)
from .rootdata import (
    DotOrbits,
    EllForm,
    build_root_datum,
    dot_reflect,
    orbit_in_window,
    phi,
    phi_sc,
    same_block,
    steinberg_decompose,
)
from .repcore import (
    WeightModule,
    composition_factors,
    maximal_proper_submodule,
    relation_check,
    simple_module,
    submodule_closure,
    tensor_product,
    weyl_module,
)
from .frobenius import (
    DualGroupRep,
    build_hecke_structure,
    dual_irrep_sl2,
    factorization_reconstruct,
    frobenius_pullback,
    restrict_to_small,
    small_invariants,
    verify_commutator_identity,
)
from .hopfcore import (
    CoalgebraFD,
    ComoduleFD,
    HopfAlgebraFD,
    TripleFD,
    TripleObject,
    check_conditions,
    cotensor,
    equivariant_reconstruct,
    finite_group_triple,
    induce,
    parse_group_text,
    psi,
    twist,
    verify_equivalence,
    verify_ideal_prop,
)
from .blocks import (
    BlockTable,
    LinkageGraph,
    finite_block_bijection,
    observed_blocks_A1,
    predicted_blocks,
    steinberg_verify,
)

__version__ = "0.1.0"
