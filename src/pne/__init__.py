"""Partitioned network expansions for approximate tensor network contraction.

The package approximates (and exactly verifies) closed and open tensor
network contractions by splitting edge index spaces with complementary
projector pairs and summing the resulting cheaper sub-networks. Projectors
come from belief-propagation fixed points, from the weight passing gauge, or
from arbitrary user-supplied isometries.
"""

from pne.tensor import (
    SvdResult,
    DominantEig,
    contract_pair,
    svd,
    orthogonal_complement,
    dominant_eig,
)
from pne.network import (
    Edge,
    TensorNetwork,
    Identity,
    ProjectorP,
    DenseOp,
    EdgeInsertion,
    ContractionPlan,
    validate,
    apply_insertions,
    contract,
    plan_order,
)
from pne.belief import (
    BPState,
    SymmetrizedGauge,
    run_bp,
    fixed_point_residual,
    bp_scalar,
    bp_approx,
    symmetrize,
    projectors_from_bp,
    grouped_network,
    joint_message_pair,
)
from pne.weights import (
    WeightState,
    run_weight_passing,
    wp_update_edge,
    projectors_from_weights,
)
from pne.expansion import (
    Partition,
    ExpansionTerm,
    Expansion,
    build_linear,
    build_combinatorial,
    evaluate,
    evaluate_residue,
    residue_degrees,
    recursive_expand,
)

from types import ModuleType as _ModuleType

__all__ = [
    name for name, value in sorted(globals().items())
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
__version__ = "0.1.0"
