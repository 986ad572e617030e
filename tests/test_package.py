import inspect

import pne


def test_all_exports_api_names():
    for name in pne.__all__:
        value = getattr(pne, name)
        assert inspect.isclass(value) or inspect.isfunction(value) or isinstance(
            value, (int, float, str, tuple, frozenset)
        ), f"pne.__all__ exports {name!r} of type {type(value).__name__}"


def test_public_surface_is_pinned():
    assert pne.__all__ == [
        "BPState",
        "ContractionPlan",
        "DenseOp",
        "DominantEig",
        "Edge",
        "EdgeInsertion",
        "Expansion",
        "ExpansionTerm",
        "Identity",
        "Partition",
        "ProjectorP",
        "SvdResult",
        "SymmetrizedGauge",
        "TensorNetwork",
        "WeightState",
        "apply_insertions",
        "bp_approx",
        "bp_scalar",
        "build_combinatorial",
        "build_linear",
        "contract",
        "dominant_eig",
        "evaluate",
        "evaluate_residue",
        "fixed_point_residual",
        "grouped_network",
        "joint_message_pair",
        "orthogonal_complement",
        "plan_order",
        "projectors_from_bp",
        "projectors_from_weights",
        "recursive_expand",
        "residue_degrees",
        "run_bp",
        "run_weight_passing",
        "svd",
        "symmetrize",
        "validate",
        "wp_update_edge",
    ]
