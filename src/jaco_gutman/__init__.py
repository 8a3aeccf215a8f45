"""Linear Jaco graphs, exact Gutman and Wiener indices, and formula audits.

The public names are loaded on first use (PEP 562), so `import jaco_gutman`
loads no numpy, and neither does reading a name defined in the numpy-free
`base`: the exceptions and `SEQUENCE_NAMES`.  The entry points in `__main__`
rely on this: they set the BLAS thread default before anything imports numpy.
"""

import importlib

_PUBLIC = {
    "base": ("DisconnectedGraphError", "SEQUENCE_NAMES", "StructureAssumptionViolated"),
    "edge_joint": (
        "JointSpec",
        "anchor_audit",
        "anchor_checks",
        "closed_form_joint_gutman",
        "edge_joint_graph",
        "joint_check",
        "joint_delta_report",
        "joint_paper_rhs",
        "missing_anchor_block",
    ),
    "graph_core": (
        "SimpleGraph",
        "all_pairs_distances",
        "degree",
        "from_edges",
        "gutman_index",
        "induced_subgraph",
        "is_connected",
        "wiener_index",
    ),
    "jaco": (
        "IDENTITY",
        "JacoGraph",
        "JaconianInfo",
        "LinearFunction",
        "PrefixFacts",
        "PropertyReport",
        "build_jaco",
        "component_structure",
        "hope_graph",
        "jaco_from_arcs",
        "jaconian_info",
        "prefix_scan",
        "verify_definition_fixed_point",
        "verify_fundamental_properties",
    ),
    "recursion": (
        "RecursionDelta",
        "RecursionTerms",
        "recursion_delta_report",
        "recursion_exact_rhs",
        "recursion_exact_terms",
        "recursion_paper_rhs",
        "recursion_paper_terms",
    ),
    "sequences": ("SequenceTable", "sequence_table", "sequence_tables"),
}
_MODULE_OF = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        # an AttributeError lets `from jaco_gutman import cli` import the submodule
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
