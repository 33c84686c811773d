"""Topology builders: leaf-spine (the paper's testbed) and fat-tree."""

from repro import lazy_exports

_EXPORTS = {
    "Network": "network",
    "LinkSpec": "network",
    "build_leaf_spine": "leafspine",
    "LeafSpineConfig": "leafspine",
    "build_fat_tree": "fattree",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
