"""Shared cached builders so expensive groups are enumerated once per run."""

from functools import lru_cache

from coxex import GroupData, build_root_system, parse_descriptor
from coxex.descriptors import CoxeterDescriptor
from coxex.linalg import action_matrix, fixed_vector_basis


@lru_cache(maxsize=None)
def system(token: str):
    if "x" in token:
        return build_root_system([parse_descriptor(t) for t in token.split("x")])
    return build_root_system(parse_descriptor(token))


@lru_cache(maxsize=None)
def data(token: str) -> GroupData:
    return GroupData(system(token))


def descriptor(token: str) -> CoxeterDescriptor:
    return parse_descriptor(token)


def fixed_basis(w):
    """Basis over Q of the fixed space of a group element w, from its action
    matrix: the reference that reflection lengths and J-sets are checked
    against."""
    return fixed_vector_basis(action_matrix(w.system, w.perm))


def fixed_dim(w) -> int:
    """Dimension of w's fixed space over Q(c): its Q-basis has d vectors
    for each dimension."""
    return len(fixed_basis(w)) // w.system.field_degree
