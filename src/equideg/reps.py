"""Assembly of Gamma x Z2 representation data from a finite-group action.

The antipodal Z2 factor is realized as one extra 2-point orbit appended to the
permutation domain; its nontrivial element acts as -Id on every representation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NonIntegralMultiplicity
from .groups import CharacterTable, FiniteGroup, OrthogonalAction, Permutation, cyclic_group, direct_product
from .orbit_types import Irrep


def antipodal_product(gamma: FiniteGroup) -> FiniteGroup:
    """Gamma' = Gamma x Z2, the sign swapping the two points after Gamma's."""
    return direct_product(gamma, cyclic_group(2))


def split_gamma_prime(gamma: FiniteGroup, gamma_prime: FiniteGroup) -> list[tuple[int, int]]:
    """For each Gamma' element index: (gamma index, sign in {+1,-1})."""
    d = gamma.degree
    out = []
    for p in gamma_prime.elements:
        base = Permutation(p.images[:d])
        sign = 1 if p.images[d] == d else -1
        out.append((gamma.index[base], sign))
    return out


@dataclass(frozen=True)
class IsotypicComponent:
    """One isotypic block of the model representation V."""

    j: int
    label: str
    irrep_dim: int
    multiplicity: int
    basis: np.ndarray  # V-coordinates, shape (k, irrep_dim * multiplicity)


def isotypic_components(action: OrthogonalAction, table: CharacterTable) -> list[IsotypicComponent]:
    """Isotypic decomposition of an action using a supplied character table."""
    g = action.group
    k = action.dimension
    class_of = g.element_class_table()
    out = []
    for j, (label, row) in enumerate(zip(table.labels, table.rows)):
        d_j = round(row[table._identity_column()])
        P = np.zeros((k, k))
        chi = {}
        for rep, val in zip(table.class_representatives, row):
            chi[class_of[rep]] = float(val)
        for x in range(g.order):
            P += chi[class_of[x]] * action.matrices[x]
        P *= d_j / g.order
        vals, vecs = np.linalg.eigh((P + P.T) / 2)
        basis = vecs[:, vals > 0.5]
        dim_block = basis.shape[1]
        if dim_block % d_j != 0:
            raise NonIntegralMultiplicity(f"isotypic block of {label} has dimension {dim_block}")
        if dim_block:
            out.append(IsotypicComponent(j, label, d_j, dim_block // d_j, basis))
    total = sum(c.irrep_dim * c.multiplicity for c in out)
    if total != k:
        raise NonIntegralMultiplicity(f"isotypic blocks sum to {total}, expected {k}")
    return out


def irreps_with_antipodal(gamma: FiniteGroup, gamma_prime: FiniteGroup,
                          action: OrthogonalAction,
                          components: Sequence[IsotypicComponent]) -> dict[int, Irrep]:
    """Matrix models of V_j^- (one copy of each irrep, antipodal sign included).

    For multiplicity > 1 the first irreducible summand of the block is used;
    the summand split is obtained by symmetry-averaging a generic projector.
    """
    split = split_gamma_prime(gamma, gamma_prime)
    out = {}
    for comp in components:
        q = single_copy_basis(action, comp)
        mats = []
        for gi, sign in split:
            mats.append(sign * (q.T @ action.matrices[gi] @ q))
        for m in mats:
            if np.abs(m @ m.T - np.eye(comp.irrep_dim)).max() > 1e-9:
                raise NonIntegralMultiplicity(f"irrep block for {comp.label} not orthogonal")
        out[comp.j] = Irrep.from_matrices(comp.j, mats)
    return out


def single_copy_basis(action: OrthogonalAction, comp: IsotypicComponent) -> np.ndarray:
    """V-coordinates, shape (k, irrep_dim), of the copy that the irrep matrices act on."""
    if comp.multiplicity == 1:
        return comp.basis
    # eigenspaces of a generic invariant matrix inside the block split the copies
    sub = comp.basis.T @ generic_invariant_matrix(action, 12345) @ comp.basis
    vals, vecs = np.linalg.eigh(sub)
    # group eigenvalues; each cluster of size irrep_dim spans one copy
    order = np.argsort(vals)
    chosen = vecs[:, order[: comp.irrep_dim]]
    return comp.basis @ chosen


def generic_invariant_matrix(action: OrthogonalAction, seed: int) -> np.ndarray:
    """Group average of a seeded random symmetric matrix: it commutes with the
    action, and for a generic draw its eigenspaces are irreducible summands."""
    k = action.dimension
    M = np.random.default_rng(seed).standard_normal((k, k))
    M = M + M.T
    Mbar = np.zeros((k, k))
    for R in action.matrices:
        Mbar += R @ M @ R.T
    return Mbar / action.group.order
