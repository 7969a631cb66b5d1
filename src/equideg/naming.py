"""Display names for subgroup classes of S4 x Z2.

The 33 conjugacy classes of subgroups get short names built from explicit
generator sets; suffix conventions: trailing "p" means the class contains the
pure sign element (K x Z2 shapes), "m"/"z"/"d"/"hd" mark the twisted diagonal
copies distinguished by the kernel of their sign character.  One order-8 class
(D2 x Z2) carries no classical short name and is called D2Z2 here.
"""

from __future__ import annotations

from .groups import FiniteGroup, Permutation

# (name, [(cycles_on_1..4, sign), ...]); order matters only for readability
S4Z2_NAMED_GENERATORS = [
    ("Z1", []),
    ("Z2", [("(1 2)(3 4)", 1)]),
    ("D1", [("(1 2)", 1)]),
    ("D1z", [("(1 2)", -1)]),
    ("Z2m", [("(1 2)(3 4)", -1)]),
    ("Z1p", [("()", -1)]),
    ("Z3", [("(1 2 3)", 1)]),
    ("V4", [("(1 2)(3 4)", 1), ("(1 3)(2 4)", 1)]),
    ("D2z", [("(1 2)", -1), ("(3 4)", -1)]),
    ("Z4", [("(1 2 3 4)", 1)]),
    ("D2", [("(1 2)", 1), ("(3 4)", 1)]),
    ("D1p", [("(1 2)", 1), ("()", -1)]),
    ("D2d", [("(1 2)", 1), ("(3 4)", -1)]),
    ("V4m", [("(1 2)(3 4)", 1), ("(1 3)(2 4)", -1)]),
    ("D2p", [("(1 2)(3 4)", 1), ("()", -1)]),
    ("Z4d", [("(1 2 3 4)", -1)]),
    ("D3", [("(1 2 3)", 1), ("(1 2)", 1)]),
    ("D3z", [("(1 2 3)", 1), ("(1 2)", -1)]),
    ("Z3p", [("(1 2 3)", 1), ("()", -1)]),
    ("V4p", [("(1 2)(3 4)", 1), ("(1 3)(2 4)", 1), ("()", -1)]),
    ("D4z", [("(1 2 3 4)", 1), ("(1 3)", -1)]),
    ("D4d", [("(1 3)", 1), ("(2 4)", 1), ("(1 2 3 4)", -1)]),
    ("Z4p", [("(1 2 3 4)", 1), ("()", -1)]),
    ("D4", [("(1 2 3 4)", 1), ("(1 3)", 1)]),
    ("D2Z2", [("(1 2)", 1), ("(3 4)", 1), ("()", -1)]),
    ("D4hd", [("(1 2)(3 4)", 1), ("(1 3)", -1), ("(1 2 3 4)", -1)]),
    ("D3p", [("(1 2 3)", 1), ("(1 2)", 1), ("()", -1)]),
    ("A4", [("(1 2 3)", 1), ("(1 2)(3 4)", 1)]),
    ("D4p", [("(1 2 3 4)", 1), ("(1 3)", 1), ("()", -1)]),
    ("A4p", [("(1 2 3)", 1), ("(1 2)(3 4)", 1), ("()", -1)]),
    ("S4", [("(1 2)", 1), ("(1 2 3 4)", 1)]),
    ("S4m", [("(1 2)", -1), ("(1 2 3 4)", -1)]),
    ("S4p", [("(1 2)", 1), ("(1 2 3 4)", 1), ("()", -1)]),
]


def signed_element(gamma_prime: FiniteGroup, gamma_degree: int, cycles: str, sign: int) -> int:
    """Index in Gamma' = Gamma x Z2 of (permutation, sign); the sign swaps the
    last two points of the product domain."""
    base = Permutation.parse(gamma_degree, cycles)
    imgs = list(base.images) + ([gamma_degree, gamma_degree + 1] if sign == 1
                                else [gamma_degree + 1, gamma_degree])
    return gamma_prime.index[Permutation(imgs)]


def s4z2_class_names(gamma_prime: FiniteGroup) -> list[str]:
    """Names for every subgroup class of S4 x Z2, which acts on 4 + 2 points."""
    gamma_degree = gamma_prime.degree - 2
    names: list[str] = [""] * len(gamma_prime.subgroup_classes())
    for name, gens in S4Z2_NAMED_GENERATORS:
        idxs = [signed_element(gamma_prime, gamma_degree, c, s) for c, s in gens]
        ci = gamma_prime.subgroup_class_of(gamma_prime.closure_mask(sum(1 << i for i in idxs)))
        if names[ci]:
            raise ValueError(f"name collision: {names[ci]} and {name} hit the same class")
        names[ci] = name
    if "" in names:
        raise ValueError(f"{names.count('')} subgroup classes have no name")
    return names
