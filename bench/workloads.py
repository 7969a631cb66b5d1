"""Workload inputs for the equideg benchmark.

Every workload is a model config dict made from a seed.  Seed 0 is the config
as shipped; any other seed relabels the membranes by a seeded permutation,
applied consistently to the action's generator images and to the coupling
adjacency.  The relabelled model is isomorphic to the shipped one, so its
report must match the stored reference (floats within the check tolerance).
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass

# The S3 x Z2 ring of three membranes, as in tests/test_generality.py, with
# the Bessel horizon raised from 8 x 8 to 24 x 24 so that the spectral table
# dominates set-up; the report is the same as at the default horizon.
TRIANGLE_WIDE = {
    "name": "three-membranes",
    "group": {"degree": 3, "gamma_generators": ["(1 2 3)", "(1 2)"], "antipodal": True},
    "action": {"type": "permutation", "generator_images": [[1, 2, 0], [1, 0, 2]]},
    "linearization": {
        "a": 12.0,
        "coupling_matrix": {
            "template": "adjacency",
            "c": 22.0 / 3.0,
            "d": -5.0 / 3.0,
            "adjacency": [[0, 1, 1], [1, 0, 1], [1, 1, 0]],
        },
        "zeta": "sigmoid",
    },
    "horizon": {"m_max": 24, "n_max": 24},
    "analysis": {"mode": "relative", "k_fixed": True, "alpha_bracket": 1.0},
}


@dataclass(frozen=True)
class Workload:
    name: str
    model: str       # "six_membranes" (bundled) or "triangle"
    warm: bool       # one model reused for every report, or a fresh one each time
    reference: str   # file under reference/ holding the expected report


WORKLOADS = {
    w.name: w for w in (
        Workload("six_cold", "six_membranes", False, "six_membranes.json"),
        Workload("six_warm", "six_membranes", True, "six_membranes.json"),
        Workload("triangle_wide", "triangle", False, "triangle.json"),
    )
}


def base_config(api, model: str) -> dict:
    if model == "six_membranes":
        return api.bundled_config("six_membranes")
    return copy.deepcopy(TRIANGLE_WIDE)


def relabel(cfg: dict, seed: int) -> dict:
    """The config with its membranes renamed by the permutation drawn from seed.

    Membrane i becomes perm[i]: an image list img becomes new with
    new[perm[i]] = perm[img[i]], and the adjacency is permuted on both axes.
    """
    out = copy.deepcopy(cfg)
    if seed == 0:
        return out
    adj = cfg["linearization"]["coupling_matrix"]["adjacency"]
    k = len(adj)
    perm = random.Random(seed).sample(range(k), k)
    images = []
    for img in cfg["action"]["generator_images"]:
        new = [0] * k
        for i in range(k):
            new[perm[i]] = perm[img[i]]
        images.append(new)
    out["action"]["generator_images"] = images
    new_adj = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(k):
            new_adj[perm[i]][perm[j]] = adj[i][j]
    out["linearization"]["coupling_matrix"]["adjacency"] = new_adj
    return out


def workload_config(api, workload: Workload, seed: int) -> dict:
    return relabel(base_config(api, workload.model), seed)
