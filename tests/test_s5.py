"""S5 on the ten edges of K5: Gamma' = S5 x Z2 of order 240, the largest
group the tests load.  One load and one report serve every check."""

import itertools

import pytest

from equideg.model_io import load_model, run_report


def s5_edges():
    """S5, from (1 2 3 4 5) and (1 2), permuting the edges of K5; two edges
    are coupled when they share exactly one vertex."""
    edges = list(itertools.combinations(range(5), 2))
    index = {e: i for i, e in enumerate(edges)}

    def images(p):
        return [index[tuple(sorted((p[a], p[b])))] for a, b in edges]

    return {
        "name": "s5-edges",
        "group": {"degree": 5, "antipodal": True,
                  "gamma_generators": ["(1 2 3 4 5)", "(1 2)"]},
        "action": {"type": "permutation",
                   "generator_images": [images([1, 2, 3, 4, 0]), images([1, 0, 2, 3, 4])]},
        "linearization": {
            "a": 35.0,
            "coupling_matrix": {
                "template": "adjacency", "c": 10.0, "d": -1.0,
                "adjacency": [[int(len(set(e) & set(f)) == 1) for f in edges] for e in edges],
            },
            "zeta": "sigmoid",
        },
        "horizon": {"m_max": 12, "n_max": 12},
        "analysis": {"mode": "relative"},
    }


@pytest.fixture(scope="module")
def s5():
    model = load_model(s5_edges())
    return model, run_report(model)


def test_group_sizes(s5):
    model, _ = s5
    assert model.gamma_prime.order == 240
    assert len(model.gamma_prime.all_subgroups()) == 535
    assert len(model.gamma_prime.subgroup_classes()) == 57


def test_report_counts(s5):
    _, rep = s5
    assert len(rep["critical_points"]) == 2
    assert [e["status"] for e in rep["fast_path_checks"]] == ["ok"] * 18
    assert len(rep["certificates"]) == 18
    conclusions = [v["conclusion"] for v in rep["verdicts"]]
    assert conclusions.count("UnboundedBranch") == 8
    assert conclusions.count("Inconclusive") == 6
    assert len(conclusions) == 14
