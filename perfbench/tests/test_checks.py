import copy

import numpy as np

from checks import ALPHA_RTOL, check_physics, check_service, load_references

REF = {"total_energy": -233.0,
       "polarizability": [[100.0, 2.7, 0.0], [2.7, 69.0, 0.0], [0.0, 0.0, 65.9]]}


def test_reference_passes_and_tiny_noise_passes():
    alpha = np.array(REF["polarizability"])
    assert check_physics(-233.0, alpha, REF) == []
    assert check_physics(-233.0 + 1e-9, alpha + 1e-8, REF) == []


def test_perturbed_alpha_is_rejected():
    alpha = np.array(REF["polarizability"])
    alpha[1, 1] += 2 * ALPHA_RTOL * 100.0
    problems = check_physics(-233.0, alpha, REF)
    assert len(problems) == 1 and "alpha" in problems[0]


def test_perturbed_energy_and_shape_are_rejected():
    assert check_physics(-233.001, np.array(REF["polarizability"]), REF)
    assert check_physics(-233.0, np.eye(2), REF)


def test_committed_references_cover_every_workload_entry():
    refs = load_references()
    for name in ("pe20-dense", "pe20-screened", "water",
                 "h2-1.30", "h2-1.35", "h2-1.40", "h2-1.45"):
        assert np.asarray(refs[name]["polarizability"]).shape == (3, 3)


def _campaign():
    refs = {"water": REF}
    requests = [{"kind": "hit", "entry": "water", "seed": 1},
                {"kind": "fresh", "entry": "water", "seed": 9},
                {"kind": "dup", "entry": "water", "seed": 9}]
    result = {"total_energy": REF["total_energy"],
              "polarizability": REF["polarizability"]}
    return refs, requests, ["hit", "fresh", "dup"], [result] * 3


def test_complete_campaign_passes():
    refs, requests, outcomes, results = _campaign()
    assert check_service(requests, outcomes, results, refs) == (0, [])


def test_missing_service_result_is_rejected():
    refs, requests, outcomes, results = _campaign()
    results = results[:1] + [None] + results[2:]
    failed, problems = check_service(requests, outcomes, results, refs)
    assert failed == 1 and "no result" in problems[0]


def test_wrong_outcome_kind_and_bad_physics_are_rejected():
    refs, requests, outcomes, results = _campaign()
    bad = copy.deepcopy(results[0])
    bad["polarizability"][0][0] += 1.0
    failed, problems = check_service(
        requests, ["hit", "hit", "dup"], [bad] + results[1:], refs)
    assert failed == 2
    assert any("expected a fresh" in p for p in problems)
    assert any("alpha" in p for p in problems)
