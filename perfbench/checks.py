"""Correctness checks behind the benchmark's ``failed`` count.

Every check returns a list of problems (empty when the output is
correct), so a run can count and print them instead of stopping at the
first one.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

#: Committed reference energies and polarizability tensors.
REFERENCES = Path(__file__).with_name("references.json")

#: Total energies must match the reference to this many Hartree.
ENERGY_ATOL = 1e-6
#: Each alpha element must match to this share of the largest reference
#: element (1e-5 of ~100 bohr^3 is 1e-3 bohr^3).  Dense and screened
#: runs of the same chain differ by about 1e-8 bohr^3.
ALPHA_RTOL = 1e-5


def load_references() -> Dict[str, Dict[str, Any]]:
    return json.loads(REFERENCES.read_text())


def check_physics(
    total_energy: float, alpha: Any, ref: Mapping[str, Any]
) -> List[str]:
    """Compare one run's energy and alpha tensor with a reference entry.

    >>> ref = {"total_energy": -1.0, "polarizability": [[1.0, 0, 0],
    ...        [0, 1.0, 0], [0, 0, 1.0]]}
    >>> check_physics(-1.0, np.eye(3), ref)
    []
    >>> len(check_physics(-1.0, 1.1 * np.eye(3), ref))
    1
    """
    problems = []
    e_err = abs(float(total_energy) - float(ref["total_energy"]))
    if not e_err <= ENERGY_ATOL:
        problems.append(f"total energy off by {e_err:.3g} Ha "
                        f"(tolerance {ENERGY_ATOL:g})")
    alpha = np.asarray(alpha, dtype=float)
    ref_alpha = np.asarray(ref["polarizability"], dtype=float)
    if alpha.shape != ref_alpha.shape:
        problems.append(f"alpha has shape {alpha.shape}, "
                        f"expected {ref_alpha.shape}")
        return problems
    tol = ALPHA_RTOL * float(np.max(np.abs(ref_alpha)))
    a_err = float(np.max(np.abs(alpha - ref_alpha)))
    if not a_err <= tol:
        problems.append(f"alpha off by {a_err:.3g} bohr^3 (tolerance {tol:.3g})")
    return problems


def check_service(
    requests: Sequence[Mapping[str, Any]],
    outcomes: Sequence[str],
    results: Sequence[Optional[Mapping[str, Any]]],
    references: Mapping[str, Mapping[str, Any]],
) -> Tuple[int, List[str]]:
    """Check one campaign's submit outcomes and fetched results.

    ``requests`` are the generator's items (``kind`` is ``hit``,
    ``fresh`` or ``dup``; ``entry`` names the catalogue molecule),
    ``outcomes`` the observed submit resolutions and ``results`` the
    fetched result payloads, all in submission order.  Returns the
    number of requests that failed and every problem found.
    """
    problems: List[str] = []
    bad = 0
    for i, req in enumerate(requests):
        seen = outcomes[i] if i < len(outcomes) else None
        result = results[i] if i < len(results) else None
        mine = []
        if seen != req["kind"]:
            mine.append(f"expected a {req['kind']}, got {seen}")
        if result is None:
            mine.append("no result")
        else:
            mine += check_physics(result["total_energy"],
                                  result["polarizability"],
                                  references[str(req["entry"])])
        bad += bool(mine)
        problems += [f"request {i} ({req['entry']}): {p}" for p in mine]
    return bad, problems
