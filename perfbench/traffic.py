"""Seeded service traffic: a completed history and one client's requests.

The generator only draws plain ``(kind, entry, seed)`` items; turning
them into ``JobRequest`` objects and cache keys is the service
workload's job, so the same seed gives the same traffic at every
commit while the keys (which include the commit) follow the code under
test.

* ``history``: ``n_history`` completed tasks, one per physics seed
  ``0 .. n_history-1``, each on a catalogue entry drawn at random.
* ``requests``, in submission order (one client, closed loop):
  ``hit`` resubmits a history item (a cache hit), ``fresh`` is a new
  replicate with a seed no history item has, and ``dup`` repeats a
  ``fresh`` request submitted earlier in the same batch (a dedup onto
  the live task).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple


@dataclass(frozen=True)
class Traffic:
    history: List[Tuple[str, int]]
    requests: List[Dict[str, object]]

    def counts(self) -> Dict[str, int]:
        out = {"hit": 0, "fresh": 0, "dup": 0}
        for req in self.requests:
            out[str(req["kind"])] += 1
        return out


def generate(
    seed: int,
    entries: Sequence[str],
    *,
    n_history: int,
    n_hits: int,
    n_fresh: int,
    n_dups: int,
) -> Traffic:
    """Deterministic traffic for one workload seed.

    >>> t = generate(1, ["a", "b"], n_history=5, n_hits=3, n_fresh=2, n_dups=1)
    >>> t.counts()
    {'hit': 3, 'fresh': 2, 'dup': 1}
    >>> t == generate(1, ["a", "b"], n_history=5, n_hits=3, n_fresh=2, n_dups=1)
    True
    """
    if n_dups and not n_fresh:
        raise ValueError("duplicates need at least one fresh request")
    rng = random.Random(seed)
    history = [(rng.choice(entries), s) for s in range(n_history)]
    stream: List[Dict[str, object]] = []
    for _ in range(n_hits):
        entry, s = history[rng.randrange(n_history)]
        stream.append({"kind": "hit", "entry": entry, "seed": s})
    fresh_seeds = rng.sample(range(n_history, 2**31 - 1), n_fresh)
    fresh = [{"kind": "fresh", "entry": rng.choice(entries), "seed": s}
             for s in fresh_seeds]
    stream.extend(fresh)
    rng.shuffle(stream)
    for _ in range(n_dups):
        original = fresh[rng.randrange(n_fresh)]
        after = next(i for i, req in enumerate(stream) if req is original)
        dup = {"kind": "dup", "entry": original["entry"],
               "seed": original["seed"]}
        stream.insert(rng.randint(after + 1, len(stream)), dup)
    return Traffic(history=history, requests=stream)
