from traffic import generate

ENTRIES = ("h2-1.30", "h2-1.35", "water")
SIZES = dict(n_history=200, n_hits=100, n_fresh=20, n_dups=8)


def test_same_seed_same_traffic():
    assert generate(7, ENTRIES, **SIZES) == generate(7, ENTRIES, **SIZES)


def test_other_seed_other_traffic():
    a = generate(7, ENTRIES, **SIZES)
    b = generate(8, ENTRIES, **SIZES)
    assert a.requests != b.requests
    assert a.history != b.history


def test_counts_match_sizes():
    t = generate(3, ENTRIES, **SIZES)
    assert t.counts() == {"hit": 100, "fresh": 20, "dup": 8}
    assert len(t.history) == 200


def test_hits_replay_history_and_fresh_seeds_are_new():
    t = generate(5, ENTRIES, **SIZES)
    history = set(t.history)
    fresh = [(r["entry"], r["seed"]) for r in t.requests if r["kind"] == "fresh"]
    assert all((r["entry"], r["seed"]) in history
               for r in t.requests if r["kind"] == "hit")
    assert len(set(s for _, s in fresh)) == len(fresh)
    assert not {s for _, s in fresh} & {s for _, s in t.history}


def test_every_dup_follows_its_original():
    t = generate(11, ENTRIES, **SIZES)
    seen = set()
    for r in t.requests:
        key = (r["entry"], r["seed"])
        if r["kind"] == "fresh":
            seen.add(key)
        elif r["kind"] == "dup":
            assert key in seen
