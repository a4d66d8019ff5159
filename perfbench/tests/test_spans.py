import types

import pytest

from spans import Recorder, Span, self_times, totals, unspanned_fraction


class FakeClock:
    """Advances by one second per reading."""

    def __init__(self):
        self.t = -1.0

    def __call__(self):
        self.t += 1.0
        return self.t


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span(0, "run", None, 0.0, 100.0),
        Span(1, "scf", 0, 0.0, 60.0),
        Span(2, "hartree", 1, 10.0, 40.0),
        Span(3, "hartree.evaluate", 2, 15.0, 35.0),
        Span(4, "cpscf", 0, 60.0, 99.0),
    ]
    own = self_times(spans)
    assert own == {0: 1.0, 1: 30.0, 2: 10.0, 3: 20.0, 4: 39.0}
    assert sum(own.values()) == pytest.approx(100.0)


def test_totals_group_by_top_level_phase():
    spans = [
        Span(0, "run", None, 0.0, 10.0),
        Span(1, "scf", 0, 0.0, 4.0),
        Span(2, "hartree", 1, 1.0, 3.0),
        Span(3, "cpscf", 0, 4.0, 10.0),
        Span(4, "hartree", 3, 5.0, 9.0),
    ]
    every = totals(spans, 0)
    assert every["hartree"].calls == 2
    assert every["hartree"].inclusive == pytest.approx(6.0)
    assert totals(spans, 0, under="scf")["hartree"].inclusive == pytest.approx(2.0)
    assert totals(spans, 0, under="cpscf")["hartree"].inclusive == pytest.approx(4.0)
    assert every["scf"].self == pytest.approx(2.0)


def test_same_name_nesting_counts_once():
    # overlap() -> potential_matrix(): both wrapped as "integrals".
    spans = [
        Span(0, "run", None, 0.0, 10.0),
        Span(1, "integrals", 0, 0.0, 5.0),
        Span(2, "integrals", 1, 1.0, 4.0),
    ]
    t = totals(spans, 0)["integrals"]
    assert (t.calls, t.inclusive, t.self) == (1, 5.0, 5.0)


def test_unspanned_fraction_is_root_self_share():
    spans = [Span(0, "run", None, 0.0, 200.0), Span(1, "scf", 0, 1.0, 199.0)]
    assert unspanned_fraction(spans, 0) == pytest.approx(0.01)


def test_recorder_nests_and_uninstalls():
    mod = types.SimpleNamespace(work=lambda x: x * 2)
    original = mod.work
    returns = []
    rec = Recorder(clock=FakeClock())
    rec.wrap(mod, "work", "layer", returns=returns)
    with rec.span("run") as root:
        assert mod.work(21) == 42
    rec.uninstall()
    assert mod.work is original
    assert [s.name for s in rec.spans] == ["run", "layer"]
    assert rec.spans[1].parent == root.id
    assert returns == [((21,), 42)]
    own = self_times(rec.spans)
    assert own[root.id] + own[1] == pytest.approx(root.duration)


def test_wrapped_method_on_class_restored():
    class Solver:
        def evaluate(self):
            return "ok"

    original = Solver.__dict__["evaluate"]
    rec = Recorder(clock=FakeClock())
    rec.wrap(Solver, "evaluate", "hartree.evaluate")
    assert Solver().evaluate() == "ok"
    rec.uninstall()
    assert Solver.__dict__["evaluate"] is original
    assert len(rec.spans) == 1
