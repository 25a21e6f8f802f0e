import json
import math
import multiprocessing
import os

import numpy as np
import pytest

from schattenlab import estimator
from schattenlab.estimator import (DIAGNOSTICS, LAYOUTS, InstanceSpec,
                                   OBJECTIVES, _Objective, _initial_state,
                                   _merged_trace, _rng_for, _run_start,
                                   _serialize_state, deserialize_state,
                                   maximize, replay_witness, review_flagged,
                                   run_searches)
from schattenlab.matcore import DomainError, NumericalError, ValidationError


def start_state(spec):
    """The state the first start of a dx search draws."""
    return _initial_state(LAYOUTS["dx"], spec, _rng_for(spec.seed, 0))


def start_results(objective_id, exponents, spec, budget, starts):
    """Each start's _run_start result, in start order, run in this process."""
    return [_run_start((objective_id, exponents, spec, idx, budget))
            for idx in range(starts)]


def one_search(objective_id, exponents, spec, **search):
    """run_searches over one search, as called: its checks run here."""
    return run_searches([(objective_id, exponents)], spec, **search)


class TestInstanceSpec:
    def test_rejects_bad_dim(self):
        with pytest.raises(ValidationError):
            InstanceSpec(dim=0)
        with pytest.raises(ValidationError):
            InstanceSpec(dim=65)

    def test_rejects_unknown_laws(self):
        with pytest.raises(ValidationError):
            InstanceSpec(dim=4, spectrum_law="cauchy")
        with pytest.raises(ValidationError):
            InstanceSpec(dim=4, x_law="wishart")

    def test_instances_reproducible(self):
        spec = InstanceSpec(dim=5, seed=123)
        a, b = start_state(spec), start_state(spec)
        assert np.array_equal(a["logspec"], b["logspec"])
        assert np.array_equal(a["x"], b["x"])

    def test_seed_changes_instance(self):
        a = start_state(InstanceSpec(dim=5, seed=1))
        b = start_state(InstanceSpec(dim=5, seed=2))
        assert np.abs(a["logspec"] - b["logspec"]).max() > 1e-6

    def test_clustered_pairs_law(self):
        st = start_state(InstanceSpec(dim=6, seed=3, spectrum_law="clustered-pairs"))
        gaps = np.diff(np.sort(st["logspec"]))
        assert (gaps < 1e-8).sum() >= 3


class TestSearch:
    def test_registry_complete(self):
        expected = {"main", "interp", "eq1-plus", "eq1-minus", "eq2", "mazur",
                    "abs-power", "tmap", "triangular-probe", "rx-probe",
                    "convexity-defect-min"}
        assert set(OBJECTIVES) == expected

    def test_unknown_objective(self):
        with pytest.raises(ValidationError):
            maximize("nope", {}, InstanceSpec(dim=3), budget=5)

    def test_trace_monotone(self):
        spec = InstanceSpec(dim=3, seed=11)
        rep = maximize("eq1-plus", {"p": 1.0, "q": 0.5}, spec,
                       budget=80, starts=3)
        vals = [v for _, v in rep.trace]
        assert all(x <= y for x, y in zip(vals, vals[1:]))
        assert rep.best_ratio == vals[-1]

    def test_minimizing_objective_trace(self):
        spec = InstanceSpec(dim=3, seed=5)
        rep = maximize("convexity-defect-min", {"alpha": 1.0, "q": 1.0}, spec,
                       budget=6, starts=2)
        vals = [v for _, v in rep.trace]
        assert all(x >= y for x, y in zip(vals, vals[1:]))
        assert rep.best_ratio > 0

    def test_replay_matches(self):
        spec = InstanceSpec(dim=4, seed=21)
        rep = maximize("main", {"alpha": 1.0, "s": 4.0 / 3.0, "r": math.inf},
                       spec, budget=60, starts=4)
        assert replay_witness(rep) == rep.best_ratio

    def test_witness_round_trip_through_json(self):
        spec = InstanceSpec(dim=3, seed=2)
        rep = maximize("mazur", {"p": 2.0, "q": 0.5}, spec, budget=30, starts=2)
        blob = json.loads(json.dumps(rep.witness))
        st = deserialize_state(blob)
        assert np.array_equal(st["x"], deserialize_state(rep.witness)["x"])

    def test_jobs_do_not_change_result(self):
        spec = InstanceSpec(dim=3, seed=31)
        kw = dict(budget=40, starts=4)
        a = maximize("eq2", {"p": 1.0, "q": 0.5}, spec, jobs=1, **kw)
        b = maximize("eq2", {"p": 1.0, "q": 0.5}, spec, jobs=2, **kw)
        assert json.dumps(a.to_dict(), sort_keys=True) \
            == json.dumps(b.to_dict(), sort_keys=True)

    def test_reruns_identical(self):
        spec = InstanceSpec(dim=4, seed=8)
        args = ("interp", {"eps": 0.3, "s": 0.5, "r": math.inf}, spec)
        a = maximize(*args, budget=50, starts=3)
        b = maximize(*args, budget=50, starts=3)
        assert json.dumps(a.to_dict(), sort_keys=True) \
            == json.dumps(b.to_dict(), sort_keys=True)

    def test_diagonal_search_stays_diagonal(self):
        # every unitary stays the identity and every matrix diagonal, for
        # each kind of state
        spec = InstanceSpec(dim=3, seed=4, diagonal=True)
        for oid, params in [("eq2", {"p": 1.0, "q": 2.0 / 3.0}),
                            ("mazur", {"p": 2.0, "q": 0.5}),
                            ("abs-power", {"p": 2.0, "q": 0.5}),
                            ("main", {"alpha": 1.0, "s": 2.0, "r": math.inf})]:
            rep = maximize(oid, params, spec, budget=40, starts=2)
            st = deserialize_state(rep.witness)
            _, unitaries, mats = LAYOUTS[OBJECTIVES[oid].kind]
            for key in unitaries:
                assert np.array_equal(st[key], np.eye(3)), (oid, key)
            for key in mats:
                assert np.array_equal(st[key], np.diag(np.diagonal(st[key]))), (oid, key)

    @pytest.mark.parametrize("diagonal", [False, True])
    def test_spec_block_rebuilds_the_spec(self, diagonal):
        spec = InstanceSpec(dim=3, spectrum_law="geometric",
                            x_law="hermitian-gaussian", seed=11,
                            diagonal=diagonal)
        rep = maximize("mazur", {"p": 2.0, "q": 0.5}, spec, budget=5, starts=2)
        assert InstanceSpec(seed=rep.seed, **rep.spec) == spec

    @pytest.mark.parametrize("spec", [InstanceSpec(dim=1, seed=3),
                                      InstanceSpec(dim=3, seed=3, diagonal=True)],
                             ids=["dim1", "diagonal"])
    @pytest.mark.parametrize("search", [maximize, one_search],
                             ids=["maximize", "run_searches"])
    def test_defect_min_refuses_commuting_instances(self, spec, search):
        # d and x commute, so every family is degenerate
        with pytest.raises(ValidationError, match="convexity-defect-min"):
            search("convexity-defect-min", {"alpha": 1.0, "q": 1.0}, spec,
                   budget=3, starts=1)

    def test_plateau_improvement_of_flat_trace(self):
        spec = InstanceSpec(dim=3, seed=6)
        rep = maximize("rx-probe", {"alpha": 1.0}, spec, budget=40, starts=2)
        # whatever the trace, the statistic is well-defined and non-negative
        assert rep.plateau_improvement() >= 0.0

    def test_review_flagged_empty_when_clean(self):
        spec = InstanceSpec(dim=3, seed=9)
        rep = maximize("main", {"alpha": 1.0, "s": 2.0, "r": math.inf}, spec,
                       budget=20, starts=2)
        if rep.flagged_instances == 0:
            assert review_flagged(rep) == []
        else:
            assert all(v["benign"] for v in review_flagged(rep))


class TestDiagnostics:
    def test_equal_at_any_jobs_and_one_evaluation_per_state(self):
        spec = InstanceSpec(dim=3, seed=12)
        budget, starts = 30, 5
        diags = [maximize("mazur", {"p": 2.0, "q": 0.5}, spec, budget=budget,
                          starts=starts, jobs=jobs).diagnostics
                 for jobs in (1, 2, 3)]
        assert diags[0] == diags[1] == diags[2]
        d = diags[0]
        assert list(d) == list(DIAGNOSTICS)
        assert d["evaluations"] == starts * (budget + 1)
        assert 0 < d["pattern_accepted"] <= d["pattern_moves"]
        assert d["pattern_accepted"] <= d["accepted"] < d["evaluations"]

    def test_counts_rejections_and_pattern_moves(self, monkeypatch,
                                                 failing_objective):
        # per start: the initial state and proposals 1-3 improve (1 random,
        # 2 and 3 pattern moves), pattern move 4 and proposals 5-10 raise
        monkeypatch.setitem(OBJECTIVES, "main", failing_objective(ValidationError, 4))
        rep = maximize("main", {"alpha": 1.0, "s": 2.0, "r": math.inf},
                       InstanceSpec(dim=3, seed=5), budget=10, starts=2)
        assert rep.diagnostics == {"evaluations": 22, "accepted": 6,
                                   "pattern_moves": 6, "pattern_accepted": 4,
                                   "rejected": 14, "flagged": 0}

    def test_counts_flags(self, monkeypatch):
        monkeypatch.setitem(OBJECTIVES, "main", _Objective(
            "dx", "max", lambda params: lambda st: math.inf, ("alpha", "s", "r")))
        rep = maximize("main", {"alpha": 1.0, "s": 2.0, "r": math.inf},
                       InstanceSpec(dim=3, seed=5), budget=10, starts=2)
        assert rep.diagnostics["flagged"] == rep.flagged_instances == 22
        assert rep.diagnostics["accepted"] == 0


class TestSerializedWitnesses:
    # a start returns its states as arrays; maximize serializes the winner
    # and the flagged states it reports, and nothing else
    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("objective_id, params", [
        ("main", {"alpha": 1.0, "s": 4.0 / 3.0, "r": math.inf}),
        ("eq2", {"p": 1.0, "q": 2.0 / 3.0}),
        ("mazur", {"p": 2.0, "q": 0.5}),
    ])
    def test_witness_is_the_winning_start_serialized(self, objective_id,
                                                     params, jobs):
        spec = InstanceSpec(dim=3, seed=17)
        search = dict(budget=30, starts=3)
        starts = start_results(objective_id, params, spec, **search)
        for best, state, *_ in starts:
            assert all(isinstance(v, np.ndarray) for v in state.values())
        # the first start of the highest value wins, as in the merge
        win = max(range(len(starts)), key=lambda i: (starts[i][0], -i))
        rep = maximize(objective_id, params, spec, jobs=jobs, **search)
        assert rep.best_ratio == starts[win][0]
        assert rep.witness == _serialize_state(starts[win][1])
        assert replay_witness(rep) == rep.best_ratio

    def test_at_most_five_flagged_witnesses_are_serialized(self, monkeypatch):
        # every evaluation flags, so each of 3 starts keeps 3 flagged states
        monkeypatch.setitem(OBJECTIVES, "main", _Objective(
            "dx", "max", lambda params: lambda st: math.inf, ("alpha", "s", "r")))
        serialized = []

        def counting(st):
            serialized.append(st)
            return _serialize_state(st)
        monkeypatch.setattr(estimator, "_serialize_state", counting)
        args = ("main", {"alpha": 1.0, "s": 2.0, "r": math.inf},
                InstanceSpec(dim=3, seed=5))
        starts = start_results(*args, budget=10, starts=3)
        assert serialized == []
        kept = [st for res in starts for st in res[4]]
        assert len(kept) == 9
        rep = maximize(*args, budget=10, starts=3)
        assert len(serialized) == 1 + 5
        assert rep.flagged_witnesses == [_serialize_state(st) for st in kept[:5]]


class TestWitnessBlocks:
    # a witness must hold exactly its layout's blocks: a missing block would
    # escape as a bare KeyError, and an extra one (the unitary of d that dx
    # witnesses once held) would be ignored, replaying another instance
    @staticmethod
    def report(blocks):
        rep = maximize("main", {"alpha": 1.0, "s": 2.0, "r": math.inf},
                       InstanceSpec(dim=3, seed=9), budget=5, starts=1)
        rep.witness = blocks(rep.witness)
        rep.flagged_witnesses = [rep.witness]
        return rep

    @pytest.mark.parametrize("replay", [replay_witness, review_flagged])
    def test_refuses_a_witness_without_x(self, replay):
        rep = self.report(lambda w: {"logspec": w["logspec"]})
        with pytest.raises(ValidationError,
                           match=r"blocks \['logspec'\]; a dx state has \['logspec', 'x'\]"):
            replay(rep)

    @pytest.mark.parametrize("replay", [replay_witness, review_flagged])
    def test_refuses_a_dx_witness_with_a_unitary(self, replay):
        eye = np.eye(3).tolist()
        rep = self.report(lambda w: dict(w, unitary={"re": eye, "im": eye}))
        with pytest.raises(ValidationError, match=r"\['logspec', 'unitary', 'x'\]"):
            replay(rep)

    def test_replays_a_witness_with_its_blocks(self):
        rep = self.report(lambda w: w)
        assert replay_witness(rep) == rep.best_ratio
        assert len(review_flagged(rep)) == 1


class TestFailureContext:
    @pytest.mark.parametrize("exc_type", [NumericalError, DomainError])
    def test_names_objective_start_iteration_seed(self, monkeypatch, exc_type,
                                                  failing_objective):
        monkeypatch.setitem(OBJECTIVES, "main", failing_objective(exc_type, 3))
        spec = InstanceSpec(dim=3, seed=5)
        with pytest.raises(exc_type, match="objective main, start 0, iteration 3,"
                           " seed 5: solver gave up"):
            maximize("main", {"alpha": 1.0, "s": 2.0, "r": math.inf}, spec,
                     budget=10, starts=2)

    def test_initial_state_is_iteration_zero(self, monkeypatch, failing_objective):
        monkeypatch.setitem(OBJECTIVES, "main", failing_objective(NumericalError, 0))
        spec = InstanceSpec(dim=3, seed=5)
        with pytest.raises(NumericalError, match="start 0, iteration 0,"):
            maximize("main", {"alpha": 1.0, "s": 2.0, "r": math.inf}, spec,
                     budget=10, starts=1)


class TestForkJoin:
    SPEC = InstanceSpec(dim=2, seed=5)
    SEARCHES = [("mazur", {"p": 2.0, "q": 0.5}), ("mazur", {"p": 3.0, "q": 0.5})]
    SEARCH = dict(budget=3, starts=4, jobs=2)

    def test_equals_the_serial_results_in_start_order(self):
        serial = [maximize(oid, point, self.SPEC, budget=3, starts=4).to_dict()
                  for oid, point in self.SEARCHES]
        reports = run_searches(self.SEARCHES, self.SPEC, **self.SEARCH)
        assert [rep.to_dict() for rep in reports] == serial
        assert multiprocessing.active_children() == []

    def test_any_exception_in_a_child_reaches_the_parent(self, monkeypatch):
        # starts 2 and 3 are the child's share; a TypeError, which no
        # objective raises by design, still reaches the caller as itself
        parent = os.getpid()

        def make_eval(params):
            def evaluate(st):
                if os.getpid() != parent:
                    raise TypeError("not a numerical failure")
                return 1.0
            return evaluate
        monkeypatch.setitem(OBJECTIVES, "mazur", _Objective(
            "pair-gen", "max", make_eval, ("p", "q")))
        with pytest.raises(TypeError, match="not a numerical failure"):
            maximize(*self.SEARCHES[0], self.SPEC, **self.SEARCH)
        assert multiprocessing.active_children() == []

    def test_a_search_left_unread_ends_its_child(self, pool_children):
        # the child still owes the second search's message: closing the
        # generator terminates it, not waits for it
        reports = run_searches(self.SEARCHES, self.SPEC, **self.SEARCH)
        assert next(reports).exponents == self.SEARCHES[0][1]
        reports.close()
        (child,) = pool_children
        assert child.exitcode is not None
        assert multiprocessing.active_children() == []

    def test_checks_every_search_before_any_start(self):
        # the call refuses the third search, before any generator is read
        bad = self.SEARCHES + [("no-such-objective", {})]
        with pytest.raises(ValidationError, match="no-such-objective"):
            run_searches(bad, self.SPEC, **self.SEARCH)
        with pytest.raises(ValidationError, match="at least one start"):
            run_searches([], self.SPEC, budget=3, starts=0)
        assert multiprocessing.active_children() == []


# --- the trace merge against the per-iteration arrays it replaced --------

def array_trace(events, sign, budget):
    """The global best per iteration as one array per start, reduced across
    starts and then to its change points."""
    per_start = []
    for start in events:
        vals = np.full(budget + 1, -sign * math.inf)
        for it, v in start:
            vals[it:] = v
        per_start.append(vals)
    combined = per_start[0]
    for vals in per_start[1:]:
        combined = np.maximum(combined, vals) if sign > 0 else np.minimum(combined, vals)
    trace = []
    for it, v in enumerate(combined):
        if not trace or v != trace[-1][1]:
            trace.append([int(it), float(v)])
    return trace


def random_events(rng, sign, budget):
    """One start's events: (0, initial value), which is the sentinel
    -sign*inf a third of the time, then strict improvements at increasing
    iterations, on a coarse grid so that starts tie and cross often."""
    best = -sign * math.inf if rng.random() < 1 / 3 else float(rng.integers(-4, 5))
    events = [(0, best)]
    iters = np.flatnonzero(rng.random(budget) < 0.3) + 1
    for it in iters.tolist():
        if math.isinf(best):
            best = float(rng.integers(-4, 5))
        else:
            best += sign * 0.5 * float(rng.integers(1, 4))
        events.append((it, best))
    return events


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_merged_trace_equals_per_iteration_arrays(sign):
    rng = np.random.default_rng(7 if sign > 0 else 8)
    shared = 0    # cases where two starts improve at one iteration
    for _ in range(400):
        budget = int(rng.integers(0, 12))
        events = [random_events(rng, sign, budget)
                  for _ in range(int(rng.integers(1, 6)))]
        assert _merged_trace(events, sign) == array_trace(events, sign, budget)
        iters = [it for start in events for it, _ in start[1:]]
        shared += len(iters) > len(set(iters))
    assert shared > 50
