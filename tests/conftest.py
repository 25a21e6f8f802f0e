from multiprocessing.context import ForkProcess

import pytest

from schattenlab import estimator


@pytest.fixture
def failing_objective():
    """Factory of 'dx' objectives with the keys of 'main' whose evaluator
    raises exc_type once it has been called fail_at times."""
    def make_objective(exc_type, fail_at):
        def make_eval(params):
            calls = []

            def evaluate(st):
                calls.append(None)
                if len(calls) > fail_at:
                    raise exc_type("solver gave up")
                return float(len(calls))
            return evaluate
        return estimator._Objective("dx", "max", make_eval, ("alpha", "s", "r"))
    return make_objective


@pytest.fixture
def pool_children(monkeypatch):
    """The child processes every fork-join starts, in start order."""
    seen = []
    start = ForkProcess.start

    def recording(self):
        start(self)
        seen.append(self)
    monkeypatch.setattr(ForkProcess, "start", recording)
    return seen
