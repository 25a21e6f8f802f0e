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
    """The child processes of every fork-join, as its close() finds them."""
    seen = []
    close = estimator._ForkJoin.close

    def recording(self):
        seen.extend(proc for proc, _, _ in self.children)
        close(self)
    monkeypatch.setattr(estimator._ForkJoin, "close", recording)
    return seen
