import pytest

from schattenlab import estimator


@pytest.fixture
def failing_objective():
    """Factory of 'dx' objectives whose evaluator raises exc_type once it has
    been called fail_at times."""
    def make_objective(exc_type, fail_at):
        def make_eval(params):
            calls = []

            def evaluate(st):
                calls.append(None)
                if len(calls) > fail_at:
                    raise exc_type("solver gave up")
                return float(len(calls))
            return evaluate
        return estimator._Objective("dx", "max", make_eval)
    return make_objective
