import pytest

from schattenlab import verify
from schattenlab.matcore import ValidationError


def test_boundary_constancy_seed_24():
    # singular values taken from the eigenvalues of A*A carried a noise floor
    # near 1e-8 sigma_max, which failed this check at seed 24 (1.65e-5)
    result, = verify.verify_boundary_constancy(seed=24)
    assert result["passed"], result


class TestConvexityDefectEnsemble:
    def test_counts_excluded_families(self):
        result, = verify.verify_convexity_defect(seed=0, families=2)
        assert result["passed"]
        assert "0 of 2 families excluded" in result["detail"]

    def test_only_degenerate_families_end_the_loop(self, monkeypatch):
        def degenerate(*args, **kwargs):
            raise ValidationError("degenerate family")
        monkeypatch.setattr(verify, "BoundaryGridCache", degenerate)
        result, = verify.verify_convexity_defect(seed=0, families=3)
        assert not result["passed"]
        assert "30 of 30 families excluded" in result["detail"]

    def test_other_errors_propagate(self, monkeypatch):
        def broken(*args, **kwargs):
            raise ZeroDivisionError("not a degenerate family")
        monkeypatch.setattr(verify, "BoundaryGridCache", broken)
        with pytest.raises(ZeroDivisionError):
            verify.verify_convexity_defect(seed=0, families=3)
