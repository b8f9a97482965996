import numpy as np
import pytest

from querysumm.autodiff import backward
from querysumm.model import SummModel
from querysumm.verification import (
    FULL_CHECKS,
    LAYER_CHECKS,
    TOLERANCE,
    _toy_config,
    _toy_input,
    run_gradient_suite,
)


def test_single_named_check():
    results = run_gradient_suite(["merge"])
    assert set(results) == {"merge"}
    assert results["merge"] < TOLERANCE


def test_unknown_check_rejected():
    with pytest.raises(ValueError, match="unknown check"):
        run_gradient_suite(["warp-drive"])


def test_layer_check_names_cover_all_layer_types():
    assert {"local", "query", "global", "pooling", "ordering", "merge", "decoder"} <= set(
        LAYER_CHECKS
    )


@pytest.mark.parametrize("name", sorted(FULL_CHECKS))
def test_every_parameter_receives_a_gradient(name):
    """A parameter whose gradient is structurally zero cannot be learned and
    makes finite differences measure rounding noise."""
    cfg = _toy_config(**FULL_CHECKS[name])
    model = SummModel(cfg, seed=0, dtype=np.float64)
    backward(model.loss(_toy_input(np.random.default_rng(0), cfg)))
    inert = {
        pname: 0.0 if p.grad is None else float(np.abs(p.grad).max())
        for pname, p in model.params.items()
        if p.grad is None or np.abs(p.grad).max() <= 1e-10
    }
    assert not inert
