import numpy as np
import pytest

from querysumm.autodiff import backward
from querysumm.model import SummModel
from querysumm.verification import (
    FULL_CHECKS,
    LAYER_CHECKS,
    TOLERANCE,
    _fragment,
    _toy_config,
    _toy_input,
    run_gradient_suite,
)

# ``run_gradient_suite(seed=0)`` bit for bit: restructuring the checks must
# not move any value.
GOLDEN_SEED_0 = {
    "local": "0x1.fd1f4d23aeb4dp-24",
    "pooling": "0x1.46fc4dde18295p-22",
    "query": "0x1.360a806ddabb9p-18",
    "global": "0x1.6404a4965be03p-22",
    "ordering": "0x1.4c01d8b96e9a7p-22",
    "merge": "0x1.fcc6237a16bf3p-33",
    "decoder": "0x1.17e2b0cf54c20p-18",
    "full-baseline": "0x1.092092447db38p-22",
    "full-merge": "0x1.ea0203a9bbd29p-21",
    "full-ordering": "0x1.a81d178a3d4d9p-23",
    "full-query": "0x1.ddc6d48b1d03ep-19",
    "full-joint": "0x1.cd70d0f7413d3p-21",
}


def inert_parameters(params):
    """Name -> max |grad| of each parameter whose gradient is (near) zero."""
    return {
        name: 0.0 if p.grad is None else float(np.abs(p.grad).max())
        for name, p in params.items()
        if p.grad is None or np.abs(p.grad).max() <= 1e-10
    }


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
    assert not inert_parameters(model.params)


@pytest.mark.parametrize("name", sorted(LAYER_CHECKS))
def test_every_fragment_parameter_receives_a_gradient(name):
    build, flags = LAYER_CHECKS[name]
    loss, params = _fragment(0, build, **flags)
    backward(loss())
    assert not inert_parameters(params)
    # Small enough that ``grad_check`` compares every coordinate.
    assert sum(p.values.size for p in params.values()) < 1000


def test_gradient_suite_values_are_pinned():
    results = run_gradient_suite(seed=0)
    assert {name: float.hex(err) for name, err in results.items()} == GOLDEN_SEED_0
