import ast
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from conftest import tiny_config

from querysumm import autodiff as ad
from querysumm.autodiff import ShapeError, backward
from querysumm.model import SummModel, joint_flags, prepare_input
from querysumm.optim import grad_check


def wsum(out, w):
    return ad.tsum(ad.mul(out, ad.tensor(w, np.float64)))


def rand(rng, *shape):
    return ad.parameter(rng.standard_normal(shape), np.float64)


class TestForwardValues:
    def test_softmax_uniform_row(self):
        x = ad.tensor(np.zeros((1, 4)), np.float64)
        p = ad.softmax(x)
        np.testing.assert_allclose(p.values, 0.25)

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        x = ad.tensor(rng.standard_normal((5, 7)), np.float64)
        p = ad.softmax(x)
        np.testing.assert_allclose(p.values.sum(axis=-1), 1.0, atol=1e-6)

    def test_masked_softmax_exact_zero(self):
        rng = np.random.default_rng(1)
        x = ad.tensor(rng.standard_normal((3, 5)), np.float64)
        mask = np.ones((3, 5), bool)
        mask[0, 2] = False
        mask[2, :] = False
        p = ad.softmax(x, mask)
        assert p.values[0, 2] == 0.0
        np.testing.assert_array_equal(p.values[2], 0.0)
        np.testing.assert_allclose(p.values[0].sum(), 1.0, atol=1e-12)

    def test_layer_norm_definition(self):
        x = ad.tensor(np.array([[1.0, 2.0, 3.0]]), np.float64)
        out = ad.layer_norm(
            x, ad.tensor(np.ones(3), np.float64), ad.tensor(np.zeros(3), np.float64)
        )
        assert out.values.mean() == pytest.approx(0.0, abs=1e-9)
        assert out.values[0].var() == pytest.approx(1.0, rel=1e-5)

    def test_relu(self):
        x = ad.tensor(np.array([-1.0, 0.0, 2.0]), np.float64)
        np.testing.assert_array_equal(ad.relu(x).values, [0.0, 0.0, 2.0])

    def test_dropout_eval_is_identity(self):
        x = ad.tensor(np.ones((4, 4)))
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        assert ad.dropout(x, 0.5, None) is x
        assert ad.dropout(x, 0.0, rng) is x
        assert rng.bit_generator.state == state  # rate 0 draws nothing

    def test_dropout_inverted_scaling(self):
        rng = np.random.default_rng(2)
        x = ad.tensor(np.ones((2000,)), np.float64)
        out = ad.dropout(x, 0.25, rng).values
        kept = out[out > 0]
        np.testing.assert_allclose(kept, 1.0 / 0.75)
        assert abs(out.mean() - 1.0) < 0.05

    def test_cross_entropy_uniform(self):
        logits = ad.tensor(np.zeros((2, 10)), np.float64)
        total, count = ad.cross_entropy_sum(logits, np.array([3, 7]))
        assert count == 2
        assert total.item() / count == pytest.approx(np.log(10))

    def test_cross_entropy_counts_every_row(self):
        logits = ad.tensor(np.zeros((3, 4)), np.float64)
        total, count = ad.cross_entropy_sum(logits, np.array([1, 0, 2]))
        assert count == 3
        assert total.item() == pytest.approx(3 * np.log(4))

    def test_shape_errors_name_the_primitive(self):
        a = ad.tensor(np.zeros((2, 3)))
        b = ad.tensor(np.zeros((4, 5)))
        with pytest.raises(ShapeError, match="matmul"):
            ad.matmul(a, b)
        with pytest.raises(ShapeError, match="matmul"):  # batch 3 is neither 2 nor 1
            ad.matmul(ad.tensor(np.zeros((2, 3, 4))), ad.tensor(np.zeros((3, 4, 5))))
        with pytest.raises(ShapeError, match="matmul"):  # b's rank is not a's
            ad.matmul(ad.tensor(np.zeros((2, 3, 4))), ad.tensor(np.zeros((4, 5))))
        with pytest.raises(ShapeError, match="add"):
            ad.add(a, b)
        with pytest.raises(ShapeError, match="linear"):
            ad.linear(a, b)
        q, k = ad.tensor(np.zeros((2, 3, 4))), ad.tensor(np.zeros((2, 5, 4)))
        with pytest.raises(ShapeError, match="attention"):  # v has 6 keys, k 5
            ad.attention(q, k, ad.tensor(np.zeros((2, 6, 4))), 1.0)
        with pytest.raises(ShapeError, match="attention"):  # a mask would enlarge the scores
            ad.attention(q, k, k, 1.0, np.ones((3, 2, 3, 5), bool))
        x, w = ad.tensor(np.zeros((2, 5, 6))), ad.tensor(np.zeros((6, 6)))
        with pytest.raises(ShapeError, match="attention"):  # w reads 6 features, q has 4
            ad.attention((q, w, None), (x, w, None), (x, w, None), 1.0, heads=2)
        with pytest.raises(ShapeError, match="attention"):  # 6 features do not split into 4 heads
            ad.attention((x, w, None), (x, w, None), (x, w, None), 1.0, heads=4)
        with pytest.raises(ShapeError, match="attention"):  # a bias of 4 for 6 outputs
            ad.attention((x, w, ad.tensor(np.zeros(4))), (x, w, None), (x, w, None), 1.0, heads=2)
        with pytest.raises(ShapeError, match="linear"):  # parts of 2 and 3 rows
            ad.linear([a, ad.tensor(np.zeros((3, 3)))], ad.tensor(np.zeros((6, 1))))
        with pytest.raises(ShapeError, match="linear"):  # no parts
            ad.linear([], ad.tensor(np.zeros((0, 1))))
        w34 = ad.tensor(np.zeros((3, 4)))
        with pytest.raises(ShapeError, match="linear"):  # a bias of 1 for 4 outputs
            ad.linear(a, w34, ad.tensor(np.zeros(1)))
        with pytest.raises(ShapeError, match="linear"):  # a bias per row, not per output
            ad.linear(a, w34, ad.tensor(np.zeros((2, 4))))
        half = ad.tensor(np.zeros((2, 5, 3)))
        with pytest.raises(ShapeError, match="attention"):  # a source of parts
            ad.attention(([half, half], w, None), (x, w, None), (x, w, None), 1.0, heads=2)
        with pytest.raises(ShapeError, match="add_norm"):
            ad.add_norm(a, ([a, b], ad.tensor(np.zeros((8, 3))), a), a, a, 0.1, None)


class TestBackward:
    def test_every_primitive_against_finite_differences(self):
        rng = np.random.default_rng(3)
        checks = {}

        a = rand(rng, 3, 4)
        b = rand(rng, 3, 4)
        w = rng.standard_normal((3, 4))
        checks["add"] = grad_check(lambda: wsum(ad.add(a, b), w), {"a": a, "b": b})
        checks["mul"] = grad_check(lambda: wsum(ad.mul(a, b), w), {"a": a, "b": b})

        m1 = rand(rng, 2, 3, 4)
        m2 = rand(rng, 2, 4, 5)
        wm = rng.standard_normal((2, 3, 5))
        checks["matmul"] = grad_check(
            lambda: wsum(ad.matmul(m1, m2), wm), {"a": m1, "b": m2}
        )

        x = rand(rng, 4, 6)
        weight = rand(rng, 6, 3)
        bias = rand(rng, 3)
        wl = rng.standard_normal((4, 3))
        checks["linear"] = grad_check(
            lambda: wsum(ad.linear(x, weight, bias), wl),
            {"x": x, "w": weight, "b": bias},
        )

        c1, c2 = rand(rng, 2, 3), rand(rng, 2, 5)
        wc = rng.standard_normal((2, 8))
        checks["concat"] = grad_check(
            lambda: wsum(ad.concat([c1, c2], axis=1), wc), {"a": c1, "b": c2}
        )

        s = rand(rng, 2, 8)
        ws = rng.standard_normal((2, 3))
        checks["split"] = grad_check(
            lambda: wsum(ad.split(s, [3, 5], axis=1)[0], ws), {"s": s}
        )

        sm = rand(rng, 3, 5)
        mask = np.ones((3, 5), bool)
        mask[1, 4] = False
        wsm = rng.standard_normal((3, 5))
        checks["softmax"] = grad_check(
            lambda: wsum(ad.softmax(sm, mask), wsm), {"x": sm}
        )

        # A size-1 K/V batch axis shared by both query rows, one key masked.
        aq, ak, av = rand(rng, 2, 3, 4), rand(rng, 1, 5, 4), rand(rng, 1, 5, 3)
        amask = np.ones((2, 1, 5), bool)
        amask[1, 0, 3] = False
        wa = rng.standard_normal((2, 3, 3))
        checks["attention"] = grad_check(
            lambda: wsum(ad.attention(aq, ak, av, 0.5, amask), wa), {"q": aq, "k": ak, "v": av}
        )

        ln_x = rand(rng, 4, 6)
        ln_g = ad.parameter(np.ones(6), np.float64)
        ln_b = ad.parameter(np.zeros(6), np.float64)
        wln = rng.standard_normal((4, 6))
        checks["layer_norm"] = grad_check(
            lambda: wsum(ad.layer_norm(ln_x, ln_g, ln_b), wln),
            {"x": ln_x, "g": ln_g, "b": ln_b},
        )

        an_x, an_y, an_g, an_b = rand(rng, 4, 6), rand(rng, 4, 6), rand(rng, 6), rand(rng, 6)
        an = {"x": an_x, "y": an_y, "g": an_g, "b": an_b}
        checks["add_norm"] = grad_check(
            lambda: wsum(ad.add_norm(an_x, an_y, an_g, an_b, 0.3, None), wln), an
        )
        checks["add_norm_dropout"] = grad_check(
            lambda: wsum(ad.add_norm(an_x, an_y, an_g, an_b, 0.3, np.random.default_rng(19)), wln),
            an,
        )

        ff_x, ff_w1, ff_b1 = rand(rng, 4, 6), rand(rng, 6, 8), rand(rng, 8)
        ff_w2, ff_b2 = rand(rng, 8, 6), rand(rng, 6)
        ff = {"x": ff_x, "w1": ff_w1, "b1": ff_b1, "w2": ff_w2, "b2": ff_b2, "g": an_g, "b": an_b}
        ff_args = (ff_x, ff_w1, ff_b1, ff_w2, ff_b2, an_g, an_b, 0.3)
        extra = np.random.default_rng(29)  # the rows below draw from their own generator
        checks["feed_forward"] = grad_check(lambda: wsum(ad.feed_forward(*ff_args, None), wln), ff)
        checks["feed_forward_dropout"] = grad_check(
            lambda: wsum(ad.feed_forward(*ff_args, np.random.default_rng(23)), wln), ff
        )
        pj_y = rand(extra, 4, 8)
        pj = {**an, "y": pj_y, "w": ff_w2, "pb": ff_b2}
        checks["add_norm_proj"] = grad_check(
            lambda: wsum(ad.add_norm(an_x, (pj_y, ff_w2, ff_b2), an_g, an_b, 0.3, None), wln), pj
        )
        checks["add_norm_proj_dropout"] = grad_check(
            lambda: wsum(
                ad.add_norm(an_x, (pj_y, ff_w2, ff_b2), an_g, an_b, 0.3, np.random.default_rng(31)),
                wln,
            ),
            pj,
        )
        bc = rand(extra, 3, 1, 4)
        wbc = extra.standard_normal((3, 5, 4))
        checks["broadcast_to"] = grad_check(
            lambda: wsum(ad.broadcast_to(bc, (3, 5, 4)), wbc), {"x": bc}
        )

        nl = rand(rng, 3, 4)
        wn = rng.standard_normal((3, 4))
        checks["relu"] = grad_check(lambda: wsum(ad.relu(nl), wn), {"x": nl})
        checks["tanh"] = grad_check(lambda: wsum(ad.tanh(nl), wn), {"x": nl})
        checks["sin"] = grad_check(lambda: wsum(ad.sin(nl), wn), {"x": nl})
        checks["cos"] = grad_check(lambda: wsum(ad.cos(nl), wn), {"x": nl})

        table = rand(rng, 9, 4)
        ids = np.array([[1, 2], [2, 8]])
        we = rng.standard_normal((2, 2, 4))
        checks["embedding_lookup"] = grad_check(
            lambda: wsum(ad.embedding_lookup(table, ids), we), {"t": table}
        )

        logits = rand(rng, 5, 7)
        targets = np.array([1, 0, 3, 0, 6])

        def mean_cross_entropy():
            total, count = ad.cross_entropy_sum(logits, targets)
            return ad.scale(total, 1.0 / count)

        checks["cross_entropy_sum"] = grad_check(mean_cross_entropy, {"l": logits})

        dr = rand(rng, 3, 4)
        keep_rng_seed = 17

        def dropout_loss():
            return wsum(
                ad.dropout(dr, 0.3, np.random.default_rng(keep_rng_seed)),
                wn,
            )

        checks["dropout"] = grad_check(dropout_loss, {"x": dr})

        rs = rand(rng, 2, 6)
        wr = rng.standard_normal((3, 4))
        checks["reshape"] = grad_check(
            lambda: wsum(ad.reshape(rs, (3, 4)), wr), {"x": rs}
        )
        wt = rng.standard_normal((6, 2))
        checks["swapaxes"] = grad_check(
            lambda: wsum(ad.swapaxes(rs, 0, 1), wt), {"x": rs}
        )
        checks["scale"] = grad_check(lambda: wsum(ad.scale(rs, -1.5), wr.reshape(2, 6)), {"x": rs})
        checks["tsum"] = grad_check(lambda: ad.scale(ad.tsum(ad.mul(rs, rs)), 0.5), {"x": rs})

        # b's size-1 batch axis is shared by every a row: its gradient sums.
        mb1 = rand(rng, 3, 2, 1, 4)
        mb2 = rand(rng, 1, 2, 4, 5)
        wmb = rng.standard_normal((3, 2, 1, 5))
        checks["matmul_shared_b"] = grad_check(
            lambda: wsum(ad.matmul(mb1, mb2), wmb), {"a": mb1, "b": mb2}
        )

        # Attention computing its own projections, 2 heads: self-attention
        # over one source, and queries over a size-1 memory batch shared by
        # both rows, whose keys and values reach it through relays.
        pr = np.random.default_rng(37)
        src, mem = rand(pr, 2, 3, 4), rand(pr, 1, 5, 4)
        wq, wk, wv = rand(pr, 4, 4), rand(pr, 4, 4), rand(pr, 4, 6)
        bq, bv = rand(pr, 4), rand(pr, 6)
        pmask = np.ones((2, 1, 1, 5), bool)
        pmask[1, ..., 3] = False
        leaves = {"src": src, "wq": wq, "wk": wk, "wv": wv, "bq": bq, "bv": bv}
        wps = pr.standard_normal((2, 2, 3, 3))
        checks["attention_self_projections"] = grad_check(
            lambda: wsum(
                ad.attention((src, wq, bq), (src, wk, None), (src, wv, bv), 0.5, None, 2), wps
            ),
            leaves,
        )
        wpm = pr.standard_normal((2, 2, 3, 3))
        checks["attention_memory_projections"] = grad_check(
            lambda: wsum(
                ad.attention((src, wq, bq), (mem, wk, None), (mem, wv, bv), 0.5, pmask, 2), wpm
            ),
            {**leaves, "mem": mem},
        )
        checks["_relay"] = grad_check(lambda: wsum(ad._relay(nl), wn), {"x": nl})
        lp, wlp = rand(pr, 4, 3), rand(pr, 9, 3)
        checks["linear_parts"] = grad_check(
            lambda: wsum(ad.linear([lp, x], wlp, bias), wl), {"a": lp, "x": x, "w": wlp, "b": bias}
        )
        wparts = rand(pr, 9, 6)
        checks["add_norm_proj_parts"] = grad_check(
            lambda: wsum(
                ad.add_norm(an_x, ([an_y, lp], wparts, ff_b2), an_g, an_b, 0.3, None), wln
            ),
            {"x": an_x, "y": an_y, "a": lp, "w": wparts, "g": an_g, "b": an_b},
        )

        for name, err in checks.items():
            assert err < 1e-4, f"{name}: rel err {err:.3e}"

    def test_projection_weights_may_be_nodes(self):
        """A projection operand's weight and bias reach the graph through
        its node's parents, so they may be nodes themselves: through a
        ``mul`` by 1 every leaf takes the gradient bytes it takes when the
        nodes read it directly."""
        rng = np.random.default_rng(31)
        shapes = {
            "x": (2, 4, 6), "w1": (6, 8), "b1": (8,), "w2": (8, 6), "b2": (6,),
            "g": (6,), "b": (6,), "w": (6, 6), "wb": (6,),
        }
        leaves = {k: rand(rng, *s) for k, s in shapes.items()}
        w_out = rng.standard_normal((2, 2, 4, 3))

        def grads(wrap):
            t = {k: wrap(leaf) for k, leaf in leaves.items()}
            h = ad.feed_forward(*(t[k] for k in ("x", "w1", "b1", "w2", "b2", "g", "b")), 0.3, None)
            h = ad.add_norm(h, (h, t["w"], t["wb"]), t["g"], t["b"], 0.3, None)
            h = ad.linear([h], t["w"], t["wb"])
            backward(wsum(ad.attention(*[(h, t["w"], t["wb"])] * 3, 0.5, None, 2), w_out))
            out = [leaf.grad for leaf in leaves.values()]
            for leaf in leaves.values():
                leaf.grad = None
            return out

        direct = grads(lambda leaf: leaf)
        one = ad.tensor(1.0, np.float64)
        _assert_same_bytes(grads(lambda leaf: ad.mul(leaf, one)), direct)

    def test_concat_split_roundtrip_gradients(self):
        rng = np.random.default_rng(4)
        x = rand(rng, 3, 7)
        w = rng.standard_normal((3, 7))
        parts = ad.split(x, [2, 5], axis=1)
        out = ad.concat(parts, axis=1)
        backward(wsum(out, w))
        np.testing.assert_allclose(x.grad, w)

    def test_gradient_accumulates_across_backward_calls(self):
        x = ad.parameter(np.array([2.0]), np.float64)
        loss1 = ad.mul(x, x)
        backward(loss1)
        g1 = x.grad.copy()
        loss2 = ad.mul(x, x)
        backward(loss2)
        np.testing.assert_allclose(x.grad, 2 * g1)

    def test_diamond_graph(self):
        x = ad.parameter(np.array([3.0]), np.float64)
        y = ad.add(ad.mul(x, x), ad.scale(x, 2.0))  # x^2 + 2x
        backward(y)
        np.testing.assert_allclose(x.grad, [2 * 3.0 + 2.0])

    def test_second_backward_over_consumed_graph_raises(self):
        x = ad.parameter(np.array([2.0, -1.0]), np.float64)
        y = ad.mul(x, x)
        loss = ad.tsum(y)
        backward(loss)
        g = x.grad.copy()
        assert y.grad is None and y.parents == () and y.backward_fn is None
        with pytest.raises(ValueError, match="consumed"):
            backward(loss)
        np.testing.assert_array_equal(x.grad, g)

    def test_deterministic_forward(self):
        rng = np.random.default_rng(5)
        x = rand(rng, 4, 4)
        out1 = ad.softmax(ad.tanh(x)).values
        out2 = ad.softmax(ad.tanh(x)).values
        np.testing.assert_array_equal(out1, out2)

    def test_embedding_id_out_of_range(self):
        table = ad.parameter(np.zeros((4, 2)))
        with pytest.raises(IndexError):
            ad.embedding_lookup(table, np.array([5]))


def _primitive_calls():
    """One call per primitive on operands that require gradients; each
    returns the primitive's result tensors."""
    rng = np.random.default_rng(6)

    def p(*shape):
        return rand(rng, *shape)

    return {
        "add": lambda: [ad.add(p(3, 4), p(3, 4))],
        "mul": lambda: [ad.mul(p(3, 4), p(3, 4))],
        "scale": lambda: [ad.scale(p(3, 4), 2.0)],
        "matmul": lambda: [ad.matmul(p(2, 3, 4), p(2, 4, 5))],
        "linear": lambda: [
            ad.linear(p(4, 6), p(6, 3), p(3)),
            ad.linear([p(4, 2), p(4, 4)], p(6, 3)),
        ],
        "reshape": lambda: [ad.reshape(p(2, 6), (3, 4))],
        "swapaxes": lambda: [ad.swapaxes(p(2, 6), 0, 1)],
        "broadcast_to": lambda: [ad.broadcast_to(p(3, 1, 4), (3, 5, 4))],
        "concat": lambda: [ad.concat([p(2, 3), p(2, 5)], axis=1)],
        "split": lambda: ad.split(p(2, 8), [3, 5], axis=1),
        "relu": lambda: [ad.relu(p(3, 4))],
        "tanh": lambda: [ad.tanh(p(3, 4))],
        "sin": lambda: [ad.sin(p(3, 4))],
        "cos": lambda: [ad.cos(p(3, 4))],
        "softmax": lambda: [ad.softmax(p(3, 5), np.ones((3, 5), bool))],
        "attention": lambda: [
            ad.attention(p(2, 3, 4), p(2, 5, 4), p(2, 5, 3), 0.5),
            ad.attention(
                (p(2, 3, 4), p(4, 4), p(4)), (p(1, 5, 4), p(4, 4), None), p(1, 2, 5, 3), 0.5,
                heads=2,
            ),
        ],
        "_relay": lambda: [ad._relay(p(3, 4))],
        "layer_norm": lambda: [ad.layer_norm(p(4, 6), p(6), p(6))],
        "add_norm": lambda: [
            ad.add_norm(p(4, 6), p(4, 6), p(6), p(6), 0.3, np.random.default_rng(0)),
            ad.add_norm(p(4, 6), (p(4, 8), p(8, 6), p(6)), p(6), p(6), 0.3, None),
        ],
        "feed_forward": lambda: [
            ad.feed_forward(
                p(4, 6), p(6, 8), p(8), p(8, 6), p(6), p(6), p(6), 0.3, np.random.default_rng(0)
            )
        ],
        "dropout": lambda: [ad.dropout(p(3, 4), 0.3, np.random.default_rng(0))],
        "embedding_lookup": lambda: [ad.embedding_lookup(p(9, 4), np.array([[1, 2], [2, 8]]))],
        "cross_entropy_sum": lambda: [ad.cross_entropy_sum(p(5, 7), np.array([1, 0, 3, 0, 6]))[0]],
        "tsum": lambda: [ad.tsum(p(3, 4))],
    }


class TestNoGrad:
    @pytest.mark.parametrize("prim", sorted(_primitive_calls()))
    def test_every_primitive_builds_no_node(self, prim):
        call = _primitive_calls()[prim]
        assert all(out.requires_grad and out.parents for out in call())
        with ad.no_grad():
            outs = call()
        assert outs
        for out in outs:
            assert not out.requires_grad
            assert out.parents == () and out.backward_fn is None

    def test_nests_and_restores(self):
        x = ad.parameter(np.ones(2), np.float64)
        with ad.no_grad():
            with ad.no_grad():
                assert not ad.add(x, x).requires_grad
            assert not ad.add(x, x).requires_grad
        assert ad.add(x, x).requires_grad

    def test_restores_after_exception(self):
        x = ad.parameter(np.ones(2), np.float64)
        with pytest.raises(RuntimeError):
            with ad.no_grad():
                raise RuntimeError("inside")
        assert ad.add(x, x).requires_grad

    def test_backward_through_graph_free_result_raises(self):
        x = ad.parameter(np.ones(3), np.float64)
        with ad.no_grad():
            loss = ad.tsum(ad.mul(x, x))
        with pytest.raises(ValueError, match="no graph"):
            backward(loss)
        assert x.grad is None


def test_only_node_tensor_and_parameter_construct_tensors():
    """Every primitive must go through ``_node``; a direct ``Tensor(...)``
    elsewhere would build graph nodes that ``no_grad`` cannot switch off."""

    class Constructors(ast.NodeVisitor):
        def __init__(self):
            self.scopes, self.callers = ["<module>"], []

        def visit_FunctionDef(self, node):
            self.scopes.append(node.name)
            self.generic_visit(node)
            self.scopes.pop()

        def visit_Call(self, node):
            if isinstance(node.func, ast.Name) and node.func.id == "Tensor":
                self.callers.append(self.scopes[-1])
            self.generic_visit(node)

    finder = Constructors()
    finder.visit(ast.parse(Path(ad.__file__).read_text()))
    assert set(finder.callers) == {"_node", "tensor", "parameter"}


# --- oracles for the hot-path primitives ------------------------------------


def oracle_accumulate(t, g):
    """``_accumulate`` as first written: zero-fill, then add."""
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.zeros_like(t.values)
    t.grad += g


def oracle_softmax(a, mask=None):
    """Masked softmax as first written, with fresh arrays at every step."""
    x = a.values
    if mask is not None:
        mask = np.broadcast_to(np.asarray(mask, dtype=bool), x.shape)
        x = np.where(mask, x, -np.inf)
    x_max = np.max(x, axis=-1, keepdims=True)
    x_max = np.where(np.isfinite(x_max), x_max, 0.0)
    e = np.exp(x - x_max)
    z = e.sum(axis=-1, keepdims=True)
    p = np.where(z > 0, e / np.where(z > 0, z, 1.0), 0.0)

    def bw(g):
        inner = (g * p).sum(axis=-1, keepdims=True)
        ad._accumulate(a, p * (g - inner))

    return ad._node(p, (a,), bw)


SOFTMAX_CASES = (
    "key-mask",
    "causal-cached-keys",
    "fully-masked-rows",
    "nan-row",
    "swapaxes-parent",
)


def _softmax_case(name, dtype):
    """(leaf values, mask) for one oracle case; the "swapaxes-parent" leaf
    is stored transposed and read through a non-contiguous view."""
    rng = np.random.default_rng(sorted(SOFTMAX_CASES).index(name))
    x = rng.standard_normal((2, 3, 5, 7)).astype(dtype) * 4
    mask = None
    if name == "key-mask":
        mask = rng.random((2, 1, 1, 7)) > 0.3
        mask[..., 0] = True
    elif name == "causal-cached-keys":
        # 5 new queries over 7 keys, the first 2 cached: query i sees keys <= i + 2.
        mask = np.tril(np.ones((5, 7), dtype=bool), k=2)
    elif name == "fully-masked-rows":
        mask = np.ones((2, 3, 5, 7), dtype=bool)
        mask[0, 1, 2] = False
        mask[1, :, 4] = False
    elif name == "nan-row":
        x[1, 2, 3, 4] = np.nan
        mask = np.ones((7,), dtype=bool)
    elif name == "swapaxes-parent":
        x = x.swapaxes(-1, -2).copy()  # the view below restores (2, 3, 5, 7)
        mask = rng.random((2, 1, 1, 7)) > 0.3
    return x, mask


def _run_softmax(softmax, name, dtype, released_grads):
    x_values, mask = _softmax_case(name, dtype)
    x = ad.parameter(x_values, dtype)
    # A non-leaf parent, so the softmax's own gradient lands on a node.
    a = ad.swapaxes(x, -1, -2) if name == "swapaxes-parent" else ad.mul(x, ad.tensor(1.0, dtype))
    out = softmax(a, mask)
    w = np.random.default_rng(99).standard_normal(out.shape).astype(dtype)
    backward(ad.tsum(ad.mul(out, ad.tensor(w, dtype))))
    return out.values, released_grads[a], x.grad


def oracle_heads(x, heads):
    """An attention operand as the chain: a tensor, or a projection
    ``(source, w, b)`` as a ``linear`` node split into heads by a reshape
    and a swap."""
    if isinstance(x, ad.Tensor):
        return x
    y = ad.linear(*x)
    *lead, t, d = y.shape
    return ad.swapaxes(ad.reshape(y, (*lead, t, heads, d // heads)), -2, -3)


def oracle_attention(q, k, v, scale, mask=None, heads=1):
    """Attention as the chain the fused primitive replaced, each
    projection a node of its own."""
    q, k, v = (oracle_heads(x, heads) for x in (q, k, v))
    scores = ad.scale(ad.matmul(q, ad.swapaxes(k, -1, -2)), scale)
    return ad.matmul(oracle_softmax(scores, mask), v)


ATTENTION_CASES = SOFTMAX_CASES + ("shared-kv", "causal-and-key-mask")


def _attention_mask(name, dtype):
    if name == "shared-kv":
        return _softmax_case("key-mask", dtype)[1]
    if name == "causal-and-key-mask":
        key_mask = _softmax_case("key-mask", dtype)[1]
        return key_mask & _softmax_case("causal-cached-keys", dtype)[1]
    return _softmax_case(name, dtype)[1]


def _run_attention(attention, name, dtype, released_grads):
    """One attention case, 5 queries over 7 keys with the softmax case's
    mask: the output, the output built under ``no_grad``, the q, k and v
    node gradients and the leaf gradients.  The "swapaxes-parent" keys and
    values are read through non-contiguous views; the "shared-kv" keys and
    values have a size-1 batch axis, as decoder memory does."""
    mask = _attention_mask(name, dtype)
    rng = np.random.default_rng(ATTENTION_CASES.index(name))
    qx = ad.parameter(rng.standard_normal((2, 3, 5, 4)), dtype)
    if name == "nan-row":
        qx.values[1, 2, 3, 0] = np.nan
    one = ad.tensor(1.0, dtype)
    if name == "swapaxes-parent":
        kx = ad.parameter(rng.standard_normal((2, 3, 4, 7)), dtype)
        vx = ad.parameter(rng.standard_normal((2, 3, 6, 7)), dtype)
        k, v = ad.swapaxes(kx, -1, -2), ad.swapaxes(vx, -1, -2)
    else:
        batch = 1 if name == "shared-kv" else 2
        kx = ad.parameter(rng.standard_normal((batch, 3, 7, 4)), dtype)
        vx = ad.parameter(rng.standard_normal((batch, 3, 7, 6)), dtype)
        k, v = ad.mul(kx, one), ad.mul(vx, one)
    q = ad.mul(qx, one)
    out = attention(q, k, v, 0.5, mask)
    with ad.no_grad():
        const = attention(q, k, v, 0.5, mask)
    assert not const.requires_grad and const.parents == ()
    w = np.random.default_rng(99).standard_normal(out.shape).astype(dtype)
    backward(ad.tsum(ad.mul(out, ad.tensor(w, dtype))))
    return (
        out.values,
        const.values,
        released_grads[q],
        released_grads[k],
        released_grads[v],
        qx.grad,
        kx.grad,
        vx.grad,
    )


class TestHotPathOracles:
    """The in-place softmax, the fused attention weights and the
    first-gradient store must give the same bytes, with the same layout, as
    the straightforward forms above."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("name", SOFTMAX_CASES)
    def test_softmax_and_accumulate_match_oracle_bytes(
        self, name, dtype, monkeypatch, released_grads
    ):
        got = _run_softmax(ad.softmax, name, dtype, released_grads)
        monkeypatch.setattr(ad, "_accumulate", oracle_accumulate)
        want = _run_softmax(oracle_softmax, name, dtype, released_grads)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.strides == w.strides
            assert g.tobytes() == w.tobytes()
        if name == "fully-masked-rows":
            assert not got[0][0, 1, 2].any() and not got[0][1, :, 4].any()
        if name == "nan-row":
            assert not got[0][1, 2, 3].any() and np.isfinite(got[1]).all()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("name", ATTENTION_CASES)
    def test_attention_matches_chain_oracle_bytes(
        self, name, dtype, monkeypatch, released_grads
    ):
        got = _run_attention(ad.attention, name, dtype, released_grads)
        monkeypatch.setattr(ad, "_accumulate", oracle_accumulate)
        want = _run_attention(oracle_attention, name, dtype, released_grads)
        # The output, built with or without a graph, is laid out with heads
        # inside queries, (2, 5, 3, 6), so the merge of heads is a view.
        merged = np.empty((2, 5, 3, 6), dtype).swapaxes(1, 2)
        for i, (g, w) in enumerate(zip(got, want)):
            strides = merged.strides if i < 2 else w.strides
            assert g.dtype == w.dtype and g.strides == strides, i
            assert g.tobytes() == w.tobytes(), i
        assert got[1].tobytes() == got[0].tobytes()
        if name == "fully-masked-rows":
            assert not got[0][0, 1, 2].any() and not got[0][1, :, 4].any()
        if name == "nan-row":
            assert not got[0][1, 2, 3].any() and np.isfinite(got[5]).all()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_query_encoder_model_gradients_match_oracle_bytes(
        self, small_triplets, small_vocab, dtype, monkeypatch
    ):
        cfg = tiny_config(
            len(small_vocab),
            use_query_encoder=True,
            dropout=0.1,
        )
        inp = prepare_input(small_triplets[0], small_vocab, cfg)

        def run():
            model = SummModel(cfg, seed=3, dtype=dtype)
            # Off their init, so layer norms have gains other than 1.
            noise = np.random.default_rng(5)
            for p in model.params.values():
                p.values += 0.1 * noise.standard_normal(p.shape).astype(dtype)
            loss, _ = model.loss_sum(inp, rng=np.random.default_rng(4))
            backward(loss)
            return loss.values, {name: p.grad for name, p in model.params.items()}

        loss, grads = run()
        # The reference graph: the plain softmax and first-gradient store,
        # and attention as its matmul -> scale -> softmax -> matmul chain.
        # The two graphs differ in node count, so what is compared is the
        # loss and every parameter gradient.
        monkeypatch.setattr(ad, "_accumulate", oracle_accumulate)
        monkeypatch.setattr(ad, "softmax", oracle_softmax)
        monkeypatch.setattr(ad, "attention", oracle_attention)
        want_loss, want_grads = run()
        assert loss.tobytes() == want_loss.tobytes()
        assert grads.keys() == want_grads.keys()
        for name, g in grads.items():
            w = want_grads[name]
            assert g.dtype == w.dtype and g.strides == w.strides, name
            assert g.tobytes() == w.tobytes(), name


def per_slice_attention(q, k, v, scale, mask):
    """``softmax(scale * q @ kᵀ, mask) @ v`` in numpy, one slice of the
    first axis at a time, as the forward ran before one incremental step
    was computed as a block: the oracle of the one-query paths.  ``k`` and
    ``v`` with a size-1 first axis are shared by every slice."""
    lead = q.shape[:-2]
    blocked = ~np.broadcast_to(mask, (*lead, q.shape[-2], k.shape[-2]))
    out = np.empty((*lead, q.shape[-2], v.shape[-1]), np.result_type(q, k, v))
    for i in range(lead[0]):
        k_i, v_i = (x[i if x.shape[0] > 1 else 0] for x in (k, v))
        scores = np.matmul(q[i], k_i.swapaxes(-1, -2))
        scores *= scale
        np.copyto(scores, -np.inf, where=blocked[i])
        out[i] = np.matmul(ad._softmax_inplace(scores), v_i)
    return out


class TestOneQueryAttention:
    """An incremental decoding step attends with one query per hypothesis
    (Tq == 1).  Attention computes the whole batch's scores as one block,
    byte-equal to the slice loop.  Over K/V that the batch shares, as the
    decoder memory is, the batch's queries are the rows of one GEMM per
    head instead, which changes the summation order."""

    H, TK, DK, DV = 3, 40, 8, 6

    def operands(self, dtype, batch, shared):
        rng = np.random.default_rng(batch + 10 * shared)
        kv_batch = 1 if shared else batch
        q = rng.standard_normal((batch, self.H, 1, self.DK)).astype(dtype)
        k = rng.standard_normal((kv_batch, self.H, self.TK, self.DK)).astype(dtype)
        v = rng.standard_normal((kv_batch, self.H, self.TK, self.DV)).astype(dtype)
        mask = rng.random((kv_batch, 1, 1, self.TK)) > 0.3
        mask[..., 0] = True
        return q, k, v, mask

    def attend(self, q, k, v, mask, monkeypatch):
        """The output built with and without a graph, and the queries each
        softmax block was computed from."""
        blocks = []

        def spy(q_block, *rest):
            blocks.append(q_block.shape)
            return probs(q_block, *rest)

        probs = ad._attention_probs
        monkeypatch.setattr(ad, "_attention_probs", spy)
        dtype = q.dtype
        with_graph = ad.attention(ad.parameter(q, dtype), ad.tensor(k, dtype), ad.tensor(v, dtype),
                                  0.5, mask)
        with ad.no_grad():
            const = ad.attention(*(ad.tensor(x, dtype) for x in (q, k, v)), 0.5, mask)
        assert with_graph.values.tobytes() == const.values.tobytes()
        batch = q.shape[0]
        # The heads-inside layout of every attention output.
        layout = np.empty((batch, 1, self.H, self.DV), dtype).swapaxes(1, 2)
        assert const.values.strides == layout.strides
        return const.values, blocks

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("batch", [1, 4, 15])
    def test_a_step_over_per_row_keys_equals_the_slice_loop_bytes(self, dtype, batch, monkeypatch):
        q, k, v, mask = self.operands(dtype, batch, shared=False)
        got, blocks = self.attend(q, k, v, mask, monkeypatch)
        want = per_slice_attention(q, k, v, 0.5, mask)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert blocks == [q.shape] * 2  # one block per call

    @pytest.mark.parametrize("dtype, atol", [(np.float64, 1e-12), (np.float32, 1e-6)])
    @pytest.mark.parametrize("batch", [4, 15])
    def test_a_step_over_shared_keys_folds_within_tolerance(self, dtype, atol, batch, monkeypatch):
        q, k, v, mask = self.operands(dtype, batch, shared=True)
        got, blocks = self.attend(q, k, v, mask, monkeypatch)
        want = per_slice_attention(q, k, v, 0.5, mask)
        assert got.dtype == want.dtype
        np.testing.assert_allclose(got, want, rtol=0, atol=atol)
        assert blocks == [(self.H, batch, self.DK)] * 2  # heads × (queries as rows)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_one_query_over_shared_keys_is_not_folded(self, dtype, monkeypatch):
        q, k, v, mask = self.operands(dtype, 1, shared=True)
        got, blocks = self.attend(q, k, v, mask, monkeypatch)
        assert got.tobytes() == per_slice_attention(q, k, v, 0.5, mask).tobytes()
        assert blocks == [q.shape] * 2

    def test_a_mask_per_row_is_not_folded(self, monkeypatch):
        q, k, v, _ = self.operands(np.float64, 4, shared=True)
        mask = np.random.default_rng(3).random((4, 1, 1, self.TK)) > 0.3
        mask[..., 0] = True
        got, blocks = self.attend(q, k, v, mask, monkeypatch)
        assert got.tobytes() == per_slice_attention(q, k, v, 0.5, mask).tobytes()
        assert blocks == [q.shape] * 2


class TestDropoutDraws:
    """``_draw_keep`` keeps an element iff its 32-bit draw is at least
    ``round(rate * 2**32)``, the draws being the halves of the raw 64-bit
    outputs, and packs the mask to one bit an element."""

    def test_keep_rate_is_within_5_sigma_over_2_to_the_20_draws(self):
        size, rate = 2**20, 0.1
        keep = ad._draw_keep(np.random.default_rng(23), (size,), rate)
        kept = int(np.unpackbits(keep, count=size).sum())
        sigma = (size * rate * (1.0 - rate)) ** 0.5  # 307
        assert abs(kept - size * (1.0 - rate)) <= 5 * sigma, kept

    @pytest.mark.parametrize("shape", [(1,), (7,), (3, 5, 7), (2, 8, 16), (4, 0, 3)])
    @pytest.mark.parametrize("rate", [0.1, 0.5, 0.9])
    def test_mask_equals_the_low_then_high_half_reference(self, shape, rate):
        """Also for sizes that are odd, not a multiple of 8, or 0: the
        packed mask holds one bit an element and unpacks to the shape."""
        keep = ad._draw_keep(np.random.default_rng(24), shape, rate)
        want = oracle_keep(np.random.default_rng(24), shape, rate)
        size = int(np.prod(shape))
        assert keep.dtype == np.uint8 and keep.shape == (-(-size // 8),)
        assert np.array_equal(np.unpackbits(keep, count=size).reshape(shape), want)
        x = np.arange(1.0, size + 1, dtype=np.float32).reshape(shape)
        scale = np.float32(1.0) / np.float32(1.0 - rate)
        assert ad._drop(x, keep, rate).tobytes() == (x * want * scale).tobytes()

    def test_a_draw_equal_to_the_threshold_is_kept(self):
        raw = int(np.random.default_rng(29).bit_generator.random_raw(1)[0])
        low, high = raw & 0xFFFFFFFF, raw >> 32
        keep = ad._draw_keep(np.random.default_rng(29), (2,), low / 2**32)
        assert np.unpackbits(keep, count=2).tolist() == [1, int(high >= low)]

    def test_the_generator_advances_by_one_raw_output_per_two_elements(self):
        rng, ref = np.random.default_rng(25), np.random.default_rng(25)
        ad._draw_keep(rng, (3, 5, 7), 0.3)
        ref.bit_generator.random_raw(53)
        assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_a_rate_next_to_1_drops_everything_without_overflow(self, dtype):
        a = ad.parameter(np.random.default_rng(26).standard_normal((5, 9)), dtype)
        with np.errstate(all="raise"):
            out = ad.dropout(a, 1.0 - 2.0**-40, np.random.default_rng(27))
            backward(ad.tsum(out))
        assert out.dtype == dtype and not out.values.any() and not a.grad.any()


# --- oracles for the fused sub-layer primitives -----------------------------


def oracle_keep(rng, shape, rate):
    """The keep mask of the draw rule, built arithmetically as bool: each
    raw 64-bit output gives two 32-bit draws, its low half first, and an
    element is kept iff its draw is at least ``round(rate * 2**32)``."""
    size = int(np.prod(shape))
    raw = rng.bit_generator.random_raw((size + 1) // 2)
    draws = np.stack([raw & 0xFFFFFFFF, raw >> 32], axis=-1).reshape(-1)[:size]
    return (draws >= round(rate * 2**32)).reshape(shape)


def oracle_dropout(a, rate, rng):
    """Dropout as first written, keeping its float mask."""
    if rng is None or rate == 0.0:
        return a
    keep = oracle_keep(rng, a.shape, rate).astype(a.values.dtype) / (1.0 - rate)
    return ad._node(a.values * keep, (a,), lambda g: ad._accumulate(a, g * keep))


def oracle_layer_norm(a, gain, bias):
    """Layer norm as first written."""
    dim = a.shape[-1]
    x = a.values
    xhat = x - x.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt((xhat**2).mean(axis=-1, keepdims=True) + ad.LAYER_NORM_EPS)
    xhat *= inv

    def bw(g):
        dxhat = g * gain.values
        dx = inv * (
            dxhat
            - dxhat.mean(axis=-1, keepdims=True)
            - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
        )
        ad._accumulate(a, dx)
        ad._accumulate(gain, (g * xhat).reshape(-1, dim).sum(axis=0))
        ad._accumulate(bias, g.reshape(-1, dim).sum(axis=0))

    return ad._node(xhat * gain.values + bias.values, (a, gain, bias), bw)


FUSED_LINEAR = ad.linear


def oracle_linear(x, weight, bias=None):
    """A projection as the chain: parts joined by a ``concat`` node first,
    which the graph keeps, then ``linear``."""
    if not isinstance(x, ad.Tensor):
        x = ad.concat(list(x), axis=-1)
    return FUSED_LINEAR(x, weight, bias)


def oracle_add_norm(x, y, gain, bias, rate, rng):
    """The residual join as the chain ``add_norm`` replaced, an output
    projection ``y = (source, w, b)`` a ``linear`` node of its own."""
    z = y if isinstance(y, ad.Tensor) else oracle_linear(*y)
    return oracle_layer_norm(ad.add(x, oracle_dropout(z, rate, rng)), gain, bias)


def oracle_feed_forward(x, w1, b1, w2, b2, gain, bias, rate, rng):
    """The FFN sub-layer as the chain ``feed_forward`` replaced: the hidden
    layer as ``linear -> relu -> dropout`` nodes, kept whole, and the join
    ``ad.add_norm`` owning ``w2`` (patch that to ``oracle_add_norm`` for
    the join's chain too)."""
    hidden = oracle_dropout(ad.relu(ad.linear(x, w1, b1)), rate, rng)
    return ad.add_norm(x, (hidden, w2, b2), gain, bias, rate, rng)


def oracle_broadcast_to(a, shape):
    """The broadcast as ``broadcast_to`` replaced it: a product with ones
    over every axis but the last."""
    return ad.mul(ad.tensor(np.ones((*shape[:-1], 1)), dtype=a.dtype), a)


# "dead-units": 5 of the 16 hidden units are below 0 on every row.
SUB_LAYER_CASES = ("no-rng", "rng", "dead-units", "rate-0")


def _run_sub_layer(feed_forward, name, dtype, released_grads):
    """The FFN sub-layer with its join, as the model calls it, over an
    ``x`` that another node also reads; that node's gradient reaches ``x``
    first, so the order in which the sub-layer adds its two terms shows.
    The two draws come from one generator, hidden first.  Returns the
    output, the output built under ``no_grad``, the gradient of the ``x``
    node and every leaf gradient."""
    rng = np.random.default_rng(SUB_LAYER_CASES.index(name))
    shapes = {"x": (2, 5, 6), "w1": (6, 16), "b1": (16,), "w2": (16, 6), "b2": (6,)}
    leaves = {k: ad.parameter(rng.standard_normal(shape), dtype) for k, shape in shapes.items()}
    leaves["gain"] = ad.parameter(1.0 + 0.3 * rng.standard_normal(6), dtype)
    leaves["bias"] = ad.parameter(rng.standard_normal(6), dtype)
    if name == "dead-units":
        leaves["b1"].values[:5] = -50.0
    rate = 0.0 if name == "rate-0" else 0.3

    def forward(x):
        drop = None if name == "no-rng" else np.random.default_rng(11)
        params = (leaves[k] for k in ("w1", "b1", "w2", "b2", "gain", "bias"))
        return feed_forward(x, *params, rate, drop)

    x = ad.mul(leaves["x"], ad.tensor(1.0, dtype))
    out = forward(x)
    with ad.no_grad():
        const = forward(x)
    assert not const.requires_grad and const.parents == ()
    if name == "dead-units":
        hidden = x.values @ leaves["w1"].values + leaves["b1"].values
        assert (hidden[..., :5] < 0).all() and (hidden[..., 5:] > 0).any()
    w = np.random.default_rng(99).standard_normal(out.shape).astype(dtype)
    other = ad.mul(x, ad.tensor(w[..., ::-1].copy(), dtype))
    # add's backward runs first, then other's, then the sub-layer's.
    backward(ad.tsum(ad.mul(ad.add(other, out), ad.tensor(w, dtype))))
    return [out.values, const.values, released_grads[x], *(leaf.grad for leaf in leaves.values())]


def _run_attention_join(attention, add_norm, name, dtype, released_grads):
    """Attention, the merge of its heads and the join that owns ``wo``, as
    ``MultiHeadAttention.context`` and ``LocalLayer`` wire them: (2, 3, 5, 4)
    heads over 7 keys, merged to (2, 5, 12).  Returns the output, the output
    built under ``no_grad``, the gradients of the merged context and of the
    ``x`` node and every leaf gradient."""
    rng = np.random.default_rng(SUB_LAYER_CASES.index(name))
    shapes = {
        "q": (2, 3, 5, 4), "k": (2, 3, 7, 4), "v": (2, 3, 7, 4),
        "x": (2, 5, 12), "wo": (12, 12), "bo": (12,), "gain": (12,), "bias": (12,),
    }
    leaves = {k: ad.parameter(rng.standard_normal(shape), dtype) for k, shape in shapes.items()}
    one = ad.tensor(1.0, dtype)
    q, k, v, x = (ad.mul(leaves[n], one) for n in "qkvx")

    def forward():
        drop = None if name == "no-rng" else np.random.default_rng(11)
        heads = ad.swapaxes(attention(q, k, v, 0.5), -2, -3)
        ctx = ad.reshape(heads, (2, 5, 12))
        proj = (ctx, leaves["wo"], leaves["bo"])
        return ctx, add_norm(x, proj, leaves["gain"], leaves["bias"], 0.3, drop)

    ctx, out = forward()
    with ad.no_grad():
        const = forward()[1]
    w = np.random.default_rng(99).standard_normal(out.shape).astype(dtype)
    backward(ad.add(ad.tsum(ad.mul(out, ad.tensor(w, dtype))), ad.tsum(q)))
    return [
        out.values,
        const.values,
        released_grads[ctx],
        released_grads[x],
        *(leaf.grad for leaf in leaves.values()),
    ]


# name -> (queries' source shape, memory shape or None, heads, layers,
# padded key positions).
PROJECTED_CASES = {
    "padded-documents": ((3, 5, 12), None, 3, 1, (np.s_[0, 4], np.s_[2])),
    "document-vectors": ((1, 8, 128), None, 8, 1, (np.s_[0, 7],)),
    "shared-memory": ((4, 5, 12), (1, 7, 12), 3, 2, (np.s_[0, 5:],)),
}


def _run_projected_attention(attention, add_norm, name, rng_on, dtype, released_grads):
    """Attention that computes its own projections, joined by the join
    that owns ``wo``, as the model wires it.  "padded-documents": local
    self-attention over 3 documents of 5 tokens, one token and one whole
    document padded.  "document-vectors": inter-document attention over
    one sequence of 8 vectors, one padded, in 8 heads.  "shared-memory":
    two stacked cross-attentions, as two decoder layers, from 4 rows of 5
    queries over one (1, 7, 12) memory with 2 padded rows, so the memory's
    keys and values are shared by every row and it takes gradients from
    both layers.  The sources are nodes that another node also reads, so
    the order in which each takes its terms shows.  Returns the output,
    the output built under ``no_grad``, the gradients of the source nodes
    and every leaf gradient."""
    x_shape, m_shape, heads, layers, padded = PROJECTED_CASES[name]
    rng = np.random.default_rng(list(PROJECTED_CASES).index(name))
    d = x_shape[-1]
    shapes = {"x": x_shape, "m": m_shape or (1, 1, d)}
    for i in range(layers):
        shapes |= {f"wq{i}": (d, d), f"bq{i}": (d,), f"wk{i}": (d, d), f"wv{i}": (d, d)}
        shapes |= {f"bv{i}": (d,), f"wo{i}": (d, d), f"bo{i}": (d,), f"b{i}": (d,), f"g{i}": (d,)}
    leaves = {k: ad.parameter(rng.standard_normal(shape), dtype) for k, shape in shapes.items()}
    one = ad.tensor(1.0, dtype)
    x, m = ad.mul(leaves["x"], one), ad.mul(leaves["m"], one)
    keep = np.ones((m_shape or x_shape)[:2], bool)
    for where in padded:
        keep[where] = False
    mask = keep[:, None, None, :]

    def forward():
        drop = np.random.default_rng(11) if rng_on else None
        h = x
        for i in range(layers):
            L = {k[:-1]: t for k, t in leaves.items() if k[-1] == str(i)}
            kv = m if m_shape else h
            qkv = ((h, L["wq"], L["bq"]), (kv, L["wk"], None), (kv, L["wv"], L["bv"]))
            ctx = ad.reshape(ad.swapaxes(attention(*qkv, 0.5, mask, heads), -2, -3), h.shape)
            h = add_norm(h, (ctx, L["wo"], L["bo"]), L["g"], L["b"], 0.3, drop)
        return h

    out = forward()
    with ad.no_grad():
        const = forward()
    w = np.random.default_rng(99).standard_normal(out.shape).astype(dtype)
    others = [ad.mul(t, ad.tensor(np.full(t.shape, 0.5), dtype)) for t in (x, m)]
    backward(ad.add(ad.tsum(ad.mul(out, ad.tensor(w, dtype))), ad.add(*map(ad.tsum, others))))
    return [out.values, const.values, released_grads[x], released_grads[m]] + [
        leaf.grad for leaf in leaves.values()
    ]


def _run_broadcast(broadcast_to, dtype, released_grads):
    """A (3, 4) vector per document broadcast over 5 tokens and read twice,
    as ``GlobalLayer`` and the ordering branch read theirs: by a concat and
    by a product.  Returns the broadcast values, the gradient of the
    reshaped vector and the leaf's."""
    rng = np.random.default_rng(21)
    leaf = ad.parameter(rng.standard_normal((3, 4)), dtype)
    shaped = ad.reshape(ad.mul(leaf, ad.tensor(1.0, dtype)), (3, 1, 4))
    wide = broadcast_to(shaped, (3, 5, 4))
    both = ad.concat([ad.tensor(rng.standard_normal((3, 5, 2)), dtype), wide], axis=-1)
    w1, w2 = (ad.tensor(rng.standard_normal(s), dtype) for s in ((3, 5, 6), (3, 5, 4)))
    backward(ad.add(ad.tsum(ad.mul(both, w1)), ad.tsum(ad.mul(wide, w2))))
    return wide.values, released_grads[shaped], leaf.grad


def _run_dropout(dropout, dtype, released_grads):
    rng = np.random.default_rng(12)
    leaf = ad.parameter(rng.standard_normal((3, 4, 5)), dtype)
    a = ad.mul(leaf, ad.tensor(1.0, dtype))
    out = dropout(a, 0.4, np.random.default_rng(13))
    w = rng.standard_normal(out.shape).astype(dtype)
    backward(ad.tsum(ad.mul(out, ad.tensor(w, dtype))))
    return out.values, released_grads[a], leaf.grad


def _assert_same_bytes(got, want):
    assert len(got) == len(want)
    for i, (g, w) in enumerate(zip(got, want)):
        assert g.dtype == w.dtype and g.strides == w.strides, i
        assert g.tobytes() == w.tobytes(), i


class TestFusedSubLayerOracles:
    """``feed_forward``, ``add_norm`` and the packed-mask ``dropout`` must give
    the values and gradients of the chains they replaced, with the same
    draws, bytes and layout."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("name", SUB_LAYER_CASES)
    @pytest.mark.parametrize("join", ["add_norm", "chain"])
    def test_ffn_sub_layer_matches_the_chain_bytes(
        self, join, name, dtype, monkeypatch, released_grads
    ):
        """Against the hidden layer's chain joined by ``ad.add_norm`` over
        the projection ``(hidden, w2, b2)``, and against the join's chain
        too."""
        got = _run_sub_layer(ad.feed_forward, name, dtype, released_grads)
        monkeypatch.setattr(ad, "_accumulate", oracle_accumulate)
        if join == "chain":
            monkeypatch.setattr(ad, "add_norm", oracle_add_norm)
        want = _run_sub_layer(oracle_feed_forward, name, dtype, released_grads)
        _assert_same_bytes(got, want)
        if name == "dead-units":
            assert not got[5][:5].any()  # b1's gradient is 0 at the dead units

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("name", SUB_LAYER_CASES[:2])
    def test_attention_join_matches_the_chain_bytes(
        self, name, dtype, monkeypatch, released_grads
    ):
        got = _run_attention_join(ad.attention, ad.add_norm, name, dtype, released_grads)
        monkeypatch.setattr(ad, "_accumulate", oracle_accumulate)
        want = _run_attention_join(oracle_attention, oracle_add_norm, name, dtype, released_grads)
        _assert_same_bytes(got, want)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("rng_on", [False, True])
    @pytest.mark.parametrize("name", PROJECTED_CASES)
    def test_attention_projections_match_the_chain_bytes(
        self, name, rng_on, dtype, monkeypatch, released_grads
    ):
        """Against each projection as a ``linear`` node split into heads,
        q, k and v then read by the attention chain."""

        def run(attention, add_norm):
            args = (name, rng_on, dtype, released_grads)
            return _run_projected_attention(attention, add_norm, *args)

        got = run(ad.attention, ad.add_norm)
        monkeypatch.setattr(ad, "_accumulate", oracle_accumulate)
        _assert_same_bytes(got, run(oracle_attention, oracle_add_norm))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("rng_on", [False, True])
    def test_projection_over_parts_matches_the_concat_bytes(
        self, rng_on, dtype, monkeypatch, released_grads
    ):
        """A join's projection and a ``linear`` over two parts, as the global
        layer's fold and the hierarchical merge read them, against a concat
        node that both read; one part is a zero-copy broadcast."""

        def run(linear, add_norm):
            rng = np.random.default_rng(23)
            leaves = {
                "x": (3, 5, 4), "v": (3, 4), "w": (8, 4), "b": (4,), "g": (4,), "beta": (4,),
                "wm": (8, 4), "bm": (4,),
            }
            leaves = {k: ad.parameter(rng.standard_normal(s), dtype) for k, s in leaves.items()}
            x = ad.mul(leaves["x"], ad.tensor(1.0, dtype))
            vec = ad.broadcast_to(ad.reshape(leaves["v"], (3, 1, 4)), (3, 5, 4))
            drop = np.random.default_rng(5) if rng_on else None
            proj = ([x, vec], leaves["w"], leaves["b"])
            folded = add_norm(x, proj, leaves["g"], leaves["beta"], 0.3, drop)
            merged = linear([x, folded], leaves["wm"], leaves["bm"])
            w = rng.standard_normal(merged.shape).astype(dtype)
            backward(ad.tsum(ad.mul(merged, ad.tensor(w, dtype))))
            return [merged.values, released_grads[x], *(leaf.grad for leaf in leaves.values())]

        got = run(ad.linear, ad.add_norm)
        monkeypatch.setattr(ad, "_accumulate", oracle_accumulate)
        monkeypatch.setattr(ad, "linear", oracle_linear)
        _assert_same_bytes(got, run(oracle_linear, oracle_add_norm))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_broadcast_matches_the_ones_product_bytes(self, dtype, monkeypatch, released_grads):
        got = _run_broadcast(ad.broadcast_to, dtype, released_grads)
        monkeypatch.setattr(ad, "_accumulate", oracle_accumulate)
        want = _run_broadcast(oracle_broadcast_to, dtype, released_grads)
        assert got[0].strides[1] == 0 and got[0].dtype == want[0].dtype  # a view, no copy
        assert got[0].tobytes() == want[0].tobytes()
        _assert_same_bytes(got[1:], want[1:])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_dropout_matches_the_float_mask_bytes(self, dtype, monkeypatch, released_grads):
        got = _run_dropout(ad.dropout, dtype, released_grads)
        monkeypatch.setattr(ad, "_accumulate", oracle_accumulate)
        want = _run_dropout(oracle_dropout, dtype, released_grads)
        _assert_same_bytes(got, want)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_layer_norm_matches_its_first_form_bytes(self, dtype, monkeypatch, released_grads):
        def run(layer_norm):
            rng = np.random.default_rng(14)
            leaf = ad.parameter(rng.standard_normal((3, 4, 6)), dtype)
            gain = ad.parameter(1.0 + rng.standard_normal(6), dtype)
            bias = ad.parameter(rng.standard_normal(6), dtype)
            a = ad.swapaxes(ad.swapaxes(leaf, 0, 1), 0, 1)
            out = layer_norm(a, gain, bias)
            w = rng.standard_normal(out.shape).astype(dtype)
            backward(ad.tsum(ad.mul(out, ad.tensor(w, dtype))))
            return out.values, released_grads[a], leaf.grad, gain.grad, bias.grad

        got = run(ad.layer_norm)
        monkeypatch.setattr(ad, "_accumulate", oracle_accumulate)
        _assert_same_bytes(got, run(oracle_layer_norm))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("dataset", ["qmdscnn", "wikisum"])
    @pytest.mark.parametrize("decoder_layers", [1, 2])
    def test_model_gradients_match_the_chains_bytes(
        self, small_triplets, small_vocab, decoder_layers, dataset, dtype, monkeypatch
    ):
        """Every fused node against its chain at once, with two decoder
        layers too, whose cross-attentions both read the memory."""
        cfg = tiny_config(
            len(small_vocab), dropout=0.2, decoder_layers=decoder_layers, **joint_flags(dataset)
        )
        inp = prepare_input(small_triplets[1], small_vocab, cfg)

        def run():
            model = SummModel(cfg, seed=5, dtype=dtype)
            noise = np.random.default_rng(6)
            for p in model.params.values():
                p.values += 0.1 * noise.standard_normal(p.shape).astype(dtype)
            loss, _ = model.loss_sum(inp, rng=np.random.default_rng(7))
            backward(loss)
            return [loss.values, *(p.grad for p in model.params.values())]

        got = run()
        monkeypatch.setattr(ad, "_accumulate", oracle_accumulate)
        monkeypatch.setattr(ad, "dropout", oracle_dropout)
        monkeypatch.setattr(ad, "add_norm", oracle_add_norm)
        monkeypatch.setattr(ad, "feed_forward", oracle_feed_forward)
        monkeypatch.setattr(ad, "broadcast_to", oracle_broadcast_to)
        monkeypatch.setattr(ad, "linear", oracle_linear)
        monkeypatch.setattr(ad, "attention", oracle_attention)
        _assert_same_bytes(got, run())


def test_fused_shape_errors_name_the_primitive():
    a = ad.tensor(np.zeros((2, 3)))
    ones, zeros = ad.tensor(np.ones(3)), ad.tensor(np.zeros(3))
    with pytest.raises(ShapeError, match="add_norm"):  # the join does not broadcast
        ad.add_norm(a, ad.tensor(np.zeros((1, 3))), ones, zeros, 0.1, None)
    with pytest.raises(ShapeError, match="add_norm"):
        ad.add_norm(a, a, ad.tensor(np.ones(4)), zeros, 0.1, None)
    w = ad.tensor(np.zeros((4, 3)))
    with pytest.raises(ShapeError, match="add_norm"):  # the projection reads 4 features, y has 3
        ad.add_norm(a, (a, w, zeros), ones, zeros, 0.1, None)
    with pytest.raises(ShapeError, match="add_norm"):  # its bias is not its output width
        proj = (ad.tensor(np.zeros((2, 4))), w, ad.tensor(np.ones(2)))
        ad.add_norm(a, proj, ones, zeros, 0.1, None)
    w1, b1, w2 = ad.tensor(np.zeros((3, 5))), ad.tensor(np.zeros(5)), ad.tensor(np.zeros((5, 3)))
    with pytest.raises(ShapeError, match="feed_forward"):  # b1 has 4 hidden units, w1 makes 5
        ad.feed_forward(a, w1, ad.tensor(np.zeros(4)), w2, zeros, ones, zeros, 0.1, None)
    with pytest.raises(ShapeError, match="feed_forward"):  # w1 reads 4 features, x has 3
        ad.feed_forward(a, ad.tensor(np.zeros((4, 5))), b1, w2, zeros, ones, zeros, 0.1, None)
    with pytest.raises(ShapeError, match="feed_forward"):  # w2 reads 4 hidden units, w1 makes 5
        ad.feed_forward(a, w1, b1, ad.tensor(np.zeros((4, 3))), zeros, ones, zeros, 0.1, None)
    with pytest.raises(ShapeError, match="feed_forward"):  # w2 does not map back to x's width
        ad.feed_forward(a, w1, b1, ad.tensor(np.zeros((5, 4))), zeros, ones, zeros, 0.1, None)
    with pytest.raises(ShapeError, match="feed_forward"):  # b2 is not x's width
        ad.feed_forward(a, w1, b1, w2, ad.tensor(np.zeros(4)), ones, zeros, 0.1, None)
    with pytest.raises(ShapeError, match="feed_forward"):  # the join's gain is not x's width
        ad.feed_forward(a, w1, b1, w2, zeros, ad.tensor(np.ones(4)), zeros, 0.1, None)
    with pytest.raises(ShapeError, match="broadcast_to"):
        ad.broadcast_to(a, (2, 4))


class TestFusedSubLayerMemory:
    """Each fused node keeps what its backward reads and nothing else."""

    N, D, H = 64, 16, 64

    def test_feed_forward_keeps_no_float_array_of_the_hidden_width(self):
        """The node keeps its output and the two masks as packed bits, so
        of the hidden width (256) only one bit a unit, and no normalised
        sum.  The chain kept 4 float arrays of that width (pre-ReLU, ReLU,
        mask, dropped), and a node that returned the hidden kept one."""
        rng = np.random.default_rng(15)
        n, d, width = self.N, self.D, 256
        shapes = ((n, d), (d, width), (width,), (width, d), (d,))
        x, w1, b1, w2, b2 = (ad.parameter(rng.standard_normal(s)) for s in shapes)
        gain, bias = ad.parameter(np.ones(d)), ad.parameter(np.zeros(d))
        drop = np.random.default_rng(16)
        out, _, held = _traced(
            lambda: ad.feed_forward(x, w1, b1, w2, b2, gain, bias, 0.3, drop)
        )
        assert out.requires_grad
        kept = 4 * n * d + (n * d + n * width) // 8  # output, both masks
        # One float array of the hidden width alone would be 4 * n * width.
        assert held <= kept + 4096 < 4 * n * width, (held, kept)

    @pytest.mark.parametrize("width", [None, H])
    def test_add_norm_keeps_its_output_and_a_bit_mask(self, width):
        """No normalised sum or per-row scale either, which backward
        rebuilds; also with an output projection from ``width`` features,
        whose output the node never keeps."""
        rng = np.random.default_rng(17)
        x = ad.parameter(rng.standard_normal((self.N, self.D)))
        y = ad.parameter(rng.standard_normal((self.N, width or self.D)))
        if width:
            w = ad.parameter(rng.standard_normal((width, self.D)))
            y = (y, w, ad.parameter(np.zeros(self.D)))
        gain, bias = ad.parameter(np.ones(self.D)), ad.parameter(np.zeros(self.D))
        drop = np.random.default_rng(18)
        out, _, held = _traced(lambda: ad.add_norm(x, y, gain, bias, 0.3, drop))
        assert out.requires_grad
        size = self.N * self.D
        kept = size // 8 + out.values.nbytes  # mask, output
        # The chain keeps its mask, dropped y, sum, xhat and output as
        # floats, and with a projection its output too.
        assert held <= kept + 4096 < (5 + bool(width)) * 4 * size, (held, kept)

    def test_attention_keeps_its_output_and_the_merge_of_heads_allocates_nothing(self):
        """The node keeps no scores scratch, and ``MultiHeadAttention``'s
        merge of heads is a view of the node's output."""
        rng = np.random.default_rng(19)
        q, k, v = (ad.parameter(rng.standard_normal((4, 8, 50, 16))) for _ in range(3))
        mask = np.ones((4, 1, 1, 50), bool)
        mask[:, ..., 40:] = False
        out, _, held = _traced(lambda: ad.attention(q, k, v, 0.25, mask))
        assert out.requires_grad
        # A (8, 50, 50) scores buffer kept for backward would add 80,000 bytes.
        assert held <= out.values.nbytes + 4096, (held, out.values.nbytes)
        merged, peak, _ = _traced(lambda: ad.reshape(ad.swapaxes(out, -2, -3), (4, 50, 128)))
        assert np.shares_memory(merged.values, out.values) and merged.values.flags.c_contiguous
        # Two Tensor objects and their closures, and no array data: a copy
        # would take the output's 102,400 bytes.
        assert peak <= 4096 < out.values.nbytes, peak

    @pytest.mark.parametrize("memory", [False, True])
    def test_attention_keeps_no_projected_q_k_or_v(self, memory):
        """With projections in a graph the node keeps the sources and the
        weights, which are the caller's, and its output: the (4, 50, 128)
        q, k and v it computed are freed once the forward has read them,
        also where a (1, 50, 128) memory's keys and values pass through
        relays."""
        rng = np.random.default_rng(20)
        x, m = (ad.parameter(rng.standard_normal((n, 50, 128))) for n in (4, 1))
        w = [ad.parameter(rng.standard_normal((128, 128))) for _ in range(3)]
        b = [ad.parameter(rng.standard_normal(128)) for _ in range(2)]
        kv = m if memory else x
        out, _, held = _traced(
            lambda: ad.attention((x, w[0], b[0]), (kv, w[1], None), (kv, w[2], b[1]), 0.25, None, 8)
        )
        assert out.requires_grad and len(out.parents) == 8 and out.values.nbytes == x.values.nbytes
        # One of the projected q, k and v alone would be the output's size.
        assert held <= out.values.nbytes + 4096, (held, out.values.nbytes)

    def test_projection_over_parts_keeps_no_concat(self):
        """``linear`` and ``add_norm`` read two (N, D) parts as one (N, 2D)
        input, which neither node keeps."""
        rng = np.random.default_rng(21)
        n, d = self.N, self.D
        a, c = (ad.parameter(rng.standard_normal((n, d))) for _ in range(2))
        w, bias = ad.parameter(rng.standard_normal((2 * d, d))), ad.parameter(np.zeros(d))
        concat = 4 * n * 2 * d
        out, _, held = _traced(lambda: ad.linear([a, c], w, bias))
        assert out.requires_grad and out.parents[:2] == (a, c)
        assert held <= out.values.nbytes + 4096 < out.values.nbytes + concat, held
        gain = ad.parameter(np.ones(d))
        drop = np.random.default_rng(22)
        out, _, held = _traced(lambda: ad.add_norm(a, ([a, c], w, bias), gain, bias, 0.3, drop))
        kept = n * d // 8 + out.values.nbytes  # mask, output
        assert held <= kept + 4096 < kept + concat, (held, kept)

    def test_training_graph_bytes_per_input_token_are_pinned(self, small_triplets, small_vocab):
        """The graph of one training example (dropout on), by tracemalloc,
        per position of the (2, 24) document grid: 3,006 bytes with numpy
        2.4, bounded at 3,250 (8% over).  Keeping 1-byte masks again reads
        3,432, and keeping each join's normalised sum 3,647.  It was 4,120
        when each join kept its normalised sum, per-row scale and 1-byte
        mask, 5,544 when each attention kept its projected q, k and v and
        each projection over a concat kept the concat, 6,874 when the FFN
        node kept its hidden layer, 8,165 when each join's projection and
        each head merge had a node of its own, and 13,379 when each
        sub-layer and join was a chain."""
        cfg = tiny_config(len(small_vocab), d_model=32, ffn_hidden=128, heads=4, dropout=0.1)
        model = SummModel(cfg, seed=3)
        inp = prepare_input(small_triplets[0], small_vocab, cfg)
        (loss, _), _, held = _traced(lambda: model.loss_sum(inp, rng=np.random.default_rng(4)))
        assert loss.requires_grad and inp.doc_ids.shape == (2, 24)
        assert held / inp.doc_ids.size <= 3250, held / inp.doc_ids.size


def test_backward_leaves_no_two_gradients_sharing_memory(released_grads):
    """Reused subexpressions through every view-passing primitive: each
    node's gradient is its own array, laid out as ``np.zeros_like(values)``."""
    rng = np.random.default_rng(7)
    x, y, bias = rand(rng, 3, 4), rand(rng, 3, 4), rand(rng, 4)
    s = ad.add(x, y)  # both operands get add's upstream gradient
    t = ad.add(s, s)
    u = ad.mul(ad.add(t, bias), x)
    v = ad.swapaxes(ad.reshape(u, (4, 3)), 0, 1)  # non-contiguous values
    c = ad.concat([v, s, ad.reshape(x, (3, 4))], axis=0)
    top, rest = ad.split(c, [5, 4], axis=0)
    loss = ad.add(ad.tsum(ad.mul(top, top)), ad.tsum(ad.relu(rest)))
    tensors = ad._topo_order(loss)
    backward(loss)
    grads = [released_grads.get(a, a.grad) for a in tensors]
    assert not v.values.flags.c_contiguous
    for i, (a, ga) in enumerate(zip(tensors, grads)):
        ref = np.zeros_like(a.values)
        assert ga.dtype == ref.dtype and ga.strides == ref.strides
        for gb in grads[i + 1 :]:
            assert not np.shares_memory(ga, gb)


def test_backward_release_and_fused_attention_lower_peak_memory(
    small_triplets, small_vocab, monkeypatch
):
    """One training example's forward plus backward, traced by tracemalloc:
    releasing the graph during backward and recomputing attention's
    probabilities there must lower the peak to at most 0.6 of a run that
    keeps the whole graph and the matmul -> scale -> softmax -> matmul chain
    (measured 0.476 with numpy 2.4), with byte-identical parameter
    gradients."""
    cfg = tiny_config(len(small_vocab), dropout=0.1)
    inp = prepare_input(small_triplets[0], small_vocab, cfg)

    def run():
        model = SummModel(cfg, seed=3)
        tracemalloc.start()
        try:
            loss, _ = model.loss_sum(inp, rng=np.random.default_rng(4))
            backward(loss)
            del loss
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak, {name: p.grad for name, p in model.params.items()}

    peak, grads = run()
    monkeypatch.setattr(ad, "_release", lambda node: None)
    monkeypatch.setattr(ad, "attention", oracle_attention)
    kept_peak, kept_grads = run()
    assert peak <= 0.6 * kept_peak, (peak, kept_peak)
    for name, g in grads.items():
        w = kept_grads[name]
        assert g.dtype == w.dtype and g.strides == w.strides, name
        assert g.tobytes() == w.tobytes(), name


def _traced(fn):
    """``fn()``'s result, with the peak and the still-held bytes it
    allocated under tracemalloc."""
    tracemalloc.start()
    try:
        out = fn()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak, held


class TestAttentionMemory:
    def test_no_grad_call_allocates_less_than_one_probability_tensor(self):
        rng = np.random.default_rng(8)
        q, k, v = (ad.tensor(rng.standard_normal((8, 8, 200, 16))) for _ in range(3))
        mask = np.ones((8, 1, 1, 200), bool)
        mask[:, ..., 150:] = False
        with ad.no_grad():
            out, peak, _ = _traced(lambda: ad.attention(q, k, v, 0.25, mask))
        probs_bytes = 8 * 8 * 200 * 200 * np.dtype(np.float32).itemsize
        assert out.dtype == np.float32
        assert peak < probs_bytes, (peak, probs_bytes)

    def test_grad_mode_encode_holds_no_probabilities(
        self, small_triplets, small_vocab, monkeypatch
    ):
        """The graph of an encode holds less, by at least the bytes of every
        probability tensor, than the chain's graph, which keeps them."""
        cfg = tiny_config(len(small_vocab), local_layers=2)
        inp = prepare_input(small_triplets[0], small_vocab, cfg)
        model = SummModel(cfg, seed=3)
        probs = []

        def chain(q, k, v, scale, mask=None, heads=1):
            out = oracle_attention(q, k, v, scale, mask, heads)
            probs.append(out.parents[0].values.nbytes)
            return out

        enc, _, held = _traced(lambda: model.encode(inp))
        monkeypatch.setattr(ad, "attention", chain)
        enc_chain, _, held_chain = _traced(lambda: model.encode(inp))
        assert enc.memory.values.tobytes() == enc_chain.memory.values.tobytes()
        assert len(probs) == cfg.local_layers + cfg.global_layers
        assert held_chain - held >= sum(probs), (held, held_chain, probs)
