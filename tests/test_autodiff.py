import tracemalloc

import numpy as np
import pytest

import allg.autodiff as ad
from oracles import (
    adam_reference,
    finite_diff,
    naive_loss_adjacency,
    naive_loss_propagation,
    naive_matmul,
    rel_err,
)

FD_TOL = 1e-6


def _leaf_dict(tape, arrays):
    return {k: tape.var(v, requires_grad=True) for k, v in arrays.items()}


def _fd_check(build, arrays, tol=FD_TOL):
    """Compare backward grads of build(tape, leaves) against central FD."""
    def f(arrs):
        tape = ad.Tape()
        return build(tape, _leaf_dict(tape, arrs)).item()

    tape = ad.Tape()
    leaves = _leaf_dict(tape, arrays)
    tape.backward(build(tape, leaves))
    fd = finite_diff(f, arrays)
    worst = max(rel_err(leaves[k].grad, fd[k]) for k in arrays)
    assert worst < tol, f"finite-difference mismatch: {worst}"


class TestMatmul:
    def test_identity(self, rng):
        m = rng.normal(size=(3, 3))
        tape = ad.Tape()
        eye = tape.var(np.eye(3), requires_grad=True)
        mv = tape.var(m)
        out = ad.matmul(eye, mv)
        np.testing.assert_array_equal(out.value, np.eye(3) @ m)
        tape.backward(ad.frob_sq(out))
        # d||IM||^2/dI = 2 (IM) M^T
        np.testing.assert_allclose(eye.grad, 2 * m @ m.T, atol=1e-12)

    def test_against_naive_loops(self, rng):
        a, b = rng.normal(size=(3, 4)), rng.normal(size=(4, 2))
        tape = ad.Tape()
        out = ad.matmul(tape.var(a), tape.var(b))
        assert np.abs(out.value - naive_matmul(a, b)).max() < 1e-12

    def test_finite_difference(self, rng):
        arrays = {"a": rng.normal(size=(3, 4)), "b": rng.normal(size=(4, 2))}
        shift = rng.normal(size=(3, 2))
        _fd_check(lambda t, lv: ad.frob_sq(ad.add(ad.matmul(lv["a"], lv["b"]), t.var(shift))),
                  arrays)

    def test_shape_mismatch(self):
        tape = ad.Tape()
        with pytest.raises(ValueError, match="matmul"):
            ad.matmul(tape.var(np.ones((2, 3))), tape.var(np.ones((2, 3))))


class TestAffine:
    def test_zero_weight_gives_bias_columns(self):
        tape = ad.Tape()
        w = tape.var(np.zeros((2, 3)))
        x = tape.var(np.ones((3, 4)))
        b = tape.var(np.array([[1.5], [-2.0]]))
        out = ad.affine(w, x, b)
        np.testing.assert_array_equal(out.value, np.tile([[1.5], [-2.0]], (1, 4)))

    def test_small_case_matches_manual(self, rng):
        w, x, b = rng.normal(size=(2, 3)), rng.normal(size=(3, 3)), rng.normal(size=(2, 1))
        tape = ad.Tape()
        out = ad.affine(tape.var(w), tape.var(x), tape.var(b))
        expect = naive_matmul(w, x) + b  # bias broadcast across columns
        assert np.abs(out.value - expect).max() < 1e-12

    def test_finite_difference(self, rng):
        arrays = {"w": rng.normal(size=(2, 3)), "x": rng.normal(size=(3, 4)),
                  "b": rng.normal(size=(2, 1))}
        shift = rng.normal(size=(2, 4))
        _fd_check(lambda t, lv: ad.frob_sq(ad.add(ad.affine(lv["w"], lv["x"], lv["b"]),
                                                  t.var(shift))), arrays)

    def test_shape_mismatch(self):
        tape = ad.Tape()
        with pytest.raises(ValueError, match="affine"):
            ad.affine(tape.var(np.ones((2, 3))), tape.var(np.ones((3, 4))),
                      tape.var(np.ones((3, 1))))


class TestRelu:
    def test_values(self):
        tape = ad.Tape()
        out = ad.relu(tape.var(np.array([[-1.0, 0.0, 2.0]])))
        np.testing.assert_array_equal(out.value, [[0.0, 0.0, 2.0]])

    def test_gradient_mask_zero_at_zero(self):
        tape = ad.Tape()
        x = tape.var(np.array([[-1.0, 0.0, 2.0]]), requires_grad=True)
        summed = ad.matmul(ad.relu(x), ad.scale(tape.var(np.ones((3, 1))), 1.0))
        tape.backward(summed)
        np.testing.assert_array_equal(x.grad, [[0.0, 0.0, 1.0]])

    def test_finite_difference_away_from_kink(self, rng):
        x = rng.normal(size=(3, 4))
        x[np.abs(x) < 0.05] += 0.2
        shift = rng.normal(size=(3, 4))
        _fd_check(lambda t, lv: ad.frob_sq(ad.add(ad.relu(lv["x"]), t.var(shift))),
                  {"x": x})


class TestFrobSq:
    def test_zero(self):
        tape = ad.Tape()
        assert ad.frob_sq(tape.var(np.zeros((3, 2)))).item() == 0.0

    def test_arithmetic(self):
        tape = ad.Tape()
        assert ad.frob_sq(tape.var(np.array([[1.0, 2.0], [3.0, 4.0]]))).item() == 30.0

    def test_finite_difference(self, rng):
        _fd_check(lambda t, lv: ad.frob_sq(lv["x"]), {"x": rng.normal(size=(3, 4))})


class TestSupNormRows:
    def test_identity(self):
        tape = ad.Tape()
        assert ad.sup_norm_rows(tape.var(np.eye(3))).item() == 3.0

    def test_value_and_subgradient_with_tie(self):
        q = np.array([[1.0, -4.0], [2.0, 2.0]])
        tape = ad.Tape()
        qv = tape.var(q, requires_grad=True)
        out = ad.sup_norm_rows(qv)
        assert out.item() == 6.0
        tape.backward(out)
        # row 0 argmax at column 1 (value -4); row 1 tie -> lowest index
        np.testing.assert_array_equal(qv.grad, [[0.0, -1.0], [1.0, 0.0]])

    def test_finite_difference_at_smooth_point(self, rng):
        q = rng.normal(size=(4, 4))
        for i in range(4):
            j = np.argmax(np.abs(q[i]))
            q[i, j] += np.sign(q[i, j])  # unique argmax by a wide margin
        _fd_check(lambda t, lv: ad.sup_norm_rows(lv["q"]), {"q": q})


class TestGraphPenalty:
    def test_value_matches_numpy_loss_terms(self, rng):
        a1, a0, a2 = (rng.normal(size=(6, 6)) for _ in range(3))
        tape = ad.Tape()
        v1, v0, v2 = tape.var(a1), tape.var(a0), tape.var(a2)
        adjacency = ad.graph_penalty(v1, v0, 0.4, 1.3).item()
        propagation = ad.graph_penalty(v2, v1, 0.7, 2.1).item()
        assert adjacency == pytest.approx(naive_loss_adjacency(a1, a0, 0.4, 1.3), rel=1e-12)
        assert propagation == pytest.approx(naive_loss_propagation([a1, a2], 0.7, 2.1),
                                            rel=1e-12)

    def test_gradients_closed_form(self, rng):
        a, b = rng.normal(size=(4, 5)), rng.normal(size=(4, 5))
        tape = ad.Tape()
        av = tape.var(a, requires_grad=True)
        bv = tape.var(b, requires_grad=True)
        tape.backward(ad.scale(ad.graph_penalty(av, bv, 0.3, 0.7), 1.5))
        np.testing.assert_allclose(av.grad, 1.5 * (0.6 * a + 1.4 * (a - b)), rtol=1e-13)
        np.testing.assert_allclose(bv.grad, -1.5 * 1.4 * (a - b), rtol=1e-13)

    def test_shape_mismatch(self):
        tape = ad.Tape()
        with pytest.raises(ValueError, match="graph_penalty"):
            ad.graph_penalty(tape.var(np.ones((2, 2))), tape.var(np.ones((2, 3))), 1.0, 1.0)

    def test_cross_tape_rejected(self):
        t1, t2 = ad.Tape(), ad.Tape()
        with pytest.raises(ValueError, match="tape"):
            ad.graph_penalty(t1.var(np.ones((2, 2))), t2.var(np.ones((2, 2))), 1.0, 1.0)


class TestElementwise:
    def test_scale_identity(self, rng):
        x = rng.normal(size=(2, 3))
        tape = ad.Tape()
        out = ad.scale(tape.var(x), 1.0)
        np.testing.assert_array_equal(out.value, x)

    def test_add_inverse(self, rng):
        x = rng.normal(size=(2, 3))
        tape = ad.Tape()
        xv = tape.var(x)
        out = ad.add(xv, ad.scale(xv, -1.0))
        np.testing.assert_array_equal(out.value, np.zeros((2, 3)))

    def test_finite_difference(self, rng):
        arrays = {"a": rng.normal(size=(3, 4)), "b": rng.normal(size=(3, 4))}
        shift = rng.normal(size=(3, 4))
        _fd_check(lambda t, lv: ad.frob_sq(ad.add(ad.sub(ad.add(lv["a"], lv["b"]),
                                                         ad.scale(lv["b"], 0.3)),
                                                  t.var(shift))), arrays)

    def test_shape_mismatch(self):
        tape = ad.Tape()
        with pytest.raises(ValueError):
            ad.add(tape.var(np.ones((2, 2))), tape.var(np.ones((2, 3))))


class TestBackwardContract:
    def test_frob_gradient_closed_form(self, rng):
        x = rng.normal(size=(3, 4))
        tape = ad.Tape()
        xv = tape.var(x, requires_grad=True)
        tape.backward(ad.frob_sq(xv))
        np.testing.assert_allclose(xv.grad, 2 * x, atol=1e-14)

    def test_no_grad_leaf_gets_none(self, rng):
        tape = ad.Tape()
        a = tape.var(rng.normal(size=(2, 2)), requires_grad=True)
        b = tape.var(rng.normal(size=(2, 2)), requires_grad=False)
        tape.backward(ad.frob_sq(ad.add(a, b)))
        assert a.grad is not None
        assert b.grad is None

    def test_double_backward_raises(self, rng):
        tape = ad.Tape()
        x = tape.var(rng.normal(size=(2, 2)), requires_grad=True)
        loss = ad.frob_sq(x)
        tape.backward(loss)
        with pytest.raises(RuntimeError, match="build a new tape"):
            tape.backward(loss)

    def test_non_scalar_loss_raises(self, rng):
        tape = ad.Tape()
        x = tape.var(rng.normal(size=(2, 2)), requires_grad=True)
        with pytest.raises(ValueError, match="scalar"):
            tape.backward(ad.scale(x, 1.0))

    def test_fanout_accumulates(self, rng):
        # consuming x twice doubles the gradient
        x = rng.normal(size=(2, 3))
        tape = ad.Tape()
        xv = tape.var(x, requires_grad=True)
        tape.backward(ad.add(ad.frob_sq(xv), ad.frob_sq(xv)))
        np.testing.assert_allclose(xv.grad, 4 * x, atol=1e-14)

    def test_shared_gradient_summed_into_distinct_arrays(self, rng):
        # add hands one gradient array to both leaves; each leaf then gets
        # two more contributions, which must not write into the shared array
        a, b = rng.normal(size=(2, 3)), rng.normal(size=(2, 3))
        tape = ad.Tape()
        av = tape.var(a, requires_grad=True)
        bv = tape.var(b, requires_grad=True)
        extra_a = ad.add(ad.frob_sq(av), ad.frob_sq(ad.scale(av, 3.0)))
        extra_b = ad.add(ad.frob_sq(bv), ad.frob_sq(ad.scale(bv, -2.0)))
        # recorded last, so the shared array reaches the leaves first
        tape.backward(ad.add(ad.add(extra_a, extra_b), ad.frob_sq(ad.add(av, bv))))
        np.testing.assert_allclose(av.grad, 2 * (a + b) + 2 * a + 18 * a, rtol=1e-13)
        np.testing.assert_allclose(bv.grad, 2 * (a + b) + 2 * b + 8 * b, rtol=1e-13)
        assert av.grad is not bv.grad

    @staticmethod
    def _spy_add(a, b, seen):
        """add(a, b) whose VJP also records each g it hands on, with a copy."""
        def vjp(g):
            seen.append((g, g.copy()))
            return g
        return a.tape._record(a.value + b.value, ((a, vjp), (b, vjp)))

    def test_add_of_a_var_with_itself(self, rng):
        # both contributions are g itself, so neither may be written
        x = rng.normal(size=(3, 4))
        tape = ad.Tape()
        xv = tape.var(x, requires_grad=True)
        seen = []
        tape.backward(ad.frob_sq(self._spy_add(xv, xv, seen)))
        g = 2.0 * (x + x)
        assert np.array_equal(xv.grad, g + g)
        assert all(np.array_equal(arr, snap) for arr, snap in seen)
        assert xv.grad is not seen[0][0]

    def test_passed_through_g_never_written(self, rng):
        # add hands one g to both leaves first; each leaf's later fresh
        # contribution takes the sum in place, and g stays as it was
        a, b = rng.normal(size=(2, 3)), rng.normal(size=(2, 3))
        tape = ad.Tape()
        av = tape.var(a, requires_grad=True)
        bv = tape.var(b, requires_grad=True)
        extra_a, extra_b = ad.frob_sq(ad.scale(av, 3.0)), ad.frob_sq(ad.scale(bv, -2.0))
        seen = []
        shared = ad.frob_sq(self._spy_add(av, bv, seen))
        tape.backward(ad.add(ad.add(extra_a, extra_b), shared))
        g = 2.0 * (a + b)
        assert np.array_equal(av.grad, g + 3.0 * (2.0 * (3.0 * a)))
        assert np.array_equal(bv.grad, g + -2.0 * (2.0 * (-2.0 * b)))
        for passed, snap in seen:
            assert np.array_equal(passed, snap) and np.array_equal(passed, g)
            assert av.grad is not passed and bv.grad is not passed

    def test_backward_deterministic_bitwise(self, rng):
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 3))

        def grads():
            tape = ad.Tape()
            av = tape.var(a, requires_grad=True)
            bv = tape.var(b, requires_grad=True)
            tape.backward(ad.frob_sq(ad.relu(ad.matmul(av, bv))))
            return av.grad.copy(), bv.grad.copy()

        ga1, gb1 = grads()
        ga2, gb2 = grads()
        assert np.array_equal(ga1, ga2) and np.array_equal(gb1, gb2)

    @staticmethod
    def _into_graph(tape, a, b, c):
        """Leaves a, b, c of a loss in which a gets g itself first (through add),
        b gets -g (through sub) and both get fresh contributions after."""
        av, bv, cv = (tape.var(x, requires_grad=True) for x in (a, b, c))
        extra = ad.add(ad.frob_sq(ad.scale(av, 3.0)), ad.frob_sq(ad.matmul(bv, cv)))
        shared = ad.frob_sq(ad.sub(ad.add(av, cv), bv))
        return (av, bv, cv), ad.add(extra, shared)

    def test_into_sums_bitwise_like_plain_backward(self, rng):
        a, b, c = (rng.normal(size=(3, 3)).astype(np.float32) for _ in range(3))
        tape = ad.Tape()
        leaves, loss = self._into_graph(tape, a, b, c)
        tape.backward(loss)
        want = [leaf.grad for leaf in leaves]
        tape = ad.Tape()
        leaves, loss = self._into_graph(tape, a, b, c)
        into = {leaf: np.full(leaf.shape, np.nan, dtype=np.float32) for leaf in leaves}
        tape.backward(loss, into=into)
        for leaf, w in zip(leaves, want):
            assert leaf.grad is into[leaf]
            assert leaf.grad.tobytes() == w.tobytes()

    def test_into_leaf_without_contribution_is_zero(self, rng):
        tape = ad.Tape()
        x = tape.var(rng.normal(size=(2, 2)), requires_grad=True)
        unused = tape.var(rng.normal(size=(2, 3)), requires_grad=True)
        buf = np.full((2, 3), np.nan)
        tape.backward(ad.frob_sq(x), into={unused: buf})
        assert unused.grad is buf
        assert np.array_equal(buf, np.zeros((2, 3)))
        np.testing.assert_allclose(x.grad, 2 * x.value, atol=1e-14)

    @pytest.mark.parametrize("bad", [np.zeros((2, 3)), np.zeros((3, 2), dtype=np.float32)])
    def test_into_array_of_wrong_shape_or_dtype_raises(self, bad):
        tape = ad.Tape()
        x = tape.var(np.ones((3, 2)), requires_grad=True)
        with pytest.raises(ValueError, match="does not match"):
            tape.backward(ad.frob_sq(x), into={x: bad})

    def test_cross_tape_rejected(self, rng):
        t1, t2 = ad.Tape(), ad.Tape()
        with pytest.raises(ValueError, match="tape"):
            ad.add(t1.var(np.ones((2, 2))), t2.var(np.ones((2, 2))))

    def test_leaves_keep_float32_and_widen_the_rest(self):
        tape = ad.Tape()
        assert tape.var(np.ones((2, 2), dtype=np.float32)).value.dtype == np.float32
        for value in (np.ones((2, 2)), np.ones((2, 2), dtype=np.float16), [[1, 2]], 3):
            assert tape.var(value).value.dtype == np.float64

    @pytest.mark.parametrize("build", [
        lambda a, b: ad.frob_sq(ad.relu(ad.matmul(a, b))),
        lambda a, b: ad.graph_penalty(a, b, 0.3, 0.7),
        lambda a, b: ad.scale(ad.sup_norm_rows(ad.sub(a, b)), 2.0),
    ], ids=["frob_sq", "graph_penalty", "sup_norm_rows"])
    def test_float32_graph_keeps_float32_gradients(self, rng, build):
        # a numpy float64 scalar times a float32 array is float64 under NumPy 2,
        # so a VJP that scaled by g[0, 0] itself would widen the gradients; the
        # 1x1 loss stays float64, so loss terms add up in float64
        a, b = (rng.normal(size=(4, 4)).astype(np.float32) for _ in range(2))
        tape = ad.Tape()
        av, bv = tape.var(a, requires_grad=True), tape.var(b, requires_grad=True)
        loss = build(av, bv)
        tape.backward(loss)
        assert loss.value.dtype == np.float64
        assert av.grad.dtype == bv.grad.dtype == np.float32


class TestAdam:
    def test_zero_gradient_fixed_point(self):
        p = np.array([1.0, 2.0])
        ad.adam_step(p, np.zeros(2), ad.AdamState(p), lr=0.1, t=1)
        np.testing.assert_array_equal(p, [1.0, 2.0])

    def test_first_step_magnitude(self):
        p = np.array([0.0])
        ad.adam_step(p, np.array([1.0]), ad.AdamState(p), lr=0.001, t=1)
        # bias-corrected first step is lr/(1 + eps-ish)
        assert abs(p[0] + 0.001) < 1e-9

    def test_quadratic_descent_matches_reference(self):
        # 10 steps on f(x) = x^2/2 from x=1; oracle recurrence run by hand
        ref = adam_reference(1.0, lambda x: x, lr=0.001, steps=10)
        p = np.array([1.0])
        state = ad.AdamState(p)
        xs = [1.0]
        for t in range(1, 11):
            ad.adam_step(p, p.copy(), state, lr=0.001, t=t)
            xs.append(float(p[0]))
        np.testing.assert_allclose(xs, ref, atol=1e-15)
        diffs = np.diff(np.abs(xs))
        assert (diffs < 0).all()  # |x| strictly decreasing

    def test_blocks_match_straight_line_formula(self, rng):
        # three whole blocks and a partial fourth, in training's dtype and in float64
        size = 3 * ad._ADAM_BLOCK + 1234
        lr, beta1, beta2, eps = 0.01, 0.9, 0.999, 1e-8
        for dtype in (np.float32, np.float64):
            p = rng.normal(size=size).astype(dtype)
            want = p.copy()
            m, v = np.zeros(size, dtype=dtype), np.zeros(size, dtype=dtype)
            state = ad.AdamState(p)
            for t in range(1, 5):
                g = rng.normal(size=size).astype(dtype)
                ad.adam_step(p, g, state, lr=lr, t=t)
                m = beta1 * m + (1.0 - beta1) * g
                v = beta2 * v + (1.0 - beta2) * (g * g)
                m_hat = m / (1.0 - beta1**t)
                v_hat = v / (1.0 - beta2**t)
                want = want - lr * m_hat / (np.sqrt(v_hat) + eps)
            assert want.dtype == dtype
            assert np.array_equal(p, want), dtype
            assert np.array_equal(state.m, m) and np.array_equal(state.v, v), dtype

    def test_step_allocates_nothing(self, rng):
        # the block scratch belongs to AdamState, so a step allocates nothing
        p = rng.normal(size=300 * 1000)
        state = ad.AdamState(p)
        g = rng.normal(size=p.shape)
        tracemalloc.start()
        try:
            ad.adam_step(p, g, state, lr=0.01, t=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 1024

    def test_shape_mismatch(self):
        p = np.ones(4)
        with pytest.raises(ValueError, match="shape"):
            ad.adam_step(p, np.ones(3), ad.AdamState(p), lr=0.1, t=1)

    def test_non_vector_refused(self):
        p = np.ones((2, 2))
        with pytest.raises(ValueError, match="1-D"):
            ad.adam_step(p, np.ones((2, 2)), ad.AdamState(p), lr=0.1, t=1)

    def test_bad_step_count(self):
        p = np.ones(1)
        with pytest.raises(ValueError, match=">= 1"):
            ad.adam_step(p, np.ones(1), ad.AdamState(p), lr=0.1, t=0)
