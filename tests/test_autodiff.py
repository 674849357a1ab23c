import tracemalloc

import numpy as np
import pytest

import allg.autodiff as ad
from conftest import grads_of
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
    return {k: tape.var(v) for k, v in arrays.items()}


def _fd_check(build, arrays, tol=FD_TOL):
    """Compare backward grads of build(tape, leaves) against central FD."""
    def f(arrs):
        tape = ad.Tape()
        return build(tape, _leaf_dict(tape, arrs)).item()

    tape = ad.Tape()
    leaves = _leaf_dict(tape, arrays)
    grads = grads_of(tape, build(tape, leaves), *leaves.values())
    fd = finite_diff(f, arrays)
    worst = max(rel_err(g, fd[k]) for k, g in zip(arrays, grads))
    assert worst < tol, f"finite-difference mismatch: {worst}"


class TestMatmul:
    def test_identity(self, rng):
        m = rng.normal(size=(3, 3))
        tape = ad.Tape()
        eye = tape.var(np.eye(3))
        mv = tape.var(m)
        out = ad.matmul(eye, mv)
        np.testing.assert_array_equal(out.value, np.eye(3) @ m)
        (g_eye,) = grads_of(tape, ad.frob_sq(out), eye)
        # d||IM||^2/dI = 2 (IM) M^T
        np.testing.assert_allclose(g_eye, 2 * m @ m.T, atol=1e-12)

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
        x = tape.var(np.array([[-1.0, 0.0, 2.0]]))
        summed = ad.matmul(ad.relu(x), ad.scale(tape.var(np.ones((3, 1))), 1.0))
        np.testing.assert_array_equal(grads_of(tape, summed, x)[0], [[0.0, 0.0, 1.0]])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bits_match_where(self, rng, dtype):
        # each special value at every offset of every width from 1 to 40 and of
        # a few large ones, read C-contiguous, strided and transposed; the SIMD
        # lanes of the fast path treat offsets and widths differently
        tiny = np.finfo(dtype).smallest_subnormal
        specials = np.array([-0.0, np.nan, np.inf, -np.inf, tiny, -tiny], dtype=dtype)
        for width in [*range(1, 41), 63, 64, 65, 257, 1000]:
            base = rng.normal(size=width).astype(dtype)
            for value in specials:
                for offset in range(width):
                    row = base.copy()
                    row[offset] = value
                    spread = np.zeros((1, 2 * width), dtype=dtype)
                    spread[0, ::2] = row
                    columns = np.zeros((width, 3), dtype=dtype)
                    columns[:, 1] = row
                    for x in (row[None, :], spread[:, ::2], columns.T):
                        out = ad.relu(ad.Tape().var(x)).value
                        want = np.where(x > 0, x, 0.0)
                        assert out.dtype == want.dtype == dtype
                        assert out.tobytes() == want.tobytes(), (width, value, offset)

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
        qv = tape.var(q)
        out = ad.sup_norm_rows(qv)
        assert out.item() == 6.0
        # row 0 argmax at column 1 (value -4); row 1 tie -> lowest index
        np.testing.assert_array_equal(grads_of(tape, out, qv)[0], [[0.0, -1.0], [1.0, 0.0]])

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
        av, bv = tape.var(a), tape.var(b)
        ga, gb = grads_of(tape, ad.scale(ad.graph_penalty(av, bv, 0.3, 0.7), 1.5), av, bv)
        np.testing.assert_allclose(ga, 1.5 * (0.6 * a + 1.4 * (a - b)), rtol=1e-13)
        np.testing.assert_allclose(gb, -1.5 * 1.4 * (a - b), rtol=1e-13)

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


def _spy_rules(tape):
    """Wrap every backward rule recorded so far on `tape`, so that each call logs
    (parent index, the contribution the rule makes, the `out` it was given) in
    the list this returns.  A rule given an `out` is also run without one: what
    it writes must be `out` itself and equal that fresh contribution bit for
    bit, and the log holds the fresh one, so its dtype is the rule's own."""
    log = []

    def spy(parent, vjp):
        def rule(g, out):
            contrib = vjp(g, None)
            log.append((parent, contrib, out))
            if out is None:
                return contrib
            written = vjp(g, out)
            assert written is out and written.tobytes() == contrib.tobytes()
            return written
        return rule

    tape._parents = [tuple((p, spy(p, vjp)) for p, vjp in rules) for rules in tape._parents]
    return log


class TestBackwardContract:
    def test_frob_gradient_closed_form(self, rng):
        x = rng.normal(size=(3, 4))
        tape = ad.Tape()
        xv = tape.var(x)
        np.testing.assert_allclose(grads_of(tape, ad.frob_sq(xv), xv)[0], 2 * x, atol=1e-14)

    def test_unlisted_leaf_vjp_never_runs(self, rng):
        # a constant leaf through a spy op, and graph_penalty against a constant
        # prior: no rule into either runs, nor into the node the constant feeds
        a, c, prior = (rng.normal(size=(3, 3)) for _ in range(3))
        tape = ad.Tape()
        av, cv, prior_v = tape.var(a), tape.var(c), tape.var(prior)
        calls = []

        def vjp(g, out):
            calls.append(g)
            return g

        spied = tape._record(cv.value.copy(), ((cv, vjp),))
        penalty = ad.graph_penalty(av, prior_v, 0.3, 0.7)
        loss = ad.add(ad.frob_sq(ad.matmul(av, spied)), penalty)
        log = _spy_rules(tape)
        (ga,) = grads_of(tape, loss, av)
        assert calls == []
        served = [parent for parent, _, _ in log]
        assert cv.index not in served and spied.index not in served
        assert prior_v.index not in served
        assert served.count(av.index) == 3  # matmul and graph_penalty's two a-terms
        np.testing.assert_allclose(ga, 2 * (a @ c) @ c.T + 0.6 * a + 1.4 * (a - prior),
                                   rtol=1e-12)

    def test_second_sweep_writes_same_bits(self, rng):
        a, b = rng.normal(size=(3, 4)), rng.normal(size=(4, 3))
        tape = ad.Tape()
        av, bv = tape.var(a), tape.var(b)
        loss = ad.add(ad.frob_sq(ad.relu(ad.matmul(av, bv))), ad.frob_sq(av))
        first = grads_of(tape, loss, av, bv)
        second = grads_of(tape, loss, av, bv)
        assert all(f.tobytes() == s.tobytes() for f, s in zip(first, second))

    def test_non_scalar_loss_raises(self, rng):
        tape = ad.Tape()
        x = tape.var(rng.normal(size=(2, 2)))
        with pytest.raises(ValueError, match="scalar"):
            grads_of(tape, ad.scale(x, 1.0), x)

    def test_fanout_accumulates(self, rng):
        # consuming x twice doubles the gradient
        x = rng.normal(size=(2, 3))
        tape = ad.Tape()
        xv = tape.var(x)
        (gx,) = grads_of(tape, ad.add(ad.frob_sq(xv), ad.frob_sq(xv)), xv)
        np.testing.assert_allclose(gx, 4 * x, atol=1e-14)

    def test_shared_gradient_summed_into_distinct_arrays(self, rng):
        # add hands one gradient array to both leaves; each leaf then gets
        # two more contributions, which must not write into the shared array
        a, b = rng.normal(size=(2, 3)), rng.normal(size=(2, 3))
        tape = ad.Tape()
        av, bv = tape.var(a), tape.var(b)
        extra_a = ad.add(ad.frob_sq(av), ad.frob_sq(ad.scale(av, 3.0)))
        extra_b = ad.add(ad.frob_sq(bv), ad.frob_sq(ad.scale(bv, -2.0)))
        # recorded last, so the shared array reaches the leaves first
        loss = ad.add(ad.add(extra_a, extra_b), ad.frob_sq(ad.add(av, bv)))
        ga, gb = grads_of(tape, loss, av, bv)
        np.testing.assert_allclose(ga, 2 * (a + b) + 2 * a + 18 * a, rtol=1e-13)
        np.testing.assert_allclose(gb, 2 * (a + b) + 2 * b + 8 * b, rtol=1e-13)
        assert ga is not gb

    @staticmethod
    def _spy_add(a, b, seen):
        """add(a, b) whose VJP also records each g it hands on, with a copy."""
        def vjp(g, out):
            seen.append((g, g.copy()))
            return ad._pass_on(g, out)
        return a.tape._record(a.value + b.value, ((a, vjp), (b, vjp)))

    def test_add_of_a_var_with_itself(self, rng):
        # both contributions are g itself, so neither may be written
        x = rng.normal(size=(3, 4))
        tape = ad.Tape()
        xv = tape.var(x)
        seen = []
        (gx,) = grads_of(tape, ad.frob_sq(self._spy_add(xv, xv, seen)), xv)
        g = 2.0 * (x + x)
        assert np.array_equal(gx, g + g)
        assert all(np.array_equal(arr, snap) for arr, snap in seen)
        assert gx is not seen[0][0]

    def test_passed_through_g_never_written(self, rng):
        # add hands one g to both leaves first; each leaf's later contribution is
        # added into its own array, and g stays as it was
        a, b = rng.normal(size=(2, 3)), rng.normal(size=(2, 3))
        tape = ad.Tape()
        av, bv = tape.var(a), tape.var(b)
        extra_a, extra_b = ad.frob_sq(ad.scale(av, 3.0)), ad.frob_sq(ad.scale(bv, -2.0))
        seen = []
        shared = ad.frob_sq(self._spy_add(av, bv, seen))
        ga, gb = grads_of(tape, ad.add(ad.add(extra_a, extra_b), shared), av, bv)
        g = 2.0 * (a + b)
        assert np.array_equal(ga, g + 3.0 * (2.0 * (3.0 * a)))
        assert np.array_equal(gb, g + -2.0 * (2.0 * (-2.0 * b)))
        for passed, snap in seen:
            assert np.array_equal(passed, snap) and np.array_equal(passed, g)
            assert ga is not passed and gb is not passed

    def test_interior_nodes_never_write_a_passed_through_g(self, rng):
        # as above, but the shared g reaches two interior nodes p = a w and
        # q = a v, whose later contributions make new sums beside it
        a, w, v = rng.normal(size=(2, 3)), rng.normal(size=(3, 3)), rng.normal(size=(3, 3))
        tape = ad.Tape()
        av = tape.var(a)
        p, q = ad.matmul(av, tape.var(w)), ad.matmul(av, tape.var(v))
        extra = ad.add(ad.frob_sq(p), ad.frob_sq(ad.scale(q, -2.0)))
        seen = []
        shared = ad.frob_sq(self._spy_add(p, q, seen))
        (ga,) = grads_of(tape, ad.add(extra, shared), av)
        g = 2.0 * (p.value + q.value)
        for passed, snap in seen:
            assert np.array_equal(passed, snap) and np.array_equal(passed, g)
        np.testing.assert_allclose(ga, (g + 2.0 * p.value) @ w.T + (g + 8.0 * q.value) @ v.T,
                                   rtol=1e-13)

    def test_backward_deterministic_bitwise(self, rng):
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 3))

        def grads():
            tape = ad.Tape()
            av, bv = tape.var(a), tape.var(b)
            return grads_of(tape, ad.frob_sq(ad.relu(ad.matmul(av, bv))), av, bv)

        ga1, gb1 = grads()
        ga2, gb2 = grads()
        assert np.array_equal(ga1, ga2) and np.array_equal(gb1, gb2)

    @staticmethod
    def _into_graph(tape, a, b, c):
        """Leaves a, b, c of a loss in which a gets g itself first (through add),
        b gets -g (through sub) and both get more contributions after."""
        av, bv, cv = (tape.var(x) for x in (a, b, c))
        extra = ad.add(ad.frob_sq(ad.scale(av, 3.0)), ad.frob_sq(ad.matmul(bv, cv)))
        shared = ad.frob_sq(ad.sub(ad.add(av, cv), bv))
        return (av, bv, cv), ad.add(extra, shared)

    def test_listed_leaf_bits_do_not_depend_on_the_other_leaves(self, rng):
        # each leaf alone, then all three at once, every array starting as NaN
        a, b, c = (rng.normal(size=(3, 3)).astype(np.float32) for _ in range(3))
        tape = ad.Tape()
        leaves, loss = self._into_graph(tape, a, b, c)
        every = grads_of(tape, loss, *leaves)
        for leaf, want in zip(leaves, every):
            tape = ad.Tape()
            alone, loss = self._into_graph(tape, a, b, c)
            (got,) = grads_of(tape, loss, alone[leaves.index(leaf)])
            assert not np.isnan(want).any()
            assert got.tobytes() == want.tobytes()

    def test_into_leaf_without_contribution_is_zero(self, rng):
        tape = ad.Tape()
        x = tape.var(rng.normal(size=(2, 2)))
        unused = tape.var(rng.normal(size=(2, 3)))
        gx, buf = grads_of(tape, ad.frob_sq(x), x, unused)
        assert np.array_equal(buf, np.zeros((2, 3)))
        np.testing.assert_allclose(gx, 2 * x.value, atol=1e-14)

    def test_first_contribution_is_written_into_the_leafs_own_array(self, rng):
        # each listed leaf's first rule gets the leaf's array as `out` and hands
        # it back; its later rules get None
        tape = ad.Tape()
        av, bv, cv = (tape.var(rng.normal(size=shape)) for shape in ((6, 6), (6, 2), (6, 6)))
        loss = ad.add(ad.frob_sq(ad.matmul(av, bv)), ad.graph_penalty(av, cv, 0.3, 0.7))
        log = _spy_rules(tape)  # which also holds that a rule given `out` returns it
        into = {leaf: np.empty(leaf.shape) for leaf in (av, bv, cv)}
        tape.backward(loss, into=into)
        for leaf, arr in into.items():
            outs = [out for parent, _, out in log if parent == leaf.index]
            assert outs[0] is arr and all(out is None for out in outs[1:])
        assert sum(parent == av.index for parent, _, _ in log) == 3
        a, b, c = av.value, bv.value, cv.value
        np.testing.assert_allclose(into[av], 2.0 * (a @ b) @ b.T + 0.6 * a + 1.4 * (a - c),
                                   rtol=1e-12)

    def test_sweep_into_a_leaf_makes_no_temporary_of_its_size(self, rng):
        # frob_sq(a b) with a 300 x 300 and b 300 x 2: a's one contribution,
        # g b^T, is computed straight into a's array
        tape = ad.Tape()
        av, bv = tape.var(rng.normal(size=(300, 300))), tape.var(rng.normal(size=(300, 2)))
        loss = ad.frob_sq(ad.matmul(av, bv))
        into = {av: np.empty((300, 300)), bv: np.empty((300, 2))}
        tracemalloc.start()
        try:
            tape.backward(loss, into=into)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < into[av].nbytes // 4
        np.testing.assert_allclose(into[av], 2.0 * (av.value @ bv.value) @ bv.value.T,
                                   rtol=1e-12)

    def test_no_contribution_to_an_unlisted_node_aliases_an_into_array(self, rng):
        # interior nodes and unlisted leaves get `out` None, and what their
        # rules return shares no memory with any array being swept into
        a, b, c = (rng.normal(size=(3, 3)) for _ in range(3))
        for listed in ((0, 1, 2), (0,), (0, 2), (1,)):
            tape = ad.Tape()
            leaves, loss = self._into_graph(tape, a, b, c)
            into = {leaves[i]: np.empty((3, 3)) for i in listed}
            log = _spy_rules(tape)
            tape.backward(loss, into=into)
            indexes = {leaf.index for leaf in into}
            assert any(parent not in indexes for parent, _, _ in log)
            for parent, contrib, out in log:
                if parent in indexes:
                    continue
                assert out is None
                assert not any(np.shares_memory(contrib, arr) for arr in into.values())

    @pytest.mark.parametrize("bad", [np.zeros((2, 3)), np.zeros((3, 2), dtype=np.float32)])
    def test_into_array_of_wrong_shape_or_dtype_raises(self, bad):
        tape = ad.Tape()
        x = tape.var(np.ones((3, 2)))
        with pytest.raises(ValueError, match="does not match"):
            tape.backward(ad.frob_sq(x), into={x: bad})

    def test_into_key_that_is_no_leaf_of_this_tape_raises(self):
        tape, other = ad.Tape(), ad.Tape()
        x = tape.var(np.ones((3, 2)))
        node = ad.scale(x, 2.0)
        for key in (node, other.var(np.ones((3, 2)))):
            with pytest.raises(ValueError, match="leaf of this tape"):
                tape.backward(ad.frob_sq(node), into={key: np.zeros((3, 2))})

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
        # 1x1 loss stays float64, so loss terms add up in float64.  A float32
        # array in `into` would narrow a widened contribution silently, so every
        # contribution to a 4 x 4 node is checked as the VJP makes it without
        # `out`, and _spy_rules holds what it writes into `out` to those bits.
        a, b = (rng.normal(size=(4, 4)).astype(np.float32) for _ in range(2))
        tape = ad.Tape()
        av, bv = tape.var(a), tape.var(b)
        loss = build(av, bv)
        log = _spy_rules(tape)
        ga, gb = grads_of(tape, loss, av, bv)
        assert loss.value.dtype == np.float64
        assert ga.dtype == gb.dtype == np.float32
        square = [contrib.dtype for _, contrib, _ in log if contrib.shape == (4, 4)]
        assert square and all(dtype == np.float32 for dtype in square)


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
