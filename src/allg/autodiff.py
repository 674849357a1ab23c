"""Reverse-mode automatic differentiation over dense float32 or float64 matrices.

The engine is a flat tape.  Every operation appends one node recording the
indices of its parents and their backward rules; insertion order is a
topological order, so backward() is a single reverse sweep in which the
gradient of each node is the sum of the contributions of all its consumers.

backward(loss, into) is the only way out of the tape: each leaf that is a
key of `into` gets its gradient in the array given for it, and no other
leaf gets one.  A tape that is never swept is the no-grad path.  The tape
holds no Var, so reference counting frees it and its arrays when the last
Var on it is dropped.

Every backward rule (VJP) is called as vjp(g, out) and returns its
contribution: when `out` is an array it writes the contribution there and
returns `out`, and when `out` is None it returns an array it does not
write again (a new one, or g itself).  backward passes `out` only for the
first contribution to a listed leaf, so that one lands in the caller's
array with no temporary and no copy.

All values are 2-D float arrays; scalars are 1x1 matrices.  A float32
leaf stays float32 and every other leaf becomes float64; an op computes
at its inputs' dtype, except that the 1x1 losses of the reductions are
float64.  A VJP scales by a Python float, never a numpy float64 scalar,
which would promote a float32 gradient to float64.  Reductions use
numpy's fixed summation order, so identical inputs give bitwise identical
gradients.
"""

import numpy as np


class Var:
    """A value on a tape: a leaf, or the output of one op."""

    __slots__ = ("value", "tape", "index")

    def __init__(self, value, tape, index):
        self.value = value
        self.tape = tape
        self.index = index

    @property
    def shape(self):
        return self.value.shape

    def item(self) -> float:
        if self.value.size != 1:
            raise ValueError(f"item() needs a scalar, got shape {self.value.shape}")
        return float(self.value[0, 0])

    def __repr__(self):
        return f"Var(shape={self.value.shape}, node={self.index})"


class Tape:
    """Records a computation graph; backward() sweeps it."""

    def __init__(self):
        self._parents: list[tuple] = []  # per node: ((parent index, vjp), ...); () for a leaf

    def __len__(self):
        return len(self._parents)

    def var(self, value) -> Var:
        """Create a leaf holding `value` as a 2-D array: float32 stays float32,
        anything else becomes float64."""
        arr = np.asarray(value)
        if arr.dtype != np.float32:
            arr = arr.astype(np.float64, copy=False)
        if arr.ndim == 0:
            arr = arr.reshape(1, 1)
        if arr.ndim != 2:
            raise ValueError(f"tape values must be matrices, got ndim={arr.ndim}")
        self._parents.append(())
        return Var(arr, self, len(self._parents) - 1)

    def _record(self, value, parents) -> Var:
        """Append an op node; `parents` is a tuple of (parent Var, vjp callable)."""
        self._parents.append(tuple((p.index, vjp) for p, vjp in parents))
        return Var(value, self, len(self._parents) - 1)

    def backward(self, loss: Var, into: dict) -> None:
        """Write d(loss)/d(leaf) into into[leaf] for every leaf listed in `into`.

        Each array must have its leaf's shape and dtype; a leaf the loss does
        not reach gets zeros.  A first pass marks every node a listed leaf
        feeds, and the sweep runs no VJP into an unmarked node.  A listed
        leaf's first contribution is written into its array by the VJP itself
        (vjp(g, out) with out the array) and each later one, vjp(g, None),
        added in place; any other node keeps its first contribution and makes
        a new sum for each later one, so no array a VJP returned is written
        (add and sub hand g itself on) and no interior node's gradient is an
        `into` array.  Addition commutes, so the bits do not depend on which
        leaves are listed, and a second sweep writes the same bits.  A
        contribution is dropped once it is summed, and an interior node's
        gradient once its parents have been served.
        """
        if loss.tape is not self:
            raise ValueError("loss belongs to a different tape")
        if loss.value.shape != (1, 1):
            raise ValueError(f"loss must be a 1x1 scalar, got shape {loss.value.shape}")
        for leaf, arr in into.items():
            if leaf.tape is not self or self._parents[leaf.index] or (
                    arr.shape, arr.dtype) != (leaf.shape, leaf.value.dtype):
                raise ValueError(f"into: {arr.shape} {arr.dtype} array does not match "
                                 f"{leaf!r}, a {leaf.value.dtype} leaf of this tape")
        targets = {leaf.index: arr for leaf, arr in into.items()}
        fed = [i in targets for i in range(len(self._parents))]  # a listed leaf feeds node i
        for i, parents in enumerate(self._parents):
            for parent, _ in parents:
                if fed[parent]:
                    fed[i] = True
                    break
        grads = [None] * len(self._parents)
        grads[loss.index] = np.ones((1, 1), dtype=np.float64)
        for i in range(loss.index, -1, -1):
            g = grads[i]
            if g is None or not self._parents[i]:
                continue
            for parent, vjp in self._parents[i]:
                if not fed[parent]:
                    continue
                held = grads[parent]
                if held is None:
                    grads[parent] = vjp(g, targets.get(parent))
                elif parent in targets:
                    held += vjp(g, None)
                else:
                    grads[parent] = held + vjp(g, None)
                del held
            grads[i] = None
        for i, arr in targets.items():
            if grads[i] is not arr:  # no contribution, or the loss is the leaf itself
                arr[...] = 0 if grads[i] is None else grads[i]


def _check_same_tape(*vars_):
    tape = vars_[0].tape
    for v in vars_[1:]:
        if v.tape is not tape:
            raise ValueError("operands live on different tapes")
    return tape


def matmul(a: Var, b: Var) -> Var:
    """Matrix product a @ b."""
    tape = _check_same_tape(a, b)
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul shape mismatch: {a.shape} @ {b.shape}")
    av, bv = a.value, b.value
    out = av @ bv
    return tape._record(out, ((a, lambda g, o: np.matmul(g, bv.T, out=o)),
                              (b, lambda g, o: np.matmul(av.T, g, out=o))))


def affine(w: Var, x: Var, b: Var) -> Var:
    """w @ x + b with the bias column broadcast across samples."""
    tape = _check_same_tape(w, x, b)
    if w.shape[1] != x.shape[0] or b.shape != (w.shape[0], 1):
        raise ValueError(f"affine shape mismatch: w{w.shape}, x{x.shape}, b{b.shape}")
    wv, xv = w.value, x.value
    out = wv @ xv + b.value
    parents = (
        (w, lambda g, o: np.matmul(g, xv.T, out=o)),
        (x, lambda g, o: np.matmul(wv.T, g, out=o)),
        (b, lambda g, o: np.sum(g, axis=1, keepdims=True, out=o)),
    )
    return tape._record(out, parents)


def relu(x: Var) -> Var:
    """Elementwise max(0, x); the subgradient at exactly 0 is 0.

    The bits are those of np.where(x > 0, x, 0.0), NaN to 0 included, at
    about a tenth of its cost: fmax gives -0.0 for -0.0 in some SIMD lanes,
    and adding 0.0 turns that into +0.0.
    """
    mask = x.value > 0
    out = np.fmax(x.value, 0.0)
    out += 0.0
    return x.tape._record(out, ((x, lambda g, o: np.multiply(g, mask, out=o)),))


def frob_sq(x: Var) -> Var:
    """Sum of squared entries as a 1x1 Var."""
    xv = x.value
    out = np.array([[np.sum(xv * xv)]], dtype=np.float64)
    return x.tape._record(out, ((x, lambda g, o: np.multiply(xv, 2.0 * float(g[0, 0]),
                                                            out=o)),))


def sup_norm_rows(q: Var) -> Var:
    """Sum over rows of the row sup-norm: sum_i max_j |q_ij|.

    The subgradient places sign(q[i, j*]) at each row's first maximal
    column j* (lowest index on ties) and zero elsewhere.
    """
    qv = q.value
    rows = np.arange(qv.shape[0])
    j_star = np.argmax(np.abs(qv), axis=1)  # first occurrence = lowest index
    peak = qv[rows, j_star]
    out = np.array([[np.sum(np.abs(peak))]], dtype=np.float64)

    def vjp(g, out):
        if out is None:
            out = np.zeros_like(qv)
        else:
            out[...] = 0
        out[rows, j_star] = np.sign(peak) * float(g[0, 0])
        return out

    return q.tape._record(out, ((q, vjp),))


def graph_penalty(a: Var, b: Var, alpha: float, beta: float) -> Var:
    """alpha ||a||_F^2 + beta ||a - b||_F^2 as a 1x1 Var, in one node.

    Each squared norm is a single-pass dot product; the VJPs are
    2 alpha a + 2 beta (a - b) for a and -2 beta (a - b) for b.  The node
    keeps only its inputs: each VJP recomputes a - b, the same subtraction
    as the forward pass, so no n x n difference lives until backward.  a's
    two terms are two parent entries, so backward adds each into a's
    gradient in turn and never holds both beside it.
    """
    tape = _check_same_tape(a, b)
    if a.shape != b.shape:
        raise ValueError(f"graph_penalty shape mismatch: {a.shape} vs {b.shape}")
    alpha, beta = float(alpha), float(beta)
    av, bv = a.value, b.value
    diff = av - bv
    out = np.array([[alpha * np.vdot(av, av) + beta * np.vdot(diff, diff)]], dtype=np.float64)

    def scaled_diff(c, out):
        d = np.subtract(av, bv, out=out)
        d *= c
        return d

    return tape._record(out, (
        (a, lambda g, o: np.multiply(av, 2.0 * alpha * float(g[0, 0]), out=o)),
        (a, lambda g, o: scaled_diff(2.0 * beta * float(g[0, 0]), o)),
        (b, lambda g, o: scaled_diff(-2.0 * beta * float(g[0, 0]), o))))


def _pass_on(g, out):
    """The VJP of add, and of sub's first operand: g itself, or a copy in `out`."""
    if out is None:
        return g
    np.copyto(out, g)
    return out


def add(a: Var, b: Var) -> Var:
    tape = _check_same_tape(a, b)
    if a.shape != b.shape:
        raise ValueError(f"add shape mismatch: {a.shape} vs {b.shape}")
    return tape._record(a.value + b.value, ((a, _pass_on), (b, _pass_on)))


def sub(a: Var, b: Var) -> Var:
    tape = _check_same_tape(a, b)
    if a.shape != b.shape:
        raise ValueError(f"sub shape mismatch: {a.shape} vs {b.shape}")
    return tape._record(a.value - b.value,
                        ((a, _pass_on), (b, lambda g, o: np.negative(g, out=o))))


def scale(x: Var, c: float) -> Var:
    c = float(c)
    return x.tape._record(c * x.value, ((x, lambda g, o: np.multiply(g, c, out=o)),))


# ---------------------------------------------------------------------------
# Adam optimizer over one flat parameter vector.
# ---------------------------------------------------------------------------

# Adam's moment decay rates and the guard added to its denominator.
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8
# Elements per block of the in-place Adam update.
_ADAM_BLOCK = 65536


class AdamState:
    """The first and second moments of a 1-D parameter vector `p`, and the
    scratch of adam_step: two blocks of _ADAM_BLOCK elements of p's dtype,
    so a step allocates no array."""

    __slots__ = ("m", "v", "scratch")

    def __init__(self, p: np.ndarray):
        self.m = np.zeros_like(p)
        self.v = np.zeros_like(p)
        self.scratch = np.empty((2, min(p.size, _ADAM_BLOCK)), dtype=p.dtype)


def adam_step(p: np.ndarray, g: np.ndarray, state: AdamState, *, lr: float, t: int) -> None:
    """One bias-corrected Adam update of the 1-D vector `p`, in place.

    `g` is the gradient, of p's shape.  The decay rates are _BETA1 and
    _BETA2, the guard _EPS.  The vector is updated one block of
    _ADAM_BLOCK elements at a time through the two blocks of
    `state.scratch`, so no array is allocated; every element sees the same
    operations in the same order.
    """
    if t < 1:
        raise ValueError(f"Adam step count must be >= 1, got {t}")
    if p.ndim != 1:
        raise ValueError(f"Adam steps a 1-D parameter vector, got shape {p.shape}")
    if g.shape != p.shape:
        raise ValueError(f"gradient shape {g.shape} != parameter shape {p.shape}")
    c1, c2 = 1.0 - _BETA1**t, 1.0 - _BETA2**t
    for r in range(0, p.size, _ADAM_BLOCK):
        rs = slice(r, r + _ADAM_BLOCK)
        gb, mb, vb, pb = g[rs], state.m[rs], state.v[rs], p[rs]
        a, b = state.scratch[:, :len(pb)]
        mb *= _BETA1
        np.multiply(gb, 1.0 - _BETA1, out=a)
        mb += a
        vb *= _BETA2
        np.multiply(gb, gb, out=a)
        a *= 1.0 - _BETA2
        vb += a
        np.divide(mb, c1, out=a)  # m_hat
        a *= lr
        np.divide(vb, c2, out=b)  # v_hat
        np.sqrt(b, out=b)
        b += _EPS
        a /= b
        pb -= a
