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

Every backward rule (VJP) is called as vjp(g, out, add), with g the
gradient of its node, and returns its contribution.  With `out` None it
returns a new array.  With `out` an array, the gradient array of its
parent, the rule puts its contribution there and returns `out`: it writes
it when `add` is False, the parent's first contribution, and adds it in
place when `add` is True.  A rule returns a new array or `out`, never g
or any other array it did not make, so every gradient array on the tape
belongs to one node.  A rule that can make its contribution only as a
new array (the matmuls: numpy's matmul cannot accumulate) adds that
array.  So a leaf whose first contribution comes from a matmul and whose
later ones come from blocked rules (graph_penalty, sup_norm_rows) gets
its gradient with no temporary of its size.

All values are 2-D float arrays; scalars are 1x1 matrices.  A float32
leaf stays float32 and every other leaf becomes float64; an op computes
at its inputs' dtype, except that the 1x1 losses of the reductions are
float64.  A VJP scales by a Python float, never a numpy float64 scalar,
which would promote a float32 gradient to float64.  Reductions use
numpy's fixed summation order, so identical inputs give bitwise identical
gradients.
"""

import math

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
        feeds, and the sweep runs no VJP into an unmarked node.  Every node
        has one rule: its first contribution is written into its `into` array
        if it is a listed leaf, or made as a new array otherwise, and each
        later one is added in place into that array, the VJP being told which
        by a flag (see the module docstring).  A leaf's contributions arrive
        in the same order whichever leaves are listed, so its bits do not
        depend on them, and a second sweep writes the same bits.  An interior
        node's gradient is dropped once its parents have been served.
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
                if fed[parent]:
                    held = grads[parent]
                    grads[parent] = vjp(g, targets.get(parent) if held is None else held,
                                        held is not None)
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


def _deliver(out, add, f, *args, **kwargs):
    """The contribution f(*args, **kwargs, out=...) of a VJP under the contract:
    a new array when `out` is None, written into `out`, or made anew and added
    into `out` when `add`."""
    if add:
        out += f(*args, **kwargs)
        return out
    return f(*args, **kwargs, out=out)


# Elements per block of the blocked passes: Adam's update, and graph_penalty's
# and sup_norm_rows' passes over an n x n array.
_ADAM_BLOCK = 65536


def _row_blocks(x: np.ndarray, dtype):
    """(row slice, scratch) for each block of at most _ADAM_BLOCK elements (one
    row at least) of the 2-D x, in order.  The scratch is a view, of the
    block's shape and `dtype`, into one array allocated per call."""
    rows, cols = x.shape
    step = max(1, _ADAM_BLOCK // max(1, cols))
    scratch = np.empty((min(step, rows), cols), dtype=dtype)
    for r in range(0, rows, step):
        yield slice(r, r + step), scratch[:min(step, rows - r)]


def matmul(a: Var, b: Var) -> Var:
    """Matrix product a @ b."""
    tape = _check_same_tape(a, b)
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul shape mismatch: {a.shape} @ {b.shape}")
    av, bv = a.value, b.value
    out = av @ bv
    return tape._record(out, ((a, lambda g, o, add: _deliver(o, add, np.matmul, g, bv.T)),
                              (b, lambda g, o, add: _deliver(o, add, np.matmul, av.T, g))))


def affine(w: Var, x: Var, b: Var) -> Var:
    """w @ x + b with the bias column broadcast across samples."""
    tape = _check_same_tape(w, x, b)
    if w.shape[1] != x.shape[0] or b.shape != (w.shape[0], 1):
        raise ValueError(f"affine shape mismatch: w{w.shape}, x{x.shape}, b{b.shape}")
    wv, xv = w.value, x.value
    out = wv @ xv + b.value
    parents = (
        (w, lambda g, o, add: _deliver(o, add, np.matmul, g, xv.T)),
        (x, lambda g, o, add: _deliver(o, add, np.matmul, wv.T, g)),
        (b, lambda g, o, add: _deliver(o, add, np.sum, g, axis=1, keepdims=True)),
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
    return x.tape._record(out, ((x, lambda g, o, add: _deliver(o, add, np.multiply, g, mask)),))


def frob_sq(x: Var) -> Var:
    """Sum of squared entries as a 1x1 Var."""
    xv = x.value
    out = np.array([[np.sum(xv * xv)]], dtype=np.float64)
    return x.tape._record(out, ((x, lambda g, o, add: _deliver(
        o, add, np.multiply, xv, 2.0 * float(g[0, 0]))),))


def sup_norm_rows(q: Var) -> Var:
    """Sum over rows of the row sup-norm: sum_i max_j |q_ij|.

    The subgradient places sign(q[i, j*]) at each row's first maximal
    column j* (lowest index on ties) and zero elsewhere.  The forward finds
    j* in row blocks (see _row_blocks), and the VJP touches only the n
    entries (i, j*) of an array that already holds a contribution.
    """
    qv = q.value
    rows = np.arange(qv.shape[0])
    j_star = np.empty(qv.shape[0], dtype=np.intp)
    for rs, block in _row_blocks(qv, qv.dtype):
        j_star[rs] = np.argmax(np.abs(qv[rs], out=block), axis=1)  # first occurrence
    peak = qv[rows, j_star]
    out = np.array([[np.sum(np.abs(peak))]], dtype=np.float64)
    sign = np.sign(peak)

    def vjp(g, out, add):
        if out is None:
            out, add = np.zeros_like(qv), True
        elif not add:
            out[...] = 0
        out[rows, j_star] += sign * float(g[0, 0])
        return out

    return q.tape._record(out, ((q, vjp),))


def graph_penalty(a: Var, b: Var, alpha: float, beta: float) -> Var:
    """alpha ||a||_F^2 + beta ||a - b||_F^2 as a 1x1 Var, in one node.

    The VJPs are g ((2 alpha + 2 beta) a - 2 beta b) for a and
    g 2 beta (b - a) for b.  The forward (two dot products per block) and
    both VJPs work in row blocks through a block of scratch allocated per
    call (see _row_blocks), so the node keeps only its inputs and makes no
    n x n temporary.
    """
    tape = _check_same_tape(a, b)
    if a.shape != b.shape:
        raise ValueError(f"graph_penalty shape mismatch: {a.shape} vs {b.shape}")
    alpha, beta = float(alpha), float(beta)
    av, bv = a.value, b.value
    dtype = np.result_type(av, bv)
    sq_a = sq_diff = 0.0
    for rs, diff in _row_blocks(av, dtype):
        np.subtract(av[rs], bv[rs], out=diff)
        sq_a += float(np.vdot(av[rs], av[rs]))
        sq_diff += float(np.vdot(diff, diff))
    out = np.array([[alpha * sq_a + beta * sq_diff]], dtype=np.float64)

    def blend(x, cx, y, cy):
        """The VJP g (cx x - cy y)."""
        def vjp(g, out, add):
            scale = float(g[0, 0])
            if out is None:
                out, add = np.empty(x.shape, dtype), False
            for rs, t in _row_blocks(x, out.dtype):
                np.multiply(y[rs], cy * scale, out=t)
                if add:
                    out[rs] -= t
                    np.multiply(x[rs], cx * scale, out=t)
                    out[rs] += t
                else:
                    np.multiply(x[rs], cx * scale, out=out[rs])
                    out[rs] -= t
            return out
        return vjp

    return tape._record(out, ((a, blend(av, 2.0 * (alpha + beta), bv, 2.0 * beta)),
                              (b, blend(bv, 2.0 * beta, av, 2.0 * beta))))


def add(a: Var, b: Var) -> Var:
    tape = _check_same_tape(a, b)
    if a.shape != b.shape:
        raise ValueError(f"add shape mismatch: {a.shape} vs {b.shape}")
    copy = lambda g, o, add: _deliver(o, add, np.positive, g)
    return tape._record(a.value + b.value, ((a, copy), (b, copy)))


def sub(a: Var, b: Var) -> Var:
    tape = _check_same_tape(a, b)
    if a.shape != b.shape:
        raise ValueError(f"sub shape mismatch: {a.shape} vs {b.shape}")
    return tape._record(a.value - b.value,
                        ((a, lambda g, o, add: _deliver(o, add, np.positive, g)),
                         (b, lambda g, o, add: _deliver(o, add, np.negative, g))))


def scale(x: Var, c: float) -> Var:
    c = float(c)
    return x.tape._record(c * x.value,
                          ((x, lambda g, o, add: _deliver(o, add, np.multiply, g, c)),))


# ---------------------------------------------------------------------------
# Adam optimizer over one flat parameter vector.
# ---------------------------------------------------------------------------

# Adam's moment decay rates and the guard added to its denominator.
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8


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
    _BETA2, the guard _EPS.  The moments m and v are the textbook ones; the
    bias corrections c1 = 1 - _BETA1^t and c2 = 1 - _BETA2^t are folded into
    two scalars, p -= (lr sqrt(c2) / c1) m / (sqrt(v) + _EPS sqrt(c2)),
    which are Python floats, so a float32 step computes in float32.  The
    vector is updated one block of _ADAM_BLOCK elements at a time through
    the two blocks of `state.scratch`, so no array is allocated; every
    element sees the same operations in the same order.
    """
    if t < 1:
        raise ValueError(f"Adam step count must be >= 1, got {t}")
    if p.ndim != 1:
        raise ValueError(f"Adam steps a 1-D parameter vector, got shape {p.shape}")
    if g.shape != p.shape:
        raise ValueError(f"gradient shape {g.shape} != parameter shape {p.shape}")
    c1, c2 = 1.0 - _BETA1**t, 1.0 - _BETA2**t
    step, eps = float(lr) * math.sqrt(c2) / c1, _EPS * math.sqrt(c2)
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
        np.sqrt(vb, out=b)
        b += eps
        np.multiply(mb, step, out=a)
        a /= b
        pb -= a
