"""Independent brute-force oracles used to pin expected test values.

Everything here is written as plain loops (or a second, unrelated
algorithm) on purpose: these functions must not share code paths with the
package implementations they check.
"""

import numpy as np


def naive_matmul(a, b):
    p, q = a.shape
    q2, r = b.shape
    assert q == q2
    out = np.zeros((p, r))
    for i in range(p):
        for j in range(r):
            acc = 0.0
            for k in range(q):
                acc += a[i, k] * b[k, j]
            out[i, j] = acc
    return out


def naive_frob_sq(x):
    acc = 0.0
    for i in range(x.shape[0]):
        for j in range(x.shape[1]):
            acc += x[i, j] * x[i, j]
    return acc


def naive_sup_norm_rows(q):
    acc = 0.0
    for i in range(q.shape[0]):
        best = 0.0
        for j in range(q.shape[1]):
            best = max(best, abs(q[i, j]))
        acc += best
    return acc


def naive_loss_adjacency(a1, a0, alpha, beta):
    return alpha * naive_frob_sq(a1) + beta * naive_frob_sq(a1 - a0)


def naive_loss_propagation(mats, alpha_p, beta_p):
    acc = 0.0
    for l in range(1, len(mats)):
        acc += alpha_p * naive_frob_sq(mats[l]) + beta_p * naive_frob_sq(mats[l] - mats[l - 1])
    return acc


def naive_loss_selection(s_out, q, lam):
    return naive_frob_sq(s_out - naive_matmul(s_out, q)) + lam * naive_sup_norm_rows(q)


def brute_force_knn_columns(x, k):
    """Neighbor list per column by exhaustive (distance, index) sorting."""
    d, n = x.shape
    neighbors = []
    for j in range(n):
        dists = []
        for i in range(n):
            if i == j:
                continue
            delta = x[:, i] - x[:, j]
            dists.append((float(delta @ delta), i))
        dists.sort()
        neighbors.append([i for _, i in dists[:k]])
    return neighbors


def brute_force_knn_adjacency(x, k):
    n = x.shape[1]
    a = np.zeros((n, n))
    for j, nbrs in enumerate(brute_force_knn_columns(x, k)):
        for i in nbrs:
            a[i, j] = 1.0
    return np.maximum(a, a.T)


def gram_leverage_scores(x, rank):
    """Top-rank leverage scores via the Gram-matrix eigendecomposition.

    Deliberately a different route (eigh of x^T x) from any SVD-based
    implementation.
    """
    g = x.T @ x
    g = 0.5 * (g + g.T)
    vals, vecs = np.linalg.eigh(g)
    order = np.argsort(vals)[::-1][:rank]
    top = vecs[:, order]
    return np.sum(top * top, axis=1)


def finite_diff(f, arrays, eps=1e-5):
    """Central-difference gradients of the scalar f(arrays) per entry."""
    grads = {}
    for key, arr in arrays.items():
        g = np.zeros_like(arr)
        flat, gflat = arr.reshape(-1), g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = f(arrays)
            flat[i] = orig - eps
            lo = f(arrays)
            flat[i] = orig
            gflat[i] = (hi - lo) / (2 * eps)
        grads[key] = g
    return grads


def rel_err(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(a), np.linalg.norm(b), 1e-300)


def _straight_line_mlp(params, part, h, cfg, final_activation):
    """The encoder (part "enc") or decoder ("dec") layers applied to h, one by one."""
    n_layers = len(cfg.encoder_dims) - 1
    for l in range(n_layers):
        h = params[f"{part}_w{l}"] @ h + params[f"{part}_b{l}"]
        if l < n_layers - 1 or final_activation == "relu":
            h = np.maximum(h, 0.0)
    return h


def straight_line_reconstruction(params, x, cfg):
    """Stage-1 loss ||X - decode(encode(X))||_F^2 of a plain autoencoder, without autodiff."""
    z = _straight_line_mlp(params, "enc", x, cfg, cfg.encoder_final_activation)
    return naive_frob_sq(x - _straight_line_mlp(params, "dec", z, cfg,
                                                cfg.decoder_final_activation))


def straight_line_forward(params, x, a0, cfg):
    """Non-autodiff reimplementation of the full forward pass.

    Mirrors the model contract step by step with explicit loops over
    layers, returning every intermediate plus the four loss terms.
    """
    relu = lambda m: np.maximum(m, 0.0)
    z = _straight_line_mlp(params, "enc", x, cfg, cfg.encoder_final_activation)
    # the matrix at each chain position: knn_only propagates through A_0 itself
    chain = []
    for i in range(cfg.n_matrices):
        if cfg.variant == "knn_only":
            chain.append(a0)
        elif cfg.variant == "tied_two":
            chain.append(params["adj0"])
        else:
            chain.append(params[f"adj{i}"])
    s_layers = []
    s = z
    for a in chain:
        s = relu(s @ a)
        s_layers.append(s)
    if not s_layers:
        s_out = z
    elif cfg.variant != "full":
        s_out = s_layers[-1]
    elif cfg.shortcut_weight == 1.0:
        s_out = s_layers[cfg.shortcut_layer - 1]
    elif cfg.shortcut_weight == 0.0 or cfg.shortcut_layer == len(s_layers):
        s_out = s_layers[-1]
    else:
        s_out = (cfg.shortcut_weight * s_layers[cfg.shortcut_layer - 1]
                 + (1.0 - cfg.shortcut_weight) * s_layers[-1])
    dec_in = s_out @ params["q"]
    y = _straight_line_mlp(params, "dec", dec_in, cfg, cfg.decoder_final_activation)
    l_r = naive_frob_sq(x - y)
    l_a = naive_loss_adjacency(chain[0], a0, cfg.alpha, cfg.beta) if chain else 0.0
    l_p = naive_loss_propagation(chain, cfg.alpha_p, cfg.beta_p) if chain else 0.0
    l_s = naive_loss_selection(s_out, params["q"], cfg.lam)
    return {
        "latent": z, "s_layers": s_layers, "s_out": s_out,
        "decoder_input": dec_in, "x_hat": y,
        "recon": l_r, "adjacency": l_a, "propagation": l_p, "selection": l_s,
        "total": l_r + l_a + l_p + l_s,
    }


def adam_reference(x0, grad_fn, lr, steps, beta1=0.9, beta2=0.999, eps=1e-8):
    """Scalar Adam recurrence written out by hand."""
    x, m, v = float(x0), 0.0, 0.0
    trace = [x]
    for t in range(1, steps + 1):
        g = grad_fn(x)
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        mhat = m / (1 - beta1**t)
        vhat = v / (1 - beta2**t)
        x = x - lr * mhat / (vhat**0.5 + eps)
        trace.append(x)
    return trace


def svm_weights_reference(xa, y_train, classes, C, max_iter):
    """The one-vs-rest primal finite Newton method with its exact line search
    walked one breakpoint at a time.

    Pins the bits of `allg.evaluate._svm_weights`: same arguments, same weight
    matrix, element for element.  Linear algebra (the margins, the Newton system
    and the line search's opening dot products) uses the same numpy calls, so
    their rounding matches; the active sets, the breakpoint order and the walk to
    the slope's root are plain loops over the samples.
    """
    dim, m = xa.shape
    weights = np.zeros((classes.size, dim))
    for ci, c in enumerate(classes):
        sign = np.where(y_train == c, 1.0, -1.0)
        yx = xa * sign
        w, margins = np.zeros(dim), np.zeros(m)
        for _ in range(max_iter):
            active = [i for i in range(m) if margins[i] < 1.0]
            xs = xa[:, active]
            w_bar = np.linalg.solve(np.eye(dim) + 2.0 * C * (xs @ xs.T),
                                    2.0 * C * (xs @ sign[active]))
            margins_bar = w_bar @ yx
            if [i for i in range(m) if margins_bar[i] < 1.0] == active:
                w = w_bar
                break
            step = w_bar - w
            slack, dm = 1.0 - margins, margins_bar - margins
            # The slope along w + t * step is a + b t over the samples with positive
            # slack; walk the breakpoints where a slack changes sign, in t order.
            on = [i for i in range(m) if slack[i] > 0.0 or (slack[i] == 0.0 and dm[i] < 0.0)]
            a = w @ step - 2.0 * C * (dm[on] @ slack[on])
            b = step @ step + 2.0 * C * (dm[on] @ dm[on])
            for i in sorted((i for i in range(m) if slack[i] * dm[i] > 0.0),
                            key=lambda i: (slack[i] / dm[i], i)):
                if a + b * (slack[i] / dm[i]) >= 0.0:
                    break
                enter = 2.0 * C if dm[i] < 0.0 else -2.0 * C
                a += -enter * dm[i] * slack[i]
                b += enter * dm[i] * dm[i]
            w = w + (-a / b) * step
            margins = w @ yx
        weights[ci] = w
    return weights


def squared_hinge(w, xa, sign, C):
    """(1/2)||w||^2 + C * sum max(0, 1 - sign_i w.x_i)^2 and its gradient, plus the
    norm of each of the gradient's two terms (the scale of its rounding error)."""
    slack = np.maximum(0.0, 1.0 - sign * (w @ xa))
    loss_grad = -2.0 * C * (xa @ (sign * slack))
    terms = (float(np.linalg.norm(w)), float(np.linalg.norm(loss_grad)))
    return 0.5 * (w @ w) + C * (slack @ slack), w + loss_grad, terms


def squared_hinge_minimum(xa, sign, C):
    """The squared-hinge objective's minimum as scipy's L-BFGS-B finds it from w = 0."""
    from scipy.optimize import minimize

    res = minimize(lambda w: squared_hinge(w, xa, sign, C)[:2], np.zeros(xa.shape[0]),
                   jac=True, method="L-BFGS-B",
                   options={"maxiter": 10000, "ftol": 1e-15, "gtol": 1e-12})
    return float(res.fun)


def softmax_cross_entropy(w, xa, onehot, reg):
    """Mean softmax cross-entropy of the columns of xa plus (reg/2)||w||^2, and its
    gradient; w holds one row per class and onehot one column per sample."""
    scores = w @ xa
    scores = scores - scores.max(axis=0, keepdims=True)
    logp = scores - np.log(np.exp(scores).sum(axis=0, keepdims=True))
    m = xa.shape[1]
    objective = -(onehot * logp).sum() / m + 0.5 * reg * (w * w).sum()
    return objective, (np.exp(logp) - onehot) @ xa.T / m + reg * w


def softmax_cross_entropy_minimum(xa, onehot, reg):
    """The objective's minimum as scipy's L-BFGS-B finds it from w = 0."""
    from scipy.optimize import minimize

    shape = (onehot.shape[0], xa.shape[0])

    def fun(wflat):
        objective, grad = softmax_cross_entropy(wflat.reshape(shape), xa, onehot, reg)
        return objective, grad.ravel()

    res = minimize(fun, np.zeros(shape[0] * shape[1]), jac=True, method="L-BFGS-B",
                   options={"maxiter": 10000, "ftol": 1e-15, "gtol": 1e-12})
    return float(res.fun)
