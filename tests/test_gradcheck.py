import inspect

import numpy as np

import allg.autodiff as ad
import allg.gradcheck as gc


def test_all_ops_pass_at_tolerance():
    reports = gc.run_all()
    names = [r.name for r in reports]
    assert names == ["matmul", "affine", "relu", "frob_sq", "sup_norm_rows",
                     "add", "sub", "scale", "graph_penalty", "composite_total_loss"]
    for r in reports:
        assert r.passed, f"{r.name}: {r.max_rel_err}"


def test_corrupted_matmul_backward_is_caught(monkeypatch):
    # harness sanity: a deliberately mis-scaled backward rule must fail
    def bad_matmul(x, y):
        xv, yv = x.value, y.value
        return x.tape._record(xv @ yv, (
            (x, lambda g, o, add: ad._deliver(o, add, np.multiply, g @ yv.T, 1.01)),
            (y, lambda g, o, add: ad._deliver(o, add, np.multiply, xv.T @ g, 0.99))))

    monkeypatch.setattr(ad, "matmul", bad_matmul)
    reports = gc.run_all()
    by_name = {r.name: r for r in reports}
    assert not by_name["matmul"].passed
    assert by_name["affine"].passed  # only the corrupted op fails


def test_composite_uses_toy_dimensions():
    cfg, params, x, a0 = gc.composite_setup()
    assert x.shape == (8, 12)
    assert cfg.encoder_dims[-1] == 4 and cfg.n_matrices == 2
    assert params["q"].shape == (12, 12)


def test_every_tape_op_has_a_row():
    # a new op joins the check as one OPS row; adam_step is the one non-op
    public = {name: fn for name, fn in inspect.getmembers(ad, inspect.isfunction)
              if fn.__module__ == ad.__name__ and not name.startswith("_")}
    ops = {name for name, fn in public.items()
           if inspect.signature(fn).return_annotation is ad.Var}
    assert ops == set(public) - {"adam_step"}
    assert set(gc.OPS) == ops
