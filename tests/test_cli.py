import contextlib
import dataclasses
import json
import os
import re

import numpy as np
import pytest

import allg
from allg.cli import CONFIG_KEYS, GRID_KEYS, SELECTOR_KEYS, main
from allg.data import DATASET_KEYS
from allg.evaluate import SELECTORS
from allg.model import _wording, check_options
from pools import make_blobs, save_csv


@pytest.fixture()
def blobs_csv(tmp_path):
    ds = make_blobs(15, 3, d=4, spread=1.0, seed=6)
    path = tmp_path / "blobs.csv"
    save_csv(ds, path)
    return str(path)


def _model_json(**overrides):
    model = {"encoder_dims": [4, 4, 3], "pretrain_epochs": 30, "train_epochs": 40,
             "knn_k": 3}
    model.update(overrides)
    return model


def _write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


class TestSelect:
    def test_artifacts_written_and_parse_back(self, tmp_path, blobs_csv, capsys):
        out = tmp_path / "run1"
        cfg = _write_config(tmp_path, {"model": _model_json()})
        code = main(["select", "--config", cfg, "--dataset", blobs_csv,
                     "--label-column", "label", "--out", str(out), "--m", "10",
                     "--seed", "1"])
        assert code == 0
        lines = (out / "ranking.csv").read_text().splitlines()
        assert lines[0] == "index,score"
        assert len(lines) == 11  # header + top-10
        indices = [int(l.split(",")[0]) for l in lines[1:]]
        scores = [float(l.split(",")[1]) for l in lines[1:]]
        assert len(set(indices)) == 10
        assert scores == sorted(scores, reverse=True)
        assert (out / "losses.csv").exists()
        assert (out / "checkpoint.npz").exists()
        run_meta = json.loads((out / "run.json").read_text())
        assert run_meta["config"]["seed"] == 1
        params, cfg_back = allg.load_checkpoint(out / "checkpoint.npz")
        assert "q" in params

    def test_checkpoint_holds_float64_arrays(self, tmp_path, blobs_csv):
        # training computes in float32; the arrays it hands on are float64
        out = tmp_path / "run"
        cfg = _write_config(tmp_path, {"model": _model_json()})
        assert main(["select", "--config", cfg, "--dataset", blobs_csv,
                     "--label-column", "label", "--out", str(out)]) == 0
        with np.load(out / "checkpoint.npz") as npz:
            dtypes = {npz[k].dtype for k in npz.files if k != "__meta__"}
        assert dtypes == {np.dtype(np.float64)}

    def test_string_dataset_entry_with_flag_overrides(self, tmp_path, blobs_csv):
        out = tmp_path / "run_str"
        cfg = _write_config(tmp_path, {"dataset": blobs_csv, "model": _model_json()})
        code = main(["select", "--config", cfg, "--label-column", "label",
                     "--out", str(out), "--m", "5"])
        assert code == 0
        assert len((out / "ranking.csv").read_text().splitlines()) == 6

    def test_reads_the_csv_through_data_load_csv(self, tmp_path, blobs_csv, monkeypatch):
        # The benchmark's tracer times the read by patching allg.data.load_csv.
        calls = []
        real = allg.data.load_csv

        def counting_load_csv(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(allg.data, "load_csv", counting_load_csv)
        cfg = _write_config(tmp_path, {"model": _model_json()})
        assert main(["select", "--config", cfg, "--dataset", blobs_csv,
                     "--label-column", "label", "--out", str(tmp_path / "o")]) == 0
        assert calls == [1]

    def test_byte_identical_reruns(self, tmp_path, blobs_csv):
        cfg = _write_config(tmp_path, {"model": _model_json()})
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["select", "--config", cfg, "--dataset", blobs_csv,
                         "--label-column", "label", "--out", str(out),
                         "--seed", "3"]) == 0
            outs.append(out)
        for fname in ("ranking.csv", "losses.csv", "run.json"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes(), fname
        # Every file that evaluate, grid and ablate write repeats byte for byte too.
        # run.json records the output directory, so both runs write to the same one.
        cfg = _write_config(tmp_path, {
            "model": _model_json(pretrain_epochs=10, train_epochs=10),
            "protocol": {"budgets": [4, 8], "runs": 2, "logreg_max_iter": 50,
                         "svm_sweeps": 20},
            "grid": {"alpha": [0.1, 1.0], "beta": [1.0], "lambda": [1.0]},
        }, name="all.json")
        for command in ("evaluate", "grid", "ablate"):
            out = tmp_path / command
            runs = []
            for _ in range(2):
                assert main([command, "--config", cfg, "--dataset", blobs_csv,
                             "--label-column", "label", "--out", str(out),
                             "--seed", "3"]) == 0
                runs.append({f: (out / f).read_bytes() for f in sorted(os.listdir(out))})
                for f in runs[-1]:
                    (out / f).unlink()
            assert len(runs[0]) >= 3 and runs[0] == runs[1], command

    def test_overflowing_last_update_exits_4(self, tmp_path, capsys):
        # the loss check runs before each update, so only the check of the
        # parameters after the last one sees this overflow
        data = tmp_path / "data.csv"
        save_csv(make_blobs(20, 3, d=6, seed=1), data)
        cfg = _write_config(tmp_path, {"model": {"encoder_dims": [6, 4, 3], "pretrain_epochs": 0,
                                                 "train_epochs": 1, "knn_k": 3, "lr": 1e37}})
        out = tmp_path / "run"
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["select", "--config", cfg, "--dataset", str(data),
                         "--label-column", "label", "--out", str(out)])
        assert code == 4
        assert "after train epoch 1" in capsys.readouterr().err
        assert not (out / "ranking.csv").exists()


class TestEvaluate:
    def test_three_selector_report(self, tmp_path, blobs_csv):
        out = tmp_path / "eval"
        cfg = _write_config(tmp_path, {
            "protocol": {"budgets": [4, 8], "runs": 2,
                         "classifiers": ["logistic_regression"],
                         "logreg_max_iter": 300},
        })
        code = main(["evaluate", "--config", cfg, "--dataset", blobs_csv,
                     "--label-column", "label", "--out", str(out),
                     "--selector", "random,kmeans,dcs", "--seed", "0"])
        assert code == 0
        report = (out / "report.csv").read_text().splitlines()
        assert report[0] == "selector,classifier,budget,seed,accuracy"
        assert len(report) == 1 + 3 * 2 * 1 * 2
        means = (out / "means.csv").read_text().splitlines()
        assert means[0] == "selector,classifier,budget,mean_accuracy"
        assert len(means) == 1 + 3 * 1 * 2  # one row per (selector, budget) mean
        summary = json.loads((out / "summary.json").read_text())
        # the Average field equals the mean over budget means
        for sel in ("random", "kmeans", "dcs"):
            block = summary[sel]["logistic_regression"]
            assert block["average"] == pytest.approx(
                np.mean(list(block["budgets"].values())))
        # every command leaves a reproducible config snapshot
        snapshot = json.loads((out / "run.json").read_text())
        assert snapshot["command"] == "evaluate"
        assert snapshot["config"]["seed"] == 0

    def test_accuracy_cells_in_unit_interval(self, tmp_path, blobs_csv):
        # the runs use the seeds seed, seed + 1, ..., seed + runs - 1
        for runs, seeds in ((1, {"4"}), (2, {"4", "5"})):
            out = tmp_path / f"eval{runs}"
            protocol = {"budgets": [6], "runs": runs, "classifiers": ["linear_svm"],
                        "svm_sweeps": 100}
            cfg = _write_config(tmp_path, {"protocol": protocol}, name=f"cfg{runs}.json")
            assert main(["evaluate", "--config", cfg, "--dataset", blobs_csv,
                         "--label-column", "label", "--out", str(out),
                         "--selector", "random", "--seed", "4"]) == 0
            rows = (out / "report.csv").read_text().splitlines()[1:]
            assert {row.split(",")[3] for row in rows} == seeds
            for row in rows:
                acc = float(row.split(",")[-1])
                assert 0.0 <= acc <= 1.0

    def test_nonfinite_svm_exits_4(self, tmp_path, blobs_csv, capsys):
        # At this C the SVM's Newton matrix is singular in float64; argmax would
        # turn NaN weights into class 0 without a word.
        out = tmp_path / "eval"
        cfg = _write_config(tmp_path, {"protocol": {"svm_c": 1e300, "budgets": [4, 8]}})
        assert main(["evaluate", "--config", cfg, "--dataset", blobs_csv,
                     "--label-column", "label", "--out", str(out)]) == 4
        assert "linear SVM fit at svm_c 1e+300 is not finite" in capsys.readouterr().err
        assert not (out / "report.csv").exists()


class TestGrid:
    def test_single_point_grid(self, tmp_path, blobs_csv):
        out = tmp_path / "grid1"
        cfg = _write_config(tmp_path, {
            "model": _model_json(pretrain_epochs=5, train_epochs=8),
            "grid": {"alpha": [1.0], "beta": [1.0], "lambda": [1.0]},
            "protocol": {"budgets": [4], "runs": 1,
                         "classifiers": ["logistic_regression"],
                         "logreg_max_iter": 100},
        })
        assert main(["grid", "--config", cfg, "--dataset", blobs_csv,
                     "--label-column", "label", "--out", str(out)]) == 0
        best = json.loads((out / "best.json").read_text())
        assert (best["alpha"], best["beta"], best["lambda"]) == (1.0, 1.0, 1.0)
        rows = (out / "grid.csv").read_text().splitlines()
        assert len(rows) == 2

    def test_default_grid_has_27_rows(self, tmp_path, blobs_csv):
        out = tmp_path / "grid27"
        cfg = _write_config(tmp_path, {
            "model": _model_json(pretrain_epochs=2, train_epochs=3),
            "protocol": {"budgets": [4], "runs": 1,
                         "classifiers": ["logistic_regression"],
                         "logreg_max_iter": 50},
        })
        assert main(["grid", "--config", cfg, "--dataset", blobs_csv,
                     "--label-column", "label", "--out", str(out)]) == 0
        rows = (out / "grid.csv").read_text().splitlines()[1:]
        assert len(rows) == 27
        combos = [tuple(float(v) for v in r.split(",")[:3]) for r in rows]
        assert combos == sorted(combos)  # deterministic ordering

    def test_points_share_one_prior_and_one_pretrain(self, tmp_path, blobs_csv, stage1_calls):
        cfg = _write_config(tmp_path, {
            "model": _model_json(pretrain_epochs=3, train_epochs=3),
            "grid": {"alpha": [0.1, 1.0], "beta": [1.0], "lambda": [0.1, 1.0]},
            "protocol": {"budgets": [4], "classifiers": ["logistic_regression"],
                         "logreg_max_iter": 50},
        })
        assert main(["grid", "--config", cfg, "--dataset", blobs_csv,
                     "--label-column", "label", "--out", str(tmp_path / "g")]) == 0
        assert stage1_calls == {"knn_graph": 1, "pretrain": 1}

    def test_sharing_leaves_every_file_unchanged(self, tmp_path, blobs_csv, monkeypatch):
        cfg = _write_config(tmp_path, {
            "model": _model_json(pretrain_epochs=5, train_epochs=5, prior_normalize="col"),
            "grid": {"alpha": [0.1, 1.0], "beta": [1.0, 10.0], "lambda": [1.0]},
            "protocol": {"budgets": [4, 8], "logreg_max_iter": 50, "svm_sweeps": 20},
        })
        out = tmp_path / "g"
        runs = []
        for memo in (allg.cli.stage1_memo, contextlib.nullcontext):
            monkeypatch.setattr(allg.cli, "stage1_memo", memo)
            assert main(["grid", "--config", cfg, "--dataset", blobs_csv,
                         "--label-column", "label", "--out", str(out)]) == 0
            runs.append({f: (out / f).read_bytes() for f in sorted(os.listdir(out))})
        assert len(runs[0]) == 3 and runs[0] == runs[1]

    def test_each_command_builds_its_own_prior_and_pretrain(self, tmp_path, blobs_csv,
                                                            stage1_calls):
        cfg = _write_config(tmp_path, {
            "model": _model_json(pretrain_epochs=3, train_epochs=3),
            "grid": {"alpha": [0.1, 1.0], "beta": [1.0], "lambda": [1.0]},
            "protocol": {"budgets": [4], "classifiers": ["logistic_regression"],
                         "logreg_max_iter": 50},
        })
        for command in ("grid", "grid", "select"):
            assert main([command, "--config", cfg, "--dataset", blobs_csv,
                         "--label-column", "label", "--out", str(tmp_path / command)]) == 0
            assert stage1_calls == {"knn_graph": 1, "pretrain": 1}, command
            stage1_calls.update(knn_graph=0, pretrain=0)


class TestAblate:
    def test_schema_and_coverage(self, tmp_path, blobs_csv):
        out = tmp_path / "ablate"
        cfg = _write_config(tmp_path, {
            "model": _model_json(pretrain_epochs=5, train_epochs=8),
            "protocol": {"budgets": [4], "runs": 2,
                         "classifiers": ["logistic_regression"],
                         "logreg_max_iter": 100},
        })
        assert main(["ablate", "--config", cfg, "--dataset", blobs_csv,
                     "--label-column", "label", "--out", str(out), "--seed", "3"]) == 0
        rows = (out / "ablation.csv").read_text().splitlines()
        assert rows[0].startswith("variant,classifier,")
        assert rows[0].endswith(",average")
        variants = [r.split(",")[0] for r in rows[1:]]
        assert variants == ["no_graph", "knn_only", "one_matrix", "tied_two",
                            "distinct_two", "full"]
        # every variant evaluated for every seed on the shared protocol
        report = (out / "ablation_report.csv").read_text().splitlines()[1:]
        seen = {(r.split(",")[0], r.split(",")[3]) for r in report}
        assert seen == {(v, s) for v in variants for s in ("3", "4")}

    def test_variants_of_a_run_share_one_prior(self, tmp_path, blobs_csv, stage1_calls):
        # each variant's seed derives from its label, so each pretrains anew
        cfg = _write_config(tmp_path, {
            "model": _model_json(pretrain_epochs=3, train_epochs=3),
            "protocol": {"budgets": [4], "runs": 2, "classifiers": ["logistic_regression"],
                         "logreg_max_iter": 50},
        })
        assert main(["ablate", "--config", cfg, "--dataset", blobs_csv,
                     "--label-column", "label", "--out", str(tmp_path / "a")]) == 0
        assert stage1_calls == {"knn_graph": 2, "pretrain": 2 * len(allg.model.VARIANTS)}

    def test_full_variant_beats_no_graph_on_noisy_blobs(self):
        # property mirroring the ablation table's ordering on a fixture
        # noisy enough that graph smoothing matters
        from allg.evaluate import Protocol, run_protocol, summarize
        ds = make_blobs(100, 3, d=8, spread=4.5, seed=11)
        model = {"encoder_dims": (8, 16, 8), "pretrain_epochs": 1000,
                 "train_epochs": 1000, "knn_k": 5, "alpha": 10.0, "beta": 10.0,
                 "lam": 10.0, "encoder_final_activation": "linear",
                 "prior_normalize": "col"}
        proto = Protocol(budgets=(15,), runs=5, classifiers=("logistic_regression",))
        specs = [allg.SelectorSpec("allg", params={**model, "variant": v, "name": v})
                 for v in ("no_graph", "full")]
        summary = summarize(run_protocol(ds, specs, proto))
        assert (summary["full"]["logistic_regression"]["average"]
                >= summary["no_graph"]["logistic_regression"]["average"])


class TestGradcheckCommand:
    def test_passes_and_lists_every_op(self, capsys):
        assert main(["gradcheck"]) == 0
        text = capsys.readouterr().out
        for op in ("matmul", "affine", "relu", "frob_sq", "sup_norm_rows",
                   "add", "sub", "scale", "graph_penalty", "composite_total_loss"):
            assert op in text
        assert "FAIL" not in text

    def test_writes_text_report(self, tmp_path):
        out = tmp_path / "gc"
        assert main(["gradcheck", "--out", str(out)]) == 0
        report = (out / "gradcheck.txt").read_text()
        assert report.count("PASS") == 10

    def test_out_naming_a_file_fails_before_any_check(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(allg.cli, "run_all", lambda: pytest.fail("checks ran"))
        out = tmp_path / "taken"
        out.write_text("", encoding="utf-8")
        assert main(["gradcheck", "--out", str(out)]) == 2
        assert "'out'" in capsys.readouterr().err

    def test_takes_no_config_or_seed(self):
        # gradcheck reads neither, so argparse refuses them (exit 2)
        for flags in (["--seed", "3"], ["--config", "missing.json"]):
            with pytest.raises(SystemExit) as exc:
                main(["gradcheck", *flags])
            assert exc.value.code == 2


class TestSubsample:
    def test_select_on_subsampled_pool(self, tmp_path, blobs_csv):
        out = tmp_path / "sub"
        cfg = _write_config(tmp_path, {"model": _model_json(pretrain_epochs=5,
                                                            train_epochs=8)})
        assert main(["select", "--config", cfg, "--dataset", blobs_csv,
                     "--label-column", "label", "--out", str(out),
                     "--subsample", "20", "--seed", "2"]) == 0
        rows = (out / "ranking.csv").read_text().splitlines()[1:]
        assert len(rows) == 20
        meta = json.loads((out / "run.json").read_text())
        assert meta["n_candidates"] == 20


class TestExitCodes:
    def test_missing_dataset_file_is_data_error(self, tmp_path):
        assert main(["select", "--dataset", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path / "o")]) == 3

    @pytest.mark.parametrize("text, message", [("", "is empty"), ("a,b,label\n", "no data rows")],
                             ids=["empty", "header_only"])
    def test_csv_without_data_rows_is_data_error(self, tmp_path, capsys, text, message):
        path = tmp_path / "t.csv"
        path.write_text(text, encoding="utf-8")
        assert main(["select", "--dataset", str(path), "--out", str(tmp_path / "o")]) == 3
        assert message in capsys.readouterr().err

    def test_no_dataset_is_config_error(self, tmp_path):
        assert main(["select", "--out", str(tmp_path / "o")]) == 2

    def test_invalid_config_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        assert main(["select", "--config", str(bad)]) == 2

    def test_unreadable_config_file(self, tmp_path, capsys):
        assert main(["select", "--config", str(tmp_path / "missing.json")]) == 2
        assert "cannot read config file" in capsys.readouterr().err

    def test_non_integer_budget(self, tmp_path, blobs_csv, capsys):
        assert main(["evaluate", "--dataset", blobs_csv, "--label-column", "label",
                     "--out", str(tmp_path / "o"), "--budgets", "5,x"]) == 2
        assert "expected a comma-separated integer list, got '5,x'" in capsys.readouterr().err

    def test_unsupported_schema_version(self, tmp_path, blobs_csv):
        cfg = _write_config(tmp_path, {"schema_version": 99})
        assert main(["select", "--config", cfg, "--dataset", blobs_csv]) == 2

    def test_unknown_selector_kind(self, tmp_path, blobs_csv):
        out = tmp_path / "o"
        assert main(["evaluate", "--dataset", blobs_csv, "--label-column", "label",
                     "--out", str(out), "--selector", "mystery",
                     "--budgets", "4"]) == 2

    @pytest.mark.parametrize("entry", [
        {"params": {}},
        {"kind": "kmeans", "params": {"K": "3"}},
        {"kind": "dcs", "params": {"rank": 2.5}},
        {"kind": "random", "params": ["K", 3]},
    ], ids=["no_kind", "string_K", "float_rank", "list_params"])
    def test_bad_selector_entry(self, tmp_path, blobs_csv, entry):
        cfg = _write_config(tmp_path, {"selectors": [entry]})
        assert main(["evaluate", "--config", cfg, "--dataset", blobs_csv,
                     "--label-column", "label", "--out", str(tmp_path / "o"),
                     "--budgets", "4"]) == 2

    @pytest.mark.parametrize("command, payload, culprit", [
        ("evaluate", {"protocol": {"bogus": 1}}, "bogus"),
        ("grid", {"protocol": {"bogus": 1}}, "bogus"),
        ("evaluate", {"protocol": [1]}, "protocol"),
        ("grid", {"protocol": [1]}, "protocol"),
        ("evaluate", {"model": [1, 2]}, "model"),
        ("select", {"model": [1, 2]}, "model"),
        ("grid", {"model": [1, 2]}, "model"),
        ("evaluate", {"selectors": "random"}, "selectors"),
        ("grid", {"grid": [1]}, "grid"),
        ("grid", {"grid": {"alpha": 5}}, "alpha"),
        ("evaluate", {"dataset": [1]}, "dataset"),
        ("evaluate", {"protocol": {"budgets": 5}}, "budgets"),
        ("evaluate", {"protocol": {"runs": "2"}}, "runs"),
        ("evaluate", {"protocol": {"classifiers": "linear_svm"}}, "classifiers"),
        ("select", {"model": {"alpha": "x"}}, "alpha"),
        ("evaluate", {"protocol": {"budgets": ["x"]}}, "budgets"),
        ("select", {"model": {"encoder_dims": ["a", 2]}}, "encoder_dims"),
        ("evaluate", {"seed": "3"}, "seed"),
        ("select", {"subsample": 5.5}, "subsample"),
        ("evaluate", {"out": 5}, "out"),
        ("evaluate", {"registry": 3}, "registry"),
        ("evaluate", {"registry": "reg.json"}, "registry"),
        ("evaluate", {"bogus": 1}, "bogus"),
        ("evaluate", {"dataset": {"label_colum": "label"}}, "label_colum"),
        ("evaluate", {"selectors": [{"kind": "random", "param": {}}]}, "param"),
        ("evaluate", {"selectors": [{"kind": "kmeans", "params": {"k": 3}}]}, "k"),
        ("select", {"model": {"encoder_dims": [3, 2]}}, "encoder_dims"),
        ("evaluate", {"model": {"encoder_dims": [3, 2]}}, "encoder_dims"),
        ("grid", {"grid": {"beta": []}}, "beta"),
        ("evaluate", {"protocol": {"svm_c": -1}}, "svm_c"),
        ("grid", {"protocol": {"svm_c": 0.0}}, "svm_c"),
        ("evaluate", {"protocol": {"logreg_reg": -5}}, "logreg_reg"),
        ("evaluate", {"protocol": {"svm_sweeps": 0}}, "svm_sweeps"),
        ("evaluate", {"protocol": {"logreg_max_iter": 0}}, "logreg_max_iter"),
        ("evaluate", {"protocol": {"runs": 0}}, "runs"),
        ("ablate", {"protocol": {"runs": 0}}, "runs"),
        ("evaluate", {"protocol": {"candidate_fraction": 2}}, "candidate_fraction"),
        ("evaluate", {"protocol": {"seeds": [0, 1]}}, "seeds"),
        ("evaluate", {"protocol": {"budgets": [8, 4]}}, "budgets"),
        ("evaluate", {"protocol": {"budgets": [0, 4]}}, "budgets"),
        ("select", {"seed": -1, "subsample": 10}, "seed"),
        ("evaluate", {"seed": -1}, "seed"),
        ("select", {"selectors": [{"kind": "bogus"}]}, "bogus"),
        ("grid", {"selectors": [{"kind": "bogus"}]}, "bogus"),
        ("ablate", {"selectors": [{"kind": "bogus"}]}, "bogus"),
        ("grid", {"grid": {"alpha": [1, 1], "beta": [1], "lambda": [1]}}, "alpha"),
        ("grid", {"grid": {"lambda": [-1, 1]}}, "lambda"),
        ("select", {"model": {"knn_k": 0}}, "knn_k"),
        ("evaluate", {"model": {"lam": 0}}, "lam"),
        ("ablate", {"model": {"train_epochs": 0}}, "train_epochs"),
        ("select", {"model": {"prior_normalize": "rows"}}, "prior_normalize"),
        ("select", {"model": {"early_stop": True}}, "early_stop"),
        ("evaluate", {"model": {"early_stop": True}}, "early_stop"),
        ("evaluate", {"protocol": {"candidate_fraction": 1}}, "candidate_fraction"),
        ("select", {"subsample": 0}, "subsample"),
        ("select", {"subsample": 1}, "subsample"),
        ("evaluate", {"selectors": []}, "selectors"),
        ("select", {"selectors": []}, "selectors"),
        ("evaluate", {"selectors": ["random", "random"]}, "selectors"),
        ("evaluate", {"selectors": ["kmeans", {"kind": "kmeans", "params": {"K": 2}}]},
         "selectors"),
        ("evaluate", {"selectors": [1]}, "selectors"),
        ("evaluate", {"protocol": {"classifiers": []}}, "classifiers"),
        ("evaluate", {"protocol": {"classifiers": ["linear_svm", "linear_svm"]}},
         "classifiers"),
        ("grid", {"protocol": {"classifiers": []}}, "classifiers"),
        ("evaluate", {"protocol": {"classifiers": [1]}}, "classifiers"),
        ("evaluate", {"protocol": {"classifiers": ["svm"]}}, "classifiers"),
        ("select", {"model": {"variant": "no_shortcut"}}, "variant"),
        ("select", {"dataset": {"delimiter": ""}}, "delimiter"),
        ("evaluate", {"dataset": {"delimiter": ",,"}}, "delimiter"),
        ("evaluate", {"selectors": [{"kind": "allg", "params": {"seed": 5}}]}, "seed"),
        # json writes and reads these as Infinity
        ("evaluate", {"protocol": {"logreg_reg": float("inf")}}, "logreg_reg"),
        ("evaluate", {"protocol": {"svm_c": float("inf")}}, "svm_c"),
        ("select", {"model": {"lr": float("inf")}}, "lr"),
        ("select", {"model": {"alpha": float("inf")}}, "alpha"),
        ("grid", {"grid": {"alpha": [1, float("inf")]}}, "alpha"),
    ], ids=["protocol_key_evaluate", "protocol_key_grid", "protocol_list_evaluate",
            "protocol_list_grid", "model_list_evaluate", "model_list_select",
            "model_list_grid", "selectors_string", "grid_list", "grid_scalar_axis",
            "dataset_list", "budgets_scalar", "runs_string", "classifiers_string",
            "model_alpha_string", "budgets_string_entry", "encoder_dims_string_entry",
            "seed_string", "subsample_float", "out_integer", "registry_integer",
            "registry_string",
            "top_level_key", "dataset_key", "selector_entry_key", "kmeans_params_key",
            "encoder_dims_width_select", "encoder_dims_width_evaluate", "grid_empty_axis",
            "svm_c_negative", "svm_c_zero_grid", "logreg_reg_negative", "svm_sweeps_zero",
            "logreg_max_iter_zero", "runs_zero", "runs_zero_ablate",
            "candidate_fraction_above_one", "seeds_key", "budgets_descending",
            "budgets_zero", "seed_negative_subsample", "seed_negative_evaluate",
            "selector_kind_select", "selector_kind_grid", "selector_kind_ablate",
            "grid_repeated_value", "grid_axis_negative", "model_knn_k_zero",
            "model_lam_zero_evaluate", "model_train_epochs_zero_ablate",
            "model_prior_normalize_unknown", "model_early_stop_select",
            "model_early_stop_evaluate", "candidate_fraction_one", "subsample_zero",
            "subsample_one", "selectors_empty", "selectors_empty_select",
            "selectors_repeated", "selectors_repeated_label", "selectors_integer_entry",
            "classifiers_empty", "classifiers_repeated", "classifiers_empty_grid",
            "classifiers_integer_entry", "classifiers_unknown", "model_variant_alias",
            "dataset_delimiter_empty", "dataset_delimiter_two_characters",
            "allg_params_seed", "logreg_reg_infinite", "svm_c_infinite",
            "model_lr_infinite", "model_alpha_infinite", "grid_axis_infinite"])
    def test_malformed_config_block(self, tmp_path, blobs_csv, capsys, command, payload,
                                    culprit):
        cfg = _write_config(tmp_path, payload)
        assert main([command, "--config", cfg, "--dataset", blobs_csv,
                     "--label-column", "label", "--out", str(tmp_path / "o")]) == 2
        assert f"'{culprit}'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["select", "evaluate", "grid", "ablate"])
    @pytest.mark.parametrize("payload, culprit", [
        ({"protocol": {"runs": 0}}, "runs"),
        ({"protocol": {"classifiers": []}}, "classifiers"),
        ({"grid": {"alpha": [-1]}}, "alpha"),
        ({"grid": {"beta": [1, 1]}}, "beta"),
        ({"protocol": {"classifiers": [], "runs": 0}, "grid": {"alpha": []}}, "runs"),
        ({"model": {"knn_k": 0}}, "knn_k"),
        ({"model": {"variant": "bogus"}}, "variant"),
        ({"model": {"seed": 5}}, "seed"),
    ], ids=["runs_zero", "classifiers_empty", "grid_axis_negative", "grid_axis_repeated",
            "protocol_and_grid", "model_knn_k_zero", "model_variant_unknown", "model_seed"])
    def test_every_command_checks_every_block(self, tmp_path, blobs_csv, capsys, monkeypatch,
                                              command, payload, culprit):
        monkeypatch.setattr(allg.data, "load_csv", lambda **kw: pytest.fail("read the CSV"))
        cfg = _write_config(tmp_path, payload)
        assert main([command, "--config", cfg, "--dataset", blobs_csv,
                     "--label-column", "label", "--out", str(tmp_path / "o")]) == 2
        assert f"'{culprit}'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flag, culprit", [("--selector", "selectors"),
                                               ("--budgets", "budgets")])
    def test_empty_flag_is_an_empty_list(self, tmp_path, blobs_csv, capsys, fits, flag,
                                         culprit):
        # an empty flag overrides the config's list; it does not fall back to it
        cfg = _write_config(tmp_path, {"selectors": ["random"],
                                       "protocol": {"budgets": [3], "runs": 1}})
        assert main(["evaluate", "--config", cfg, "--dataset", blobs_csv,
                     "--label-column", "label", "--out", str(tmp_path / "o"), flag, ""]) == 2
        assert f"'{culprit}'" in capsys.readouterr().err
        assert fits == []
        assert not (tmp_path / "o").exists()

    def test_dataset_block_digit_label_column_is_an_index(self, tmp_path, blobs_csv):
        # blobs.csv holds four feature columns and then the label, column 4.
        cfg = _write_config(tmp_path, {"dataset": {"path": blobs_csv, "label_column": "4"}})
        assert main(["evaluate", "--config", cfg, "--selector", "random", "--budgets", "4",
                     "--out", str(tmp_path / "o")]) == 0

    def test_dataset_block_negative_label_column(self, tmp_path, blobs_csv, capsys,
                                                 monkeypatch):
        # no --label-column flag, which would replace the block's value
        monkeypatch.setattr(allg.data, "load_csv", lambda **kw: pytest.fail("read the CSV"))
        cfg = _write_config(tmp_path, {"dataset": {"path": blobs_csv, "label_column": -1}})
        assert main(["select", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "'label_column'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.fixture()
    def fits(self, monkeypatch):
        """Classifier fits made while the test runs; each returns accuracy 0.5."""
        calls = []

        def counting_fit(*args, **kwargs):
            calls.append(1)
            return 0.5

        monkeypatch.setattr(allg.evaluate, "train_logreg", counting_fit)
        monkeypatch.setattr(allg.evaluate, "train_linear_svm", counting_fit)
        return calls

    @pytest.mark.parametrize("model, selector, out_is_file, culprit", [
        ({"alpha": "x"}, "random,kmeans,dcs,allg", False, "alpha"),
        (_model_json(), "random,kmeans,dcs,allg", True, "out"),
        (_model_json(), "random,mystery", False, "mystery"),
        (_model_json(), ",", False, "selectors"),
    ], ids=["model_value", "out_is_file", "unknown_kind", "empty_selector_flag"])
    def test_bad_allg_model_fails_before_any_fit(self, tmp_path, blobs_csv, capsys, fits,
                                                 model, selector, out_is_file, culprit):
        cfg = _write_config(tmp_path, {"model": model,
                                       "protocol": {"budgets": [3], "runs": 1}})
        out = tmp_path / "o"
        if out_is_file:
            out.write_text("", encoding="utf-8")
        assert main(["evaluate", "--config", cfg, "--dataset", blobs_csv,
                     "--label-column", "label", "--out", str(out),
                     "--selector", selector]) == 2
        assert f"'{culprit}'" in capsys.readouterr().err
        assert fits == []

    def test_dcs_rank_above_width_fails_before_any_fit(self, tmp_path, blobs_csv, capsys,
                                                       fits):
        # blobs.csv has 4 features, so no rank-9 subspace exists.
        cfg = _write_config(tmp_path, {
            "selectors": [{"kind": "random"}, {"kind": "dcs", "params": {"rank": 9}}],
            "protocol": {"budgets": [3], "runs": 1, "classifiers": ["logistic_regression"]},
        })
        assert main(["evaluate", "--config", cfg, "--dataset", blobs_csv,
                     "--label-column", "label", "--out", str(tmp_path / "o")]) == 2
        assert "'rank'" in capsys.readouterr().err
        assert fits == []
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, payload, culprit", [
        ("evaluate", {"selectors": [{"kind": "random"},
                                    {"kind": "kmeans", "params": {"K": 40}}]}, "K"),
        ("evaluate", {"selectors": [{"kind": "random"}, {"kind": "allg"}],
                      "model": _model_json(knn_k=30)}, "knn_k"),
        ("evaluate", {"selectors": [{"kind": "random"}], "protocol": {"budgets": [40]}},
         "budgets"),
        ("select", {"model": _model_json(knn_k=45)}, "knn_k"),
        ("grid", {"model": _model_json(knn_k=30)}, "knn_k"),
        ("ablate", {"model": _model_json(knn_k=30)}, "knn_k"),
    ], ids=["kmeans_K", "allg_knn_k", "budget", "select_knn_k", "grid_knn_k",
            "ablate_knn_k"])
    def test_pool_size_setting_fails_before_any_fit(self, tmp_path, blobs_csv, capsys, fits,
                                                    command, payload, culprit):
        # blobs.csv has 45 rows, so an evaluation split leaves 23 candidates.
        payload = {"protocol": {"budgets": [3], "runs": 1}, **payload}
        cfg = _write_config(tmp_path, payload)
        assert main([command, "--config", cfg, "--dataset", blobs_csv,
                     "--label-column", "label", "--out", str(tmp_path / "o")]) == 2
        assert f"'{culprit}'" in capsys.readouterr().err
        assert fits == []
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["select", "evaluate", "grid", "ablate"])
    def test_stage2_above_physical_memory_fails_before_any_fit(self, tmp_path, blobs_csv,
                                                               capsys, fits, monkeypatch,
                                                               command):
        # 1 MiB of physical memory holds no stage 2, however small the pool.
        monkeypatch.setattr(allg.model, "physical_memory_bytes", lambda: 2**20)
        cfg = _write_config(tmp_path, {"model": _model_json(),
                                       "protocol": {"budgets": [3], "runs": 1}})
        assert main([command, "--config", cfg, "--dataset", blobs_csv,
                     "--label-column", "label", "--out", str(tmp_path / "o")]) == 2
        assert "physical memory" in capsys.readouterr().err
        assert fits == []
        assert not (tmp_path / "o").exists()

    def test_budget_larger_than_pool(self, tmp_path, blobs_csv):
        assert main(["select", "--dataset", blobs_csv, "--label-column", "label",
                     "--out", str(tmp_path / "o"), "--m", "99"]) == 2

    def test_unlabeled_dataset_for_evaluate(self, tmp_path):
        ds = allg.Dataset(np.random.default_rng(0).normal(size=(3, 12)))
        path = tmp_path / "plain.csv"
        save_csv(ds, path)
        assert main(["evaluate", "--dataset", str(path), "--out",
                     str(tmp_path / "o"), "--budgets", "4"]) == 3


def test_every_config_key_is_documented():
    # every key a config file or a selector's params may set
    # appears in README.md in backticks or double quotes, bare or as `block.key`
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md"),
              encoding="utf-8") as fh:
        readme = fh.read()
    keys = {f.name for table in (allg.ModelConfig, allg.Protocol)
            for f in dataclasses.fields(table)}
    keys |= {*CONFIG_KEYS, *DATASET_KEYS, *GRID_KEYS, *SELECTOR_KEYS, "name"}
    keys |= {key for _, params in SELECTORS.values() for key in params}
    assert sorted(k for k in keys
                  if not re.search(rf'[`"](\w+\.)?{k}[`"]', readme)) == []


def test_every_rule_is_described_and_met_by_its_default():
    # the checker meets an annotation only when a config sets its key, so walk them all here
    tables = [CONFIG_KEYS, DATASET_KEYS, GRID_KEYS, SELECTOR_KEYS, allg.ModelConfig,
              allg.Protocol, *(params for _, params in SELECTORS.values())]
    for table in tables:
        if dataclasses.is_dataclass(table):
            table = {f.name: f.type for f in dataclasses.fields(table)}
        for key, kind in table.items():
            assert isinstance(_wording(kind), str), key
    for table, given in ((allg.ModelConfig, {"encoder_dims": (5, 4)}), (allg.Protocol, {})):
        defaults = {f.name: f.default for f in dataclasses.fields(table)
                    if f.default is not dataclasses.MISSING}
        check_options(table, {**defaults, **given}, table.__name__)
