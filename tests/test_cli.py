import csv
import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import oodkit.cli
import oodkit.metrics
import oodkit.nn
import oodkit.scores
import oodkit.trainer
from oodkit.cli import OUT_ROOT_ENV, main
from oodkit.datasynth import ROLES, DatasetSplit, read_split, write_split
from oodkit.nn import init_mlp, load_model, save_model

BASE_CONFIG = {
    "config_version": 1,
    "data": {"n_per_class": 40, "n_per_ood_component": 40, "seed": 0},
    "train": {"objective": "ce", "epochs": 3, "seed": 0},
    "eval": {},
}


def write_json(path, doc):
    path.write_text(json.dumps(doc, indent=2) + "\n")


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Shared gen-data + train run; read-only for every test."""
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "config.json"
    write_json(cfg, BASE_CONFIG)
    data = root / "data"
    run = root / "run"
    assert main(["gen-data", "--config", str(cfg), "--out", str(data)]) == 0
    assert main([
        "train", "--config", str(cfg), "--data", str(data), "--out", str(run),
    ]) == 0
    return {"root": root, "config": cfg, "data": data, "run": run,
            "model": run / "model.json"}


def run_eval(pipeline, out, extra=()):
    return main([
        "eval", "--model", str(pipeline["model"]), "--data",
        str(pipeline["data"]), "--out", str(out), "--grid-resolution", "24",
        "--histogram-bins", "8", *extra,
    ])


# ---------------------------------------------------------------------------
# happy path
# ---------------------------------------------------------------------------


def test_gen_data_writes_all_splits(pipeline):
    data = pipeline["data"]
    expected_rows = {
        "train": 84, "val": 18, "test_id": 18,
        "train_ood": 62, "val_ood": 18, "test_ood": 80,
    }
    for role, n in expected_rows.items():
        path = data / f"{role}.csv"
        assert path.exists()
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + n
        assert rows[0] == ["x0", "x1", "label"]
    manifest = read_json(data / "manifest.json")
    assert manifest["command"] == "gen-data"
    assert manifest["seeds"] == {"data": 0}
    assert "created_utc" in manifest


def test_the_readme_names_every_split_and_every_gen_data_file(pipeline):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    undocumented = [f"`{role}`" for role in ROLES if f"`{role}`" not in readme]
    undocumented += [p.name for p in pipeline["data"].iterdir() if p.name not in readme]
    assert not undocumented


def test_train_outputs(pipeline):
    run = pipeline["run"]
    model = load_model(run / "model.json")
    assert model.input_dim == 2 and model.num_classes == 3
    history = read_json(run / "history.json")
    assert len(history["records"]) == 3
    assert 1 <= history["best_epoch"] <= 3
    manifest = read_json(run / "manifest.json")
    assert manifest["config"]["objective"] == "ce"
    assert set(manifest["outputs"]) == {"history.json", "model.json"}


def test_eval_results_schema(pipeline, tmp_path):
    out = tmp_path / "eval"
    assert run_eval(pipeline, out) == 0
    results = read_json(out / "results.json")
    assert set(results) == {"accuracy", "auc", "warnings", "manifest"}
    assert set(results["auc"]) == {"confidence", "entropy", "mutual_information"}
    assert 0.0 <= results["accuracy"] <= 100.0
    assert results["accuracy"] == round(results["accuracy"], 2)
    for v in results["auc"].values():
        assert 0.0 <= v <= 100.0
        assert v == round(v, 2)
    assert isinstance(results["warnings"], list)
    assert all(isinstance(w, str) for w in results["warnings"])
    # dropout-free model: MC request degenerates and is flagged
    assert results["auc"]["mutual_information"] == 50.0
    assert any("mutual_information" in w for w in results["warnings"])
    assert any("dropout_rate 0" in w for w in results["warnings"])
    # embedded manifest carries hashes but never a wall-clock stamp
    assert "created_utc" not in results["manifest"]
    assert "created_utc" in read_json(out / "manifest.json")


def test_eval_artifacts(pipeline, tmp_path):
    out = tmp_path / "eval"
    assert run_eval(pipeline, out) == 0
    for kind in ("confidence", "entropy", "mutual_information"):
        with open(out / f"scores_{kind}.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["example_id", "score", "is_ood"]
        assert len(rows) == 1 + 18 + 80
    for quantity in ("predicted_class", "confidence", "entropy"):
        with open(out / f"grid_{quantity}.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + 24 * 24
    with open(out / "histograms.csv", newline="") as fh:
        hist = list(csv.reader(fh))
    assert len(hist) == 1 + 3 * 2 * 8  # kinds * populations * bins


def test_manifest_hashes_match_files(pipeline, tmp_path):
    out = tmp_path / "eval"
    assert run_eval(pipeline, out) == 0
    manifest = read_json(out / "manifest.json")
    assert "results.json" in manifest["outputs"]
    for name, entry in manifest["outputs"].items():
        path = out / name
        assert entry["sha256"] == sha256(path)
        assert entry["bytes"] == path.stat().st_size
    assert manifest["config"]["scores"] == "confidence,entropy,mutual_information"


def test_eval_and_corrupt_eval_hash_each_output_once(pipeline, tmp_path, monkeypatch):
    hashed = []
    original = oodkit.cli._sha256

    def counting(path):
        hashed.append(path.name)
        return original(path)

    monkeypatch.setattr(oodkit.cli, "_sha256", counting)
    out = tmp_path / "eval"
    assert run_eval(pipeline, out) == 0
    listed = read_json(out / "manifest.json")["outputs"]
    assert sorted(hashed) == sorted(listed)
    # manifest.json lists what results.json embeds, plus results.json
    embedded = read_json(out / "results.json")["manifest"]["outputs"]
    assert listed == {**embedded, "results.json": listed["results.json"]}
    hashed.clear()
    assert main(["corrupt-eval", "--model", str(pipeline["model"]),
                 "--data", str(pipeline["data"]), "--out", str(tmp_path / "c")]) == 0
    assert hashed == ["corruption_report.json"]


def test_eval_rerun_is_byte_identical(pipeline, tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert run_eval(pipeline, a) == 0
    assert run_eval(pipeline, b) == 0
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    for name in names:
        if name == "manifest.json":
            continue  # carries the wall-clock stamp
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_train_rerun_is_byte_identical(pipeline, tmp_path):
    out = tmp_path / "run2"
    assert main([
        "train", "--config", str(pipeline["config"]),
        "--data", str(pipeline["data"]), "--out", str(out),
    ]) == 0
    assert (out / "model.json").read_bytes() == pipeline["model"].read_bytes()
    assert (out / "history.json").read_bytes() == (
        pipeline["run"] / "history.json"
    ).read_bytes()


def test_eval_scores_subset(pipeline, tmp_path):
    out = tmp_path / "eval"
    assert run_eval(pipeline, out, extra=["--scores", "entropy"]) == 0
    assert (out / "scores_entropy.csv").exists()
    assert not (out / "scores_confidence.csv").exists()
    assert not (out / "scores_mutual_information.csv").exists()
    with open(out / "histograms.csv", newline="") as fh:
        kinds = {r[0] for r in list(csv.reader(fh))[1:]}
    assert kinds == {"entropy"}
    # the results summary stays complete regardless of the export filter
    results = read_json(out / "results.json")
    assert set(results["auc"]) == {"confidence", "entropy", "mutual_information"}
    assert results["manifest"]["config"]["scores"] == "entropy"


def test_eval_mahalanobis_block(pipeline, tmp_path):
    out = tmp_path / "eval"
    assert run_eval(pipeline, out, extra=["--mahalanobis"]) == 0
    results = read_json(out / "results.json")
    assert set(results["auc"]) == {
        "confidence", "entropy", "mutual_information", "mahalanobis",
    }
    assert (out / "scores_mahalanobis.csv").exists()


def test_eval_does_each_piece_of_work_once(pipeline, tmp_path, monkeypatch):
    model_path = tmp_path / "dropout_model.json"
    save_model(init_mlp([2, 8, 3], dropout_rate=0.2, seed=0), model_path)
    passes, fits, grid_rows = [], [], []

    def spy(module, name, log, record):
        original = getattr(module, name)

        def wrapped(*args, **kwargs):
            log.append(record(*args, **kwargs))
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapped)

    spy(oodkit.scores, "mc_dropout_predict", passes,
        lambda model, inputs, num_passes, seed, **kwargs: num_passes)
    spy(oodkit.trainer, "fit_mahalanobis", fits, lambda *a, **k: 1)
    spy(oodkit.metrics, "eval_logits", grid_rows, lambda model, inputs: len(inputs))
    assert main([
        "eval", "--model", str(model_path), "--data", str(pipeline["data"]),
        "--out", str(tmp_path / "eval"), "--mc-passes", "5", "--mahalanobis",
        "--grid-resolution", "24", "--histogram-bins", "8",
    ]) == 0
    assert passes == [5, 5]  # one draw for the ID split, one for the OOD split
    assert fits == [1]
    assert grid_rows == [24 * 24]
    assert {p.name for p in (tmp_path / "eval").iterdir()} >= {
        "grid_predicted_class.csv", "grid_confidence.csv", "grid_entropy.csv",
    }


def test_dropout_free_eval_forwards_each_split_once(pipeline, tmp_path, monkeypatch):
    rows = []
    for module, name in ((oodkit.scores, "forward"), (oodkit.scores, "eval_trace"),
                         (oodkit.metrics, "eval_logits")):
        original = getattr(module, name)

        def counting(model, inputs, *args, _original=original, **kwargs):
            rows.append(len(inputs))
            return _original(model, inputs, *args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    assert run_eval(pipeline, tmp_path / "eval", extra=["--mahalanobis"]) == 0
    # predictive_samples' eval pass on test_id and on test_ood; the
    # Mahalanobis detector's own eval pass on train (for the fit), then on
    # test_id and test_ood (for the scores); and the 24 x 24 grid
    assert sorted(rows) == sorted([18, 80, 84, 18, 80, 24 * 24])


def test_eval_draws_the_grid_when_every_point_shares_a_large_coordinate(
        pipeline, tmp_path):
    # at x0 = 5000 the 1e-12 pad of a zero extent is below the float
    # spacing, which used to collapse the grid's box and raise
    data = tmp_path / "data"
    data.mkdir()
    for role in ("test_id", "test_ood"):
        split = read_split(pipeline["data"] / f"{role}.csv", role)
        split.features[:, 0] = 5000.0
        write_split(split, data / f"{role}.csv")
    out = tmp_path / "eval"
    assert main([
        "eval", "--model", str(pipeline["model"]), "--data", str(data),
        "--out", str(out), "--grid-resolution", "24",
    ]) == 0
    with open(out / "grid_entropy.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert len(rows) == 24 * 24
    x0 = sorted({float(r[0]) for r in rows})
    assert x0[0] < 5000.0 < x0[-1]
    assert (x0[0], x0[-1]) == (np.nextafter(5000.0, 0.0), np.nextafter(5000.0, 1e4))


def test_eval_reads_only_the_splits_it_uses(pipeline, tmp_path):
    data = tmp_path / "data"
    data.mkdir()
    for name in ("test_id.csv", "test_ood.csv"):
        (data / name).write_bytes((pipeline["data"] / name).read_bytes())
    # unreadable if it were read
    (data / "val.csv").write_text("not,a\nsplit\n")
    assert main([
        "eval", "--model", str(pipeline["model"]), "--data", str(data),
        "--out", str(tmp_path / "eval"), "--grid-resolution", "24",
    ]) == 0


def test_corrupt_eval_report(pipeline, tmp_path):
    out = tmp_path / "corrupt"
    assert main([
        "corrupt-eval", "--model", str(pipeline["model"]),
        "--data", str(pipeline["data"]), "--out", str(out),
    ]) == 0
    report = read_json(out / "corruption_report.json")
    assert set(report) == {"clean_error", "errors", "mce", "warnings", "manifest"}
    assert set(report["errors"]) == {
        "gaussian_noise", "uniform_noise", "translate", "scale", "rotate",
    }
    for row in report["errors"].values():
        assert set(row) == {"1", "2", "3", "4", "5"}
        for v in row.values():
            assert 0.0 <= v <= 100.0
    assert report["mce"] >= 0.0
    assert 0.0 <= report["clean_error"] <= 100.0


def test_sweep_cli(pipeline, tmp_path):
    cfg = tmp_path / "sweep_config.json"
    write_json(cfg, {
        "config_version": 1,
        "train": {"objective": "ce_cosine", "epochs": 2, "seed": 0},
    })
    grid = tmp_path / "grid.json"
    write_json(grid, {"grid_version": 1, "grid": [{"lam": 0.0}, {"lam": 1.0}]})
    out = tmp_path / "sweep"
    assert main([
        "sweep", "--config", str(cfg), "--grid", str(grid),
        "--data", str(pipeline["data"]), "--out", str(out),
    ]) == 0
    board = read_json(out / "leaderboard.json")
    assert len(board["rows"]) == 2
    assert sum(r["selected"] for r in board["rows"]) == 1
    assert board["rows"][0]["selected"]
    for row in board["rows"]:
        for key in ("val_accuracy", "val_entropy_auc"):
            if row[key] is not None:
                assert row[key] == round(row[key], 2)
    best = read_json(out / "best_config.json")
    assert best["objective"] == "ce_cosine"
    assert best["lam"] in (0.0, 1.0)
    load_model(out / "model.json")  # winner model round-trips


def test_out_root_env(pipeline, tmp_path, monkeypatch):
    monkeypatch.setenv(OUT_ROOT_ENV, str(tmp_path / "artifacts"))
    assert main(["gen-data", "--config", str(pipeline["config"])]) == 0
    assert (tmp_path / "artifacts" / "gen-data" / "train.csv").exists()


def test_seed_flag_overrides_config(pipeline, tmp_path):
    out = tmp_path / "data1"
    assert main([
        "gen-data", "--config", str(pipeline["config"]),
        "--out", str(out), "--seed", "1",
    ]) == 0
    manifest = read_json(out / "manifest.json")
    assert manifest["seeds"] == {"data": 1}
    assert (out / "train.csv").read_bytes() != (
        pipeline["data"] / "train.csv"
    ).read_bytes()


# ---------------------------------------------------------------------------
# failure modes
# ---------------------------------------------------------------------------


INPUT_FLAGS = {
    "gen-data": ["--config"],
    "train": ["--config", "--data"],
    "eval": ["--model", "--data"],
    "corrupt-eval": ["--model", "--data"],
    "sweep": ["--config", "--grid", "--data"],
}


def spy_on_work(monkeypatch) -> list:
    """The names of the cli's data-reading and computing calls, in a list
    that fills as they are made."""
    called = []
    for name in ("make_default_benchmark", "train", "sweep", "corruption_error_table",
                 "score_populations", "read_split", "load_model"):
        original = getattr(oodkit.cli, name)

        def spy(*args, _name=name, _original=original, **kwargs):
            called.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(oodkit.cli, name, spy)
    return called


@pytest.mark.parametrize("command", INPUT_FLAGS)
def test_missing_out_dir_and_env(pipeline, tmp_path, monkeypatch, capsys, command):
    monkeypatch.delenv(OUT_ROOT_ENV, raising=False)
    called = spy_on_work(monkeypatch)
    grid = tmp_path / "grid.json"
    write_json(grid, {"grid_version": 1, "grid": [{"lam": 0.5}]})
    paths = {"--config": pipeline["config"], "--data": pipeline["data"],
             "--model": pipeline["model"], "--grid": grid}
    argv = [command] + [arg for flag in INPUT_FLAGS[command]
                         for arg in (flag, str(paths[flag]))]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: no output directory") and OUT_ROOT_ENV in err
    # the missing --out is reported before any data is read or computed
    assert called == []


def test_invalid_json_config(tmp_path, capsys):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{not json")
    assert main(["gen-data", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "config error" in capsys.readouterr().err


def test_wrong_config_version(tmp_path):
    cfg = tmp_path / "cfg.json"
    write_json(cfg, {"config_version": 99})
    assert main(["gen-data", "--config", str(cfg), "--out", str(tmp_path)]) == 2


def test_unknown_config_section(tmp_path):
    cfg = tmp_path / "cfg.json"
    write_json(cfg, {"config_version": 1, "optimizer": {}})
    assert main(["gen-data", "--config", str(cfg), "--out", str(tmp_path)]) == 2


def test_unknown_train_key(pipeline, tmp_path):
    cfg = tmp_path / "cfg.json"
    write_json(cfg, {"config_version": 1, "train": {"learning_rate": 0.1}})
    assert main([
        "train", "--config", str(cfg), "--data", str(pipeline["data"]),
        "--out", str(tmp_path / "run"),
    ]) == 2


def test_missing_data_dir(pipeline, tmp_path, capsys):
    code = main([
        "train", "--config", str(pipeline["config"]),
        "--data", str(tmp_path / "nowhere"), "--out", str(tmp_path / "run"),
    ])
    assert code == 3
    assert "data error" in capsys.readouterr().err


def test_ood_objective_without_outlier_split(pipeline, tmp_path, capsys):
    data = tmp_path / "data"
    data.mkdir()
    for name in ("train.csv", "val.csv"):
        (data / name).write_bytes((pipeline["data"] / name).read_bytes())
    cfg = tmp_path / "cfg.json"
    write_json(cfg, {
        "config_version": 1,
        "train": {"objective": "ce_cosine", "epochs": 1, "lam": 1.0},
    })
    code = main([
        "train", "--config", str(cfg), "--data", str(data),
        "--out", str(tmp_path / "run"),
    ])
    assert code == 3
    assert "train_ood.csv" in capsys.readouterr().err


def test_corrupt_model_file(pipeline, tmp_path, capsys):
    bad = tmp_path / "model.json"
    bad.write_text(pipeline["model"].read_text()[:50])
    code = main([
        "eval", "--model", str(bad), "--data", str(pipeline["data"]),
        "--out", str(tmp_path / "eval"),
    ])
    assert code == 3
    assert "data error" in capsys.readouterr().err


@pytest.mark.parametrize("layer_dims", [[2.9, 4.2, 3.7], [2, True, 3], [2.0, 4, 3]],
                         ids=["fractional", "bool", "integral-float"])
@pytest.mark.parametrize("command", ["eval", "corrupt-eval"])
def test_model_file_with_non_integer_layer_sizes_exits_3(pipeline, tmp_path, capsys,
                                                         command, layer_dims):
    # int() used to truncate each size, so these loaded as [2, 4, 3] and
    # [2, 1, 3] models whose weights matched, and both commands exited 0
    path = tmp_path / "model.json"
    save_model(init_mlp([int(d) for d in layer_dims], seed=0), path)
    doc = json.loads(path.read_text())
    doc["layer_dims"] = layer_dims
    write_json(path, doc)
    out = tmp_path / "out"
    code = main([command, "--model", str(path), "--data", str(pipeline["data"]),
                 "--out", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "layer_dims must be" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_divergence_exit_code(pipeline, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    write_json(cfg, {
        "config_version": 1,
        "train": {"objective": "ce", "epochs": 3, "lr": 1e200},
    })
    with np.errstate(all="ignore"):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            code = main([
                "train", "--config", str(cfg), "--data", str(pipeline["data"]),
                "--out", str(tmp_path / "run"),
            ])
    assert code == 4
    assert "training diverged" in capsys.readouterr().err


def test_divergence_prints_only_its_report(pipeline, tmp_path):
    # a fresh process, so numpy's RuntimeWarnings would reach stderr
    cfg = tmp_path / "cfg.json"
    write_json(cfg, {"config_version": 1,
                     "train": {"objective": "ce", "epochs": 3, "lr": 1e6}})
    src = os.path.dirname(os.path.dirname(oodkit.trainer.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "oodkit.cli", "train", "--config", str(cfg),
         "--data", str(pipeline["data"]), "--out", str(tmp_path / "run")],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
    )
    assert proc.returncode == 4
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("training diverged: ")
    assert not (tmp_path / "run").exists()


def exit_in_the_worker(*args, **kwargs):
    """Stands in for a task that a worker process runs: it ends the worker."""
    os._exit(3)


@pytest.mark.parametrize("command,workers,task,which", [
    ("train", [], "_score_epoch_task", "a validation worker"),
    ("sweep", ["--workers", "1"], "_score_epoch_task", "a validation worker"),
    ("sweep", ["--workers", "2"], "_sweep_task", "a sweep worker"),
], ids=["train", "sweep-workers-1", "sweep-workers-2"])
def test_a_dead_worker_prints_one_error_line(pipeline, tmp_path, monkeypatch, capfd,
                                             command, workers, task, which):
    # the task is pickled by name, so the stand-in runs only in a worker
    monkeypatch.setattr(oodkit.trainer, task, exit_in_the_worker)
    monkeypatch.setattr(oodkit.nn, "available_cpus", lambda: 2)
    cfg = tmp_path / "cfg.json"
    write_json(cfg, {"config_version": 1, "train": {"objective": "ce", "epochs": 2,
                                                   "dropout_rate": 0.2}})
    grid = tmp_path / "grid.json"
    write_json(grid, {"grid_version": 1, "grid": [{"lr": 0.05}, {"lr": 0.1}]})
    out = tmp_path / "out"
    argv = [command, "--config", str(cfg), "--data", str(pipeline["data"]),
            "--out", str(out), *workers]
    assert main(argv + (["--grid", str(grid)] if command == "sweep" else [])) == 1
    # read at the descriptor, so a worker's own output would show too
    assert capfd.readouterr().err == f"error: {which} exited unexpectedly\n"
    assert not out.exists()


@pytest.mark.parametrize("command,scale_layers,extra,reason", [
    ("eval", 3, ["--grid-resolution", "24"], "non-finite"),
    ("corrupt-eval", 3, [], "non-finite"),
    ("eval", 1, ["--grid-resolution", "24", "--mahalanobis"],
     "Mahalanobis fit needs a finite tied covariance"),
], ids=["eval", "corrupt-eval", "eval-mahalanobis"])
def test_overflowing_model_prints_only_its_error_line(pipeline, tmp_path, command,
                                                      scale_layers, extra, reason):
    # with every layer scaled, logits of about 1e310 overflow the matmul;
    # with only the first, the softmax stays finite but the features'
    # covariance overflows, so the Mahalanobis fit fails. numpy must not
    # print a RuntimeWarning before the error line
    model = init_mlp([2, 8, 3], seed=0)
    for w in model.weights[:scale_layers]:
        w *= 1e155 if scale_layers > 1 else 1e160
    save_model(model, tmp_path / "big.json")
    out = tmp_path / "eval"
    src = os.path.dirname(os.path.dirname(oodkit.trainer.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "oodkit.cli", command, "--model",
         str(tmp_path / "big.json"), "--data", str(pipeline["data"]),
         "--out", str(out), *extra],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
    )
    assert proc.returncode == 3
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("data error:")
    assert reason in lines[0]
    assert not out.exists()


def test_sweep_trains_each_grid_point_once(pipeline, tmp_path, monkeypatch):
    trained = []
    real_train = oodkit.trainer.train

    def counting_train(config, *args):
        trained.append(config.lam)
        return real_train(config, *args)

    monkeypatch.setattr(oodkit.trainer, "train", counting_train)
    monkeypatch.setattr(oodkit.cli, "train", counting_train)
    cfg = tmp_path / "cfg.json"
    write_json(cfg, {"config_version": 1,
                     "train": {"objective": "ce_cosine", "epochs": 1}})
    grid = tmp_path / "grid.json"
    write_json(grid, {"grid_version": 1,
                      "grid": [{"lam": 0.5}, {"lam": 1.0}, {"lam": 2.0}]})
    assert main([
        "sweep", "--config", str(cfg), "--grid", str(grid),
        "--data", str(pipeline["data"]), "--out", str(tmp_path / "sweep"),
    ]) == 0
    assert trained == [0.5, 1.0, 2.0]


def test_invalid_scores_flag(pipeline, tmp_path, capsys):
    code = run_eval(pipeline, tmp_path / "eval", extra=["--scores", "sharpness"])
    assert code == 2
    assert "sharpness" in capsys.readouterr().err
    assert run_eval(pipeline, tmp_path / "e2", extra=["--scores", ","]) == 2


@pytest.mark.parametrize("flag,value", [
    ("--mc-passes", "-5"),
    ("--mc-passes", "0"),
    ("--histogram-bins", "0"),
    ("--grid-resolution", "1"),
])
def test_invalid_eval_flags_exit_before_any_work(pipeline, tmp_path, capsys, flag, value):
    out = tmp_path / "eval"
    code = main([
        "eval", "--model", str(pipeline["model"]), "--data",
        str(pipeline["data"]), "--out", str(out), flag, value,
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and flag in err
    assert "Traceback" not in err
    assert not out.exists()


def test_an_eval_export_too_large_to_allocate_exits_2_and_writes_nothing(
    pipeline, tmp_path, capsys, monkeypatch
):
    # 8 * 1e15 bytes of bin edges exceed the address space, so the
    # allocation fails at once; the grid's failure is simulated
    def unallocatable(*args):
        raise MemoryError

    monkeypatch.setattr(oodkit.cli, "export_decision_grid", unallocatable)
    kept = tmp_path / "kept"
    kept.mkdir()
    (kept / "notes.txt").write_text("mine\n")
    for flag, value in (("--histogram-bins", "1000000000000000"),
                        ("--grid-resolution", "24")):
        for out in (tmp_path / "new" / "eval", kept):
            argv = ["eval", "--model", str(pipeline["model"]), "--data",
                    str(pipeline["data"]), "--out", str(out), "--histogram-bins", "8",
                    flag, value]
            assert main(argv) == 2
            assert capsys.readouterr().err == (
                f"config error: {flag} {value} is too large: its arrays cannot be "
                "allocated\n")
            # no staged file is left beside --out, and a kept --out is untouched
            assert sorted(p.name for p in tmp_path.iterdir()) == ["kept"]
            assert [p.name for p in kept.iterdir()] == ["notes.txt"]


def test_eval_into_the_working_directory(pipeline, tmp_path, monkeypatch):
    # '.' has no parents, so eval must stage inside --out itself
    reference = tmp_path / "reference"
    assert run_eval(pipeline, reference) == 0
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    assert run_eval(pipeline, ".") == 0
    names = sorted(p.name for p in reference.iterdir())
    assert sorted(p.name for p in cwd.iterdir()) == names
    for name in names:
        if name != "manifest.json":
            assert (cwd / name).read_bytes() == (reference / name).read_bytes(), name


def test_eval_into_an_existing_out_stages_inside_it(pipeline, tmp_path, monkeypatch):
    # --out exists, so the stage lives inside it: its parent may be read-only
    # or on another filesystem without the final moves failing
    out = tmp_path / "existing"
    out.mkdir()
    (out / "notes.txt").write_text("mine\n")
    staged_in = []
    original = oodkit.cli.tempfile.mkdtemp

    def spy(*args, **kwargs):
        staged_in.append(Path(kwargs["dir"]))
        return original(*args, **kwargs)

    monkeypatch.setattr(oodkit.cli.tempfile, "mkdtemp", spy)
    assert run_eval(pipeline, out) == 0
    assert staged_in == [out]
    assert "notes.txt" in {p.name for p in out.iterdir()}
    assert not [p for p in out.iterdir() if p.name.startswith(".oodkit-")]
    assert (out / "results.json").exists()
    # a --out yet to be made is staged in its nearest existing ancestor
    staged_in.clear()
    assert run_eval(pipeline, tmp_path / "new" / "eval") == 0
    assert staged_in == [tmp_path]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["existing", "new"]


def test_train_without_outlier_split_exits_3(pipeline, tmp_path, capsys):
    data = tmp_path / "data"
    data.mkdir()
    for name in ("train.csv", "val.csv"):
        (data / name).write_bytes((pipeline["data"] / name).read_bytes())
    code = main([
        "train", "--config", str(pipeline["config"]), "--data", str(data),
        "--out", str(tmp_path / "run"),
    ])
    assert code == 3
    # a ce run needs the held-out outliers that validation scores
    assert "val_ood.csv" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_ce_trains_and_sweeps_without_train_ood(pipeline, tmp_path, capsys):
    data = tmp_path / "data"
    data.mkdir()
    for name in ("train.csv", "val.csv", "val_ood.csv"):
        (data / name).write_bytes((pipeline["data"] / name).read_bytes())
    run = tmp_path / "run"
    assert main(["train", "--config", str(pipeline["config"]), "--data", str(data),
                 "--out", str(run)]) == 0
    for name in ("model.json", "history.json"):
        assert (run / name).read_bytes() == (pipeline["run"] / name).read_bytes()
    grid = tmp_path / "grid.json"
    write_json(grid, {"grid_version": 1, "grid": [{"lr": 0.05}, {"lr": 0.1}]})
    sweep = ["sweep", "--config", str(pipeline["config"]), "--grid", str(grid),
             "--data", str(data)]
    assert main(sweep + ["--out", str(tmp_path / "sweep")]) == 0
    # a grid point that switches to an OOD objective needs the outliers it trains on
    write_json(grid, {"grid_version": 1, "grid": [{"lr": 0.05}, {"objective": "ce_cosine"}]})
    capsys.readouterr()
    assert main(sweep + ["--out", str(tmp_path / "sweep-ood")]) == 3
    assert capsys.readouterr().err == (
        f"data error: data directory {data} is missing splits: train_ood.csv\n")
    assert not (tmp_path / "sweep-ood").exists()


@pytest.mark.parametrize("command,key,value,reason", [
    ("train", "epochs", 2.5, "epochs must be an integer"),
    ("train", "batch_size", 8.5, "batch_size must be an integer"),
    ("train", "seed", 1.5, "seed must be an integer"),
    ("train", "hidden_dims", [8.5], "hidden_dims must be positive integers"),
    ("train", "hidden_dims", 8, "not iterable"),
    ("train", "mc_passes", 2.5, "mc_passes must be an integer"),
    ("train", "k", 3.0, "k must be an integer"),
    ("sweep", "epochs", 2.5, "epochs must be an integer"),
])
def test_non_integer_config_value_exits_2(pipeline, tmp_path, capsys,
                                          command, key, value, reason):
    cfg = tmp_path / "cfg.json"
    write_json(cfg, {"config_version": 1,
                     "train": {"objective": "ce", "epochs": 1, key: value}})
    out = tmp_path / "out"
    args = [command, "--config", str(cfg), "--data", str(pipeline["data"]),
            "--out", str(out)]
    if command == "sweep":
        grid = tmp_path / "grid.json"
        write_json(grid, {"grid_version": 1, "grid": [{"lr": 0.05}]})
        args += ["--grid", str(grid)]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and reason in err
    assert "Traceback" not in err
    assert not out.exists()


def test_invalid_workers_flag(pipeline, tmp_path):
    cfg = tmp_path / "cfg.json"
    write_json(cfg, {"config_version": 1,
                     "train": {"objective": "ce", "epochs": 1}})
    grid = tmp_path / "grid.json"
    write_json(grid, {"grid_version": 1, "grid": [{"lr": 0.05}]})
    assert main([
        "sweep", "--config", str(cfg), "--grid", str(grid),
        "--data", str(pipeline["data"]), "--out", str(tmp_path / "sweep"),
        "--workers", "0",
    ]) == 2


def test_bad_grid_file(pipeline, tmp_path):
    cfg = tmp_path / "cfg.json"
    write_json(cfg, {"config_version": 1,
                     "train": {"objective": "ce", "epochs": 1}})
    grid = tmp_path / "grid.json"
    write_json(grid, {"grid_version": 2, "grid": []})
    args = ["sweep", "--config", str(cfg), "--grid", str(grid),
            "--data", str(pipeline["data"]), "--out", str(tmp_path / "sweep")]
    assert main(args) == 2
    write_json(grid, {"grid_version": 1, "grid": {"lam": 1.0}})
    assert main(args) == 2
    write_json(grid, {"grid_version": 1, "grid": []})
    assert main(args) == 2


def test_model_data_dimension_mismatch(pipeline, tmp_path, capsys):
    def widen(line, filler):
        parts = line.split(",")
        return ",".join(parts[:-1] + [filler, parts[-1]])

    def data_widening(*roles):
        data = tmp_path / "-".join(roles)
        data.mkdir()
        for src in pipeline["data"].glob("*.csv"):
            lines = src.read_text().splitlines()
            if src.stem in roles:
                lines = [widen(lines[0], "x2"), *(widen(line, "0.0") for line in lines[1:])]
            (data / src.name).write_text("\n".join(lines) + "\n")
        return data

    code = main([
        "eval", "--model", str(pipeline["model"]), "--data",
        str(data_widening("test_id", "test_ood")), "--out", str(tmp_path / "eval"),
    ])
    assert code == 3
    assert "columns" in capsys.readouterr().err
    # train and sweep check every split they read before training starts;
    # a wide val or outlier split used to end as a divergence (exit 4)
    # or as numpy's own message
    grid = tmp_path / "grid.json"
    write_json(grid, {"grid_version": 1, "grid": [{"lam": 0.5}, {"lam": 1.0}]})
    for role in ("val", "val_ood", "train_ood"):
        data = data_widening(role)
        # ce reads no train_ood
        for objective in ("ce", "ce_cosine")[role == "train_ood":]:
            cfg = tmp_path / f"{objective}.json"
            write_json(cfg, {"config_version": 1,
                             "train": {"objective": objective, "epochs": 1}})
            for command, extra in (("train", []), ("sweep", ["--grid", str(grid)])):
                out = tmp_path / f"{command}-{role}-{objective}"
                code = main([command, "--config", str(cfg), *extra,
                             "--data", str(data), "--out", str(out)])
                assert code == 3
                assert capsys.readouterr().err == (
                    f"data error: model expects 2-D inputs but the {role} split has "
                    "3 columns\n")
                assert not out.exists()


@pytest.mark.parametrize("command,where,text,reason", [
    ("train", "config", '"ce_l1_strength": NaN', "is not a JSON number"),
    ("train", "config", '"lr": Infinity', "is not a JSON number"),
    ("train", "config", '"weight_decay": -Infinity', "is not a JSON number"),
    ("train", "config", '"lr": 1e400', "lr must be finite"),
    ("sweep", "config", '"lam": NaN', "is not a JSON number"),
    ("sweep", "grid", '"lam": Infinity', "is not a JSON number"),
    ("sweep", "grid", '"lam": -1e999', "lam must be finite"),
])
def test_non_finite_config_value_exits_2(pipeline, tmp_path, capsys,
                                         command, where, text, reason):
    # json accepts these tokens by default, and parses 1e400 as inf;
    # range checks like x < 0 would let NaN through, so it used to train
    # without the L1 penalty
    train_keys = '"objective": "ce_l1", "epochs": 1'
    if where == "config":
        train_keys += ", " + text
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"config_version": 1, "train": {%s}}' % train_keys)
    out = tmp_path / "out"
    args = [command, "--config", str(cfg), "--data", str(pipeline["data"]),
            "--out", str(out)]
    if command == "sweep":
        grid = tmp_path / "grid.json"
        point = text if where == "grid" else '"lr": 0.05'
        grid.write_text('{"grid_version": 1, "grid": [{%s}]}' % point)
        args += ["--grid", str(grid)]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and reason in err
    assert "Traceback" not in err
    assert not out.exists()


def test_non_utf8_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(b"\xff\xfe\x00{}")
    out = tmp_path / "data"
    assert main(["gen-data", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("key,value", [
    ("seed", 1.5),
    ("seed", True),
    ("n_per_class", 40.5),
    ("n_per_class", None),
    ("n_per_ood_component", True),
    ("n_per_ood_component", "40"),
    ("id_radius", "4"),
    ("ood_radius", None),
    ("sigma", "0.5"),
    ("sigma", True),
    ("split_fractions", "abc"),
    ("split_fractions", 5),
    ("split_fractions", [0.5, 0.2, 0.2, 0.1]),
    ("split_fractions", [0.7, "0.15", 0.15]),
])
def test_wrong_typed_data_value_exits_2(tmp_path, capsys, key, value):
    cfg = tmp_path / "cfg.json"
    write_json(cfg, {**BASE_CONFIG, "data": {**BASE_CONFIG["data"], key: value}})
    out = tmp_path / "data"
    assert main(["gen-data", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and key in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("point", [{"hidden_dims": 5}, {"lr": "x"}])
def test_wrong_typed_grid_value_exits_2(pipeline, tmp_path, capsys, point):
    grid = tmp_path / "grid.json"
    write_json(grid, {"grid_version": 1, "grid": [{"lr": 0.05}, point]})
    out = tmp_path / "sweep"
    assert main([
        "sweep", "--config", str(pipeline["config"]), "--grid", str(grid),
        "--data", str(pipeline["data"]), "--out", str(out),
    ]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: grid point 1 invalid")
    assert not out.exists()


@pytest.mark.parametrize("dim", [1, 3])
def test_corrupt_eval_on_non_planar_data_exits_3(tmp_path, capsys, dim):
    data = tmp_path / "data"
    data.mkdir()
    rng = np.random.default_rng(0)
    write_split(DatasetSplit(rng.normal(size=(12, dim)), np.arange(12) % 3,
                             "test_id"), data / "test_id.csv")
    model = tmp_path / "model.json"
    save_model(init_mlp([dim, 8, 3], seed=0), model)
    out = tmp_path / "corrupt"
    assert main([
        "corrupt-eval", "--model", str(model), "--data", str(data),
        "--out", str(out),
    ]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "2-D" in err
    assert not out.exists()


def _dead_model(path):
    # the hidden ReLU never fires, so every penultimate feature is 0
    model = init_mlp([2, 8, 3], seed=0)
    model.weights[0][:] = 0.0
    model.biases[0][:] = -1.0
    save_model(model, path)
    return path


def _one_row_class_data(pipeline, tmp_path):
    data = tmp_path / "data"
    data.mkdir()
    for name in ("test_id.csv", "test_ood.csv"):
        (data / name).write_bytes((pipeline["data"] / name).read_bytes())
    train = read_split(pipeline["data"] / "train.csv", role="train")
    keep = (train.labels != 2) | (np.cumsum(train.labels == 2) == 1)
    write_split(DatasetSplit(train.features[keep], train.labels[keep], "train"),
                data / "train.csv")
    return data


@pytest.mark.parametrize("case,reason", [
    ("dead_layer", "Mahalanobis fit needs features that vary"),
    ("one_row_class", "Mahalanobis fit needs 2 rows per class; class 2 has 1"),
])
def test_degenerate_mahalanobis_fit_exits_3(pipeline, tmp_path, capsys, case, reason):
    model, data = pipeline["model"], pipeline["data"]
    if case == "dead_layer":
        model = _dead_model(tmp_path / "dead.json")
    else:
        data = _one_row_class_data(pipeline, tmp_path)
    out = tmp_path / "eval"
    assert main([
        "eval", "--model", str(model), "--data", str(data), "--out", str(out),
        "--mahalanobis", "--grid-resolution", "24",
    ]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:") and reason in err
    assert "Traceback" not in err
    assert not out.exists()


def _argv(pipeline, tmp_path, command, config, grid_point):
    """argv for `command` on the shared pipeline, with `config` as the
    config file and one grid point for sweep."""
    cfg = tmp_path / "cfg.json"
    write_json(cfg, config)
    grid = tmp_path / "grid.json"
    write_json(grid, {"grid_version": 1, "grid": [grid_point]})
    paths = {"--config": cfg, "--data": pipeline["data"], "--model": pipeline["model"],
             "--grid": grid}
    return [command] + [arg for flag in INPUT_FLAGS[command]
                        for arg in (flag, str(paths[flag]))]


@pytest.mark.parametrize("command,form", [
    *((command, "flag") for command in INPUT_FLAGS),
    ("gen-data", "config"),
    ("train", "config"),
    ("sweep", "config"),
    ("sweep", "grid"),
])
def test_negative_seed_exits_2(pipeline, tmp_path, capsys, command, form):
    config = {**BASE_CONFIG, "train": {"objective": "ce", "epochs": 1}}
    if form == "config":
        section = "data" if command == "gen-data" else "train"
        config[section] = {**config[section], "seed": -3}
    out = tmp_path / "out"
    argv = _argv(pipeline, tmp_path, command, config,
                 {"seed": -1} if form == "grid" else {"lr": 0.05})
    argv += ["--out", str(out)] + (["--seed", "-1"] if form == "flag" else [])
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "seed must be >= 0" in err
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("workers", ["1", "2"])
def test_sweep_on_out_of_range_labels_exits_3(pipeline, tmp_path, capsys, workers):
    data = tmp_path / "data"
    data.mkdir()
    for name in ("val.csv", "val_ood.csv"):
        (data / name).write_bytes((pipeline["data"] / name).read_bytes())
    train = read_split(pipeline["data"] / "train.csv", role="train")
    labels = train.labels.copy()
    labels[0] = 5
    write_split(DatasetSplit(train.features, labels, "train"), data / "train.csv")
    grid = tmp_path / "grid.json"
    write_json(grid, {"grid_version": 1, "grid": [{"lr": 0.05}, {"lr": 0.1}]})
    out = tmp_path / "sweep"
    assert main([
        "sweep", "--config", str(pipeline["config"]), "--grid", str(grid),
        "--data", str(data), "--out", str(out), "--workers", workers,
    ]) == 3
    err = capsys.readouterr().err
    assert err == "data error: training labels must lie in [0, 3), got range [0, 5]\n"
    assert not out.exists()


def test_sweep_checks_its_grid_before_reading_data(pipeline, tmp_path, capsys):
    argv = _argv(pipeline, tmp_path, "sweep", BASE_CONFIG, {"lr": -1.0})
    argv[argv.index("--data") + 1] = str(tmp_path / "nowhere")
    assert main(argv + ["--out", str(tmp_path / "sweep")]) == 2
    assert capsys.readouterr().err.startswith("config error: grid point 0 invalid")


@pytest.mark.parametrize("command", ["gen-data", "train", "sweep"])
def test_eval_section_keys_exit_2(pipeline, tmp_path, capsys, command):
    out = tmp_path / "out"
    config = {**BASE_CONFIG, "eval": {"anything": 1}}
    argv = _argv(pipeline, tmp_path, command, config, {"lr": 0.05})
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "config error: unknown keys in config section 'eval': ['anything']\n"
    assert not out.exists()


@pytest.mark.parametrize("form", ["the file", "under the file"])
@pytest.mark.parametrize("command", INPUT_FLAGS)
def test_out_blocked_by_a_file_exits_2_before_any_work(
    pipeline, tmp_path, monkeypatch, capsys, command, form
):
    blocker = tmp_path / "afile"
    blocker.write_text("kept\n")
    out = blocker if form == "the file" else blocker / "sub"
    argv = _argv(pipeline, tmp_path, command, BASE_CONFIG, {"lr": 0.05})
    before = sorted(tmp_path.iterdir())
    called = spy_on_work(monkeypatch)
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == (f"config error: output directory {out} cannot be made: "
                   f"{blocker} is not a directory\n")
    assert called == []
    assert sorted(tmp_path.iterdir()) == before and blocker.read_text() == "kept\n"


def test_unknown_grid_key_exits_2(pipeline, tmp_path, capsys):
    argv = _argv(pipeline, tmp_path, "sweep", BASE_CONFIG, {"lr": 0.05})
    grid = tmp_path / "grid.json"
    write_json(grid, {"grid_version": 1, "grid": [{"lr": 0.05}], "bogus": 3})
    out = tmp_path / "sweep"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: unknown keys in grid file {grid}: ['bogus']\n"
    assert not out.exists()
