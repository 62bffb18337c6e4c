import numpy as np

from imlg.cli import main
from imlg.train import load_checkpoint


def run_pipeline(tmp, seed=1, extra_train=(), instances=300):
    base = tmp / f"run{seed}"
    base.mkdir(parents=True, exist_ok=True)
    steps = [
        ["gen", "--instances", str(instances), "--seed", str(seed), "--out", str(base / "d")],
        ["build-graph", "--design", str(base / "d.design"), "--labels", str(base / "d.labels"),
         "--region-depth", "3", "--out", str(base / "d.graph")],
        ["train", "--graph", str(base / "d.graph"), "--epochs", "3", "--cluster-size", "150",
         "--hidden-dim", "16", "--seed", str(seed), "--out", str(base / "d.ckpt"),
         *extra_train],
        ["infer", "--ckpt", str(base / "d.ckpt"), "--graph", str(base / "d.graph"),
         "--design", str(base / "d.design"), "--out", str(base / "d.pred")],
        ["eval", "--pred", str(base / "d.pred"), "--labels", str(base / "d.labels"),
         "--out", str(base / "d.report"), "--roc-out", str(base / "d.roc")],
    ]
    for argv in steps:
        assert main(argv) == 0, argv
    return base


def test_end_to_end_pipeline(tmp_path, capsys):
    base = run_pipeline(tmp_path)
    # gen, build-graph and train print their config; infer and eval read none
    assert capsys.readouterr().out.count("config seed = ") == 3
    report = (base / "d.report").read_text()
    for metric in ("tpr@20,", "tpr@40,", "f1,", "auc,"):
        assert metric in report
    roc = (base / "d.roc").read_text().splitlines()
    assert roc[0] == "0,0" and roc[-1] == "1,1"
    pred_lines = (base / "d.pred").read_text().splitlines()
    assert len(pred_lines) == 300
    assert pred_lines[0].split(",")[0].startswith(("l", "f"))


def test_pipeline_is_byte_identical_across_runs(tmp_path):
    a = run_pipeline(tmp_path / "a", seed=2)
    b = run_pipeline(tmp_path / "b", seed=2)
    for name in ("d.design", "d.labels", "d.graph", "d.ckpt", "d.ckpt.log", "d.pred", "d.report", "d.roc"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_baseline_mode_checkpoint_keeps_identity_decoder(tmp_path):
    base = run_pipeline(tmp_path, seed=3, extra_train=("--baseline-mode",))
    params, hp = load_checkpoint((base / "d.ckpt").read_text())
    assert np.array_equal(params.get("Dec", "S").data, np.eye(hp.hidden_dim))


def test_eval_on_handwritten_perfect_files(tmp_path, capsys):
    (tmp_path / "p.pred").write_text("a,0.9,1\nb,0.8,1\nc,0.2,0\nd,0.1,0\n")
    (tmp_path / "t.labels").write_text("a 1\nb 1\nc 0\nd 0\n")
    assert main(["eval", "--pred", str(tmp_path / "p.pred"),
                 "--labels", str(tmp_path / "t.labels")]) == 0
    out = capsys.readouterr().out
    assert "auc,1" in out and "f1,1" in out and "tpr@20,1" in out


def test_eval_rejects_duplicate_and_missing_labels(tmp_path, capsys):
    (tmp_path / "p.pred").write_text("a,0.9,1\nb,0.2,0\n")
    (tmp_path / "dup.labels").write_text("a 1\nb 0\na 0\n")
    (tmp_path / "short.labels").write_text("a 1\n")
    assert main(["eval", "--pred", str(tmp_path / "p.pred"),
                 "--labels", str(tmp_path / "dup.labels")]) == 1
    err = capsys.readouterr().err
    assert "dup.labels: line 3: duplicate label for a" in err
    assert main(["eval", "--pred", str(tmp_path / "p.pred"),
                 "--labels", str(tmp_path / "short.labels")]) == 1
    assert "no label for predicted instance b" in capsys.readouterr().err


def test_effective_config_is_printed(tmp_path, capsys):
    main(["gen", "--instances", "50", "--seed", "9", "--out", str(tmp_path / "x")])
    out = capsys.readouterr().out
    assert "config seed = 9" in out
    assert "config lr = 0.001" in out
    assert "config cluster_size = 10000" in out


def test_config_file_applies_and_flags_win(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\nepochs = 7\nseed = 4\n")
    run_pipeline(tmp_path, seed=5)  # produce a graph to train on
    graph = tmp_path / "run5" / "d.graph"
    code = main(["train", "--config", str(cfg), "--graph", str(graph),
                 "--epochs", "2", "--cluster-size", "200",
                 "--out", str(tmp_path / "c.ckpt")])
    assert code == 0
    out = capsys.readouterr().out
    assert "config epochs = 2" in out  # flag beat the file
    assert "config seed = 4" in out  # file beat the default


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("learning_rate = 0.1\n")
    code = main(["gen", "--config", str(cfg), "--instances", "50", "--out", str(tmp_path / "x")])
    assert code == 1
    assert "unknown config key" in capsys.readouterr().err


def test_bad_config_value_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("# a comment line\nepochs = eleven\n")
    code = main(["gen", "--config", str(cfg), "--instances", "50", "--out", str(tmp_path / "x")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg}:2: ")
    assert "expects int" in err


def test_missing_file_is_one_line_diagnostic(tmp_path, capsys):
    code = main(["train", "--graph", str(tmp_path / "nope.graph"), "--out", str(tmp_path / "c")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "nope.graph" in err


def test_infer_design_mismatch_detected(tmp_path, capsys):
    base = run_pipeline(tmp_path, seed=6)
    other = tmp_path / "tiny"
    other.mkdir()
    assert main(["gen", "--instances", "40", "--seed", "1", "--out", str(other / "t")]) == 0
    code = main(["infer", "--ckpt", str(base / "d.ckpt"), "--graph", str(base / "d.graph"),
                 "--design", str(other / "t.design"), "--out", str(tmp_path / "p")])
    assert code == 1
    assert "instances but the graph has" in capsys.readouterr().err


def test_train_requires_labeled_graph(tmp_path, capsys):
    assert main(["gen", "--instances", "60", "--seed", "2", "--out", str(tmp_path / "g")]) == 0
    assert main(["build-graph", "--design", str(tmp_path / "g.design"),
                 "--out", str(tmp_path / "g.graph")]) == 0
    code = main(["train", "--graph", str(tmp_path / "g.graph"), "--out", str(tmp_path / "c")])
    assert code == 1
    assert "no LABEL lines" in capsys.readouterr().err


def test_train_reader_error_names_the_graph_file(tmp_path, capsys):
    base = run_pipeline(tmp_path, seed=7)
    lines = (base / "d.graph").read_text().splitlines(keepends=True)
    at = next(i for i, line in enumerate(lines) if line.startswith("EDGE"))
    bad = tmp_path / "bad.graph"
    bad.write_text("".join(lines[: at + 1] + [lines[at]] + lines[at + 1 :]))
    code = main(["train", "--graph", str(bad), "--out", str(tmp_path / "c")])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: {bad}: line {at + 2}: repeated EDGE line")


def test_infer_reader_error_names_the_checkpoint_file(tmp_path, capsys):
    base = run_pipeline(tmp_path, seed=1)
    bad = tmp_path / "bad.ckpt"
    bad.write_text("IMLG-CKPT v0\n")
    code = main(["infer", "--ckpt", str(bad), "--graph", str(base / "d.graph"),
                 "--out", str(tmp_path / "p")])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: {bad}: line 1: expected header")


def test_eval_reader_error_names_the_prediction_file(tmp_path, capsys):
    pred = tmp_path / "p.pred"
    pred.write_text("a,0.9,1\na,0.8,1\n")
    (tmp_path / "t.labels").write_text("a 1\n")
    code = main(["eval", "--pred", str(pred), "--labels", str(tmp_path / "t.labels")])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: {pred}: line 2: duplicate prediction for a")


def test_build_graph_reader_error_names_the_design_file(tmp_path, capsys):
    assert main(["gen", "--instances", "40", "--seed", "1", "--out", str(tmp_path / "g")]) == 0
    bad = tmp_path / "bad.design"
    bad.write_text((tmp_path / "g.design").read_text() + "WAT\n")
    code = main(["build-graph", "--design", str(bad), "--out", str(tmp_path / "g.graph")])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: {bad}: ")


def test_blas_thread_line_follows_the_config_lines(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    base = run_pipeline(tmp_path)
    out = capsys.readouterr().out.splitlines()
    blas = [at for at, ln in enumerate(out) if ln.startswith("blas ")]
    assert [out[at] for at in blas] == ["blas OPENBLAS_NUM_THREADS=3 OMP_NUM_THREADS=unset"] * 3
    # one each for gen, build-graph and train, right after its last config line
    assert all(out[at - 1].startswith("config ") and not out[at + 1].startswith("config ")
               for at in blas)
    monkeypatch.setenv("OMP_NUM_THREADS", "1")
    assert main(["gen", "--instances", "40", "--out", str(base / "e")]) == 0
    assert "blas OPENBLAS_NUM_THREADS=3 OMP_NUM_THREADS=1\n" in capsys.readouterr().out
