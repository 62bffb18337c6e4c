"""The settings surface: config classes reject bad values where they are
built, and the `imlg` config lines and flags stay as they were."""

import argparse
import math

import pytest

from imlg.cli import build_parser, main
from imlg.graphs import BuildConfig
from imlg.model import HyperParams
from imlg.train import TrainConfig

NAN = math.nan


@pytest.mark.parametrize(
    "make,message",
    [
        (lambda: HyperParams(lam=NAN), "lam must be >= 0, got nan"),
        (lambda: TrainConfig(lr=NAN), "lr must be > 0, got nan"),
        (lambda: TrainConfig(weight_decay=-1.0), "weight_decay must be >= 0, got -1.0"),
        (lambda: TrainConfig(weight_decay=NAN), "weight_decay must be >= 0, got nan"),
        (lambda: TrainConfig(cluster_size=0), "cluster_size must be >= 1, got 0"),
        (lambda: BuildConfig(L=NAN), "L must be >= 1, got nan"),
    ],
)
def test_config_rejects_nan_and_out_of_range_naming_the_field(make, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        make()


@pytest.mark.parametrize(
    "argv,message",
    [
        (["train", "--weight-decay", "-5", "--graph", "g.graph", "--out", "c"],
         "weight_decay must be >= 0, got -5.0"),
        (["train", "--lambda", "nan", "--graph", "g.graph", "--out", "c"],
         "lam must be >= 0, got nan"),
        (["build-graph", "--L", "nan", "--design", "d.design", "--out", "g"],
         "L must be >= 1, got nan"),
    ],
)
def test_cli_rejects_bad_setting_before_reading_inputs(argv, message, capsys):
    # the input files do not exist: the setting is checked first
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


PINNED_CONFIG_LINES = """\
config L = 5.0
config baseline_mode = False
config cluster_size = 10000
config clusters_per_batch = 1
config edge_cap = 16
config epochs = 1000
config eta = 10.0
config hidden_dim = 64
config lambda = 1.0
config lr = 0.001
config region_depth = 4
config seed = 0
config smote_k = 5
config threshold = 0.5
config weight_decay = 0.0005
"""


def test_train_prints_the_pinned_default_config_lines(tmp_path, capsys):
    main(["train", "--graph", str(tmp_path / "none.graph"), "--out", str(tmp_path / "c")])
    out = capsys.readouterr().out
    assert "".join(ln + "\n" for ln in out.splitlines() if ln.startswith("config ")) == (
        PINNED_CONFIG_LINES
    )


COMMON = {"-h", "--help", "--config", "--seed"}
PINNED_OPTIONS = {
    "gen": {"--instances", "--lut-mix", "--layout", "--hotspots", "--target-minority", "--out"},
    "build-graph": {"--design", "--labels", "--L", "--edge-cap", "--region-depth", "--out"},
    "train": {
        "--graph", "--out", "--log", "--epochs", "--lr", "--weight-decay", "--cluster-size",
        "--clusters-per-batch", "--hidden-dim", "--lambda", "--eta", "--smote-k",
        "--threshold", "--baseline-mode",
    },
    "infer": {"--ckpt", "--graph", "--design", "--out"},
    "eval": {"--pred", "--labels", "--out", "--roc-out", "--threshold"},
}


def test_subcommand_option_strings_are_pinned():
    subs = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert set(subs.choices) == set(PINNED_OPTIONS)
    for name, sub in subs.choices.items():
        options = {s for action in sub._actions for s in action.option_strings}
        assert options == COMMON | PINNED_OPTIONS[name], name


def _eval_files(tmp_path):
    # at tau 0.5 only a is flagged (F1 2/3); at tau 0.2 a, b and c are (F1 0.8)
    (tmp_path / "p.pred").write_text("a,0.9,1\nb,0.3,0\nc,0.25,0\nd,0.1,0\n")
    (tmp_path / "t.labels").write_text("a 1\nb 1\nc 0\nd 0\n")
    return ["eval", "--pred", str(tmp_path / "p.pred"), "--labels", str(tmp_path / "t.labels")]


def test_config_threshold_key_does_not_move_eval_tau(tmp_path, capsys):
    (tmp_path / "run.cfg").write_text("threshold = 0.2\n")
    assert main(_eval_files(tmp_path) + ["--config", str(tmp_path / "run.cfg")]) == 0
    out = capsys.readouterr().out
    assert "threshold 0.5" in out and "f1,0.66666666666666663" in out
    # eval reads no config key, so the report's is the only threshold shown
    assert not [ln for ln in out.splitlines() if ln.startswith("config ")]
    assert [ln.split()[-2:] for ln in out.splitlines() if "threshold" in ln] == [
        ["threshold", "0.5"]
    ]


def test_eval_threshold_flag_sets_tau(tmp_path, capsys):
    assert main(_eval_files(tmp_path) + ["--threshold", "0.2"]) == 0
    out = capsys.readouterr().out
    assert "threshold 0.2" in out and "f1,0.80000000000000004" in out
