"""Command-line pipeline: gen, build-graph, train, infer, eval.

`gen`, `build-graph` and `train` print their effective configuration
(defaults, then config file, then flags, flags winning) so a run can be
reproduced from its log, then one `blas` line with the BLAS thread
variables: OpenBLAS rounds some sums differently at other thread counts,
so a run's digests hold for the count its log shows. `infer` and `eval`
read no config key, so they print none, though a config file given to them
is still checked. All randomness is controlled by the single `seed` key.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import Field, fields
from pathlib import Path

from .design import (
    parse_design,
    parse_labels,
    read_label_lines,
    write_design,
    write_labels,
)
from .graphs import BuildConfig, build_graph, read_graph, write_graph
from .metrics import render_report, report, roc_lines
from .model import HyperParams
from .synth import GenConfig, generate_labeled
from .train import (
    TrainConfig,
    infer,
    load_checkpoint,
    read_predictions,
    save_checkpoint,
    train,
    write_predictions,
)

# The config keys are the fields of these classes, which declare each
# setting's default and check its value; two keys keep shorter names.
_RENAMED = {"lam": "lambda", "edge_threshold": "threshold"}
KEYS: dict[str, tuple[type, Field]] = {
    _RENAMED.get(f.name, f.name): (owner, f)
    for owner in (TrainConfig, HyperParams, BuildConfig)
    for f in fields(owner)
}
DEFAULTS: dict[str, object] = {key: f.default for key, (_owner, f) in KEYS.items()}

# gen's flags for GenConfig fields; GenConfig supplies their defaults
_GEN_FLAGS = {"--lut-mix": "lut_ff_mix", "--hotspots": "hotspot_count",
              "--target-minority": "target_minority"}

_TRUE = {"1", "true", "yes", "on"}
_FALSE = {"0", "false", "no", "off"}


def _coerce(key: str, raw: str, where: str):
    """The config value `raw` as the type of key's default; an error starts
    with `where`, the file and line it came from."""
    default = DEFAULTS[key]
    if isinstance(default, bool):
        low = raw.lower()
        if low in _TRUE:
            return True
        if low in _FALSE:
            return False
        raise ValueError(f"{where}: config key '{key}' expects a boolean, got '{raw}'")
    try:
        return type(default)(raw)
    except ValueError:
        raise ValueError(
            f"{where}: config key '{key}' expects {type(default).__name__}, got '{raw}'"
        ) from None


def load_config(path: str | None) -> dict:
    cfg = dict(DEFAULTS)
    if path is None:
        return cfg
    text = Path(path).read_text(encoding="utf-8")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in DEFAULTS:
            raise ValueError(f"{path}:{lineno}: unknown config key '{key}'")
        cfg[key] = _coerce(key, value, f"{path}:{lineno}")
    return cfg


def _effective_config(ns: argparse.Namespace) -> dict:
    cfg = load_config(ns.config)
    for key in DEFAULTS:
        value = getattr(ns, key, None)  # a config flag's dest is its key
        if value is not None:
            cfg[key] = value
    return cfg


_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def _print_config(cfg: dict):
    for key in sorted(cfg):
        print(f"config {key} = {cfg[key]}")
    print("blas " + " ".join(f"{var}={os.environ.get(var, 'unset')}" for var in _BLAS_VARS))


def _settings(cfg: dict, owner: type):
    """An `owner` instance holding the config values of its fields."""
    return owner(**{f.name: cfg[key] for key, (cls, f) in KEYS.items() if cls is owner})


def _read(path: str, parse, *args):
    """parse(text of the file at path, *args); a format error names the file."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        return parse(text, *args)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None


def cmd_gen(ns) -> int:
    cfg = _effective_config(ns)
    _print_config(cfg)
    given = {k: getattr(ns, k) for k in _GEN_FLAGS.values() if getattr(ns, k) is not None}
    if ns.layout:
        given["layout_w"], given["layout_h"] = ns.layout
    gen_cfg = GenConfig(n_instances=ns.instances, seed=cfg["seed"], **given)
    design, labels = generate_labeled(gen_cfg)
    design_path = Path(f"{ns.out}.design")
    labels_path = Path(f"{ns.out}.labels")
    design_path.write_text(write_design(design), encoding="utf-8")
    labels_path.write_text(write_labels(labels), encoding="utf-8")
    print(f"wrote {design_path} ({len(design.instances)} instances, {len(design.nets)} nets)")
    print(f"wrote {labels_path} (minority fraction {labels.minority_fraction:.4f})")
    return 0


def cmd_build_graph(ns) -> int:
    cfg = _effective_config(ns)
    _print_config(cfg)
    build_cfg = _settings(cfg, BuildConfig)
    design = _read(ns.design, parse_design)
    labels = None
    if ns.labels:
        labels = _read(ns.labels, parse_labels, design)
    graph = build_graph(design, labels, cfg=build_cfg)
    Path(ns.out).write_text(write_graph(graph), encoding="utf-8")
    print(
        f"wrote {ns.out} ({graph.n} nodes, {graph.n_edges} edges, "
        f"{len(graph.isolated)} isolated)"
    )
    return 0


def cmd_train(ns) -> int:
    cfg = _effective_config(ns)
    _print_config(cfg)
    hp, train_cfg = _settings(cfg, HyperParams), _settings(cfg, TrainConfig)
    graph = _read(ns.graph, read_graph)
    if graph.labels is None:
        raise ValueError(f"{ns.graph}: graph file has no LABEL lines; train needs labels")
    params, log = train(graph, hp=hp, cfg=train_cfg)
    Path(ns.out).write_text(save_checkpoint(params, hp), encoding="utf-8")
    log_path = ns.log if ns.log else f"{ns.out}.log"
    Path(log_path).write_text(log.to_csv(), encoding="utf-8")
    last = log.rows[-1]
    print(f"wrote {ns.out} and {log_path}")
    print(f"final objective {last[4]:.6f} (l_clf {last[2]:.6f}, l_rec {last[3]:.6f})")
    return 0


def cmd_infer(ns) -> int:
    _effective_config(ns)  # checked; no key applies
    graph = _read(ns.graph, read_graph)
    params, _hp = _read(ns.ckpt, load_checkpoint)
    names = graph.names
    if ns.design:
        design = _read(ns.design, parse_design)
        names = sorted(inst.name for inst in design.instances)
        if len(names) != graph.n:
            raise ValueError(
                f"{ns.design} has {len(names)} instances but the graph has {graph.n} nodes"
            )
    probs, labels = infer(graph, params)
    Path(ns.out).write_text(write_predictions(names, probs, labels), encoding="utf-8")
    print(f"wrote {ns.out} ({graph.n} predictions, {int(labels.sum())} flagged unpacked)")
    return 0


def cmd_eval(ns) -> int:
    _effective_config(ns)  # checked; no key applies
    names, probs, _pred_labels = _read(ns.pred, read_predictions)
    truth = _read(ns.labels, read_label_lines)
    missing = [nm for nm in names if nm not in truth]
    if missing:
        raise ValueError(f"{ns.labels}: no label for predicted instance {missing[0]}")
    y = [truth[nm] for nm in names]
    tau = {} if ns.tau is None else {"tau": ns.tau}  # else metrics' default
    rep = report(probs, y, **tau)
    text = render_report(rep, **tau)
    print(text, end="")
    if ns.out:
        Path(ns.out).write_text(text, encoding="utf-8")
        print(f"wrote {ns.out}")
    if ns.roc_out:
        Path(ns.roc_out).write_text(roc_lines(rep.roc), encoding="utf-8")
        print(f"wrote {ns.roc_out}")
    return 0


def _add_config(sub: argparse.ArgumentParser, *owners: type):
    """--config, --seed and a --<key> flag (underscores as dashes) for each
    config key of `owners`; a flag left out is None, so the file or the
    default applies."""
    sub.add_argument("--config", help="key=value config file")
    for key, (owner, f) in KEYS.items():
        if owner in owners or key == "seed":
            flag = "--" + key.replace("_", "-")
            if isinstance(f.default, bool):
                sub.add_argument(flag, dest=key, action="store_true", default=None)
            else:
                sub.add_argument(flag, dest=key, type=type(f.default), default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="imlg", description="FPGA packing prediction pipeline"
    )
    subs = parser.add_subparsers(dest="command", required=True)

    gen = subs.add_parser("gen", help="generate a synthetic design + oracle labels")
    _add_config(gen)
    gen.add_argument("--instances", type=int, required=True)
    for flag, name in _GEN_FLAGS.items():
        gen.add_argument(flag, dest=name, type=type(getattr(GenConfig, name)))
    gen.add_argument("--layout", type=int, nargs=2, metavar=("W", "H"))
    gen.add_argument("--out", required=True, help="prefix for .design/.labels files")
    gen.set_defaults(func=cmd_gen)

    build = subs.add_parser("build-graph", help="design (+labels) -> graph file")
    _add_config(build, BuildConfig)
    build.add_argument("--design", required=True)
    build.add_argument("--labels")
    build.add_argument("--out", required=True)
    build.set_defaults(func=cmd_build_graph)

    tr = subs.add_parser("train", help="graph file -> checkpoint + train log")
    _add_config(tr, TrainConfig, HyperParams)
    tr.add_argument("--graph", required=True)
    tr.add_argument("--out", required=True, help="checkpoint path")
    tr.add_argument("--log", help="train log path (default: <out>.log)")
    tr.set_defaults(func=cmd_train)

    inf = subs.add_parser("infer", help="checkpoint + graph -> prediction file")
    _add_config(inf)
    inf.add_argument("--ckpt", required=True)
    inf.add_argument("--graph", required=True)
    inf.add_argument("--design", help="design file supplying instance names")
    inf.add_argument("--out", required=True)
    inf.set_defaults(func=cmd_infer)

    ev = subs.add_parser("eval", help="prediction + label files -> report")
    _add_config(ev)
    ev.add_argument("--pred", required=True)
    ev.add_argument("--labels", required=True)
    ev.add_argument("--out")
    ev.add_argument("--roc-out")
    ev.add_argument("--threshold", dest="tau", type=float,
                    help="F1 decision threshold (default: metrics.report's)")
    ev.set_defaults(func=cmd_eval)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        return ns.func(ns)
    except (ValueError, OSError, RuntimeError, ArithmeticError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
