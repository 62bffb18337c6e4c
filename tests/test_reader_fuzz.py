"""Seeded mutation fuzzing of the five document readers.

Each reader gets a valid document of its format, written by the matching
writer, and a few hundred seeded mutations of it: a line deleted,
repeated or swapped; a token deleted, replaced or inserted; a line cut
to its first one or two tokens. Every mutated
document must either parse or raise the reader's own error class with a
message that starts with the line it names; any other exception is a
crash of the reader.
"""

import numpy as np
import pytest

from imlg.design import DesignError, parse_design, read_label_lines, write_design, write_labels
from imlg.graphs import GraphFormatError, build_graph, read_graph, write_graph
from imlg.model import HyperParams, init_params
from imlg.synth import GenConfig, generate_labeled
from imlg.train import (
    CheckpointError,
    PredictionError,
    load_checkpoint,
    read_predictions,
    save_checkpoint,
    write_predictions,
)

MUTATIONS = 200
# replacement tokens: numbers a reader may misread, directives of every
# format, separators and a pin reference
TOKENS = ["", "0", "1", "-1", "2", "7.5", "nan", "inf", "-inf", "1e999", "x", "LUT4", "FF",
          "LAYOUT", "INSTANCE", "NET", "EDGE", "FEAT", "LABEL", "HP", "PARAM", "N", "D",
          "IMLG-GRAPH", "v1", ",", "#", "a.b", "i0.o"]


def _documents():
    design, labels = generate_labeled(GenConfig(80, seed=3))
    graph = build_graph(design, labels)
    hp = HyperParams(hidden_dim=4)
    params = init_params(graph.features.shape[1], hp, seed=0)
    probs = np.random.default_rng(0).random(graph.n)
    names = set(graph.names)
    return {
        "graph": (write_graph(graph), read_graph, GraphFormatError),
        "design": (write_design(design), parse_design, DesignError),
        "labels": (write_labels(labels), lambda text: read_label_lines(text, names), DesignError),
        "predictions": (write_predictions(graph.names, probs, probs > 0.5), read_predictions,
                        PredictionError),
        "checkpoint": (save_checkpoint(params, hp), load_checkpoint, CheckpointError),
    }


DOCUMENTS = _documents()


def mutate(text: str, rng: np.random.Generator) -> str:
    """text with one line-level or token-level edit at a seeded position."""
    lines = text.split("\n")
    at = int(rng.integers(len(lines)))
    kind = int(rng.integers(7))
    if kind == 0:
        del lines[at]
    elif kind == 1:
        lines.insert(at, lines[int(rng.integers(len(lines)))])
    elif kind == 2:
        other = int(rng.integers(len(lines)))
        lines[at], lines[other] = lines[other], lines[at]
    else:
        sep = "," if "," in lines[at] else " "
        tokens = lines[at].split(sep)
        t = int(rng.integers(len(tokens)))
        if kind == 3:
            del tokens[t]
        elif kind == 4:
            tokens[t] = TOKENS[int(rng.integers(len(TOKENS)))]
        elif kind == 5:
            tokens.insert(t, TOKENS[int(rng.integers(len(TOKENS)))])
        else:
            del tokens[t % 2 + 1:]
        lines[at] = sep.join(tokens)
    return "\n".join(lines)


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_mutated_documents_parse_or_raise_the_readers_error_with_a_line(name):
    text, reader, error = DOCUMENTS[name]
    reader(text)  # the unmutated document parses
    rng = np.random.default_rng([13, sorted(DOCUMENTS).index(name)])
    rejected = 0
    for trial in range(MUTATIONS):
        doc = text
        for _ in range(int(rng.integers(1, 4))):
            doc = mutate(doc, rng)
        try:
            reader(doc)
        except error as err:
            assert str(err).startswith("line "), (trial, str(err))
            rejected += 1
    assert 0 < rejected < MUTATIONS  # the mutations reach both outcomes
