"""Placement design and label documents.

The design format is line-oriented UTF-8 with ``#`` comments and
whitespace-separated tokens:

    LAYOUT <w> <h>
    INSTANCE <name> <LUT2|LUT3|LUT4|LUT5|LUT6|FF> <x> <y>
    NET <name> <pin_count> <inst.pin> ...

Coordinates are fractional slice units inside the layout extent (rounding
to integer slice cells happens downstream, never here). LUTk instances
expose pins ``i0..i(k-1)`` and ``o``; FFs expose ``d``, ``q``, ``ck`` and
``sr``. A net lists at least two pins and at most one output-class pin
(a LUT ``o`` or an FF ``q``). Instances must be declared before any net
that references them.

Label documents carry one ``<instance> <0|1>`` pair per line; label 1
marks an unpacked (minority) instance. Serialization is canonical:
instances and nets are emitted sorted by name, so equal designs produce
byte-identical documents. A pin appears on at most one net, once.

`NodeTable` is the one reading of a design's pins into per-node packing
facts; the packing oracle and the graph builder both work from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

INSTANCE_TYPES = ("LUT2", "LUT3", "LUT4", "LUT5", "LUT6", "FF")
LUT_TYPES = INSTANCE_TYPES[:5]
TYPE_INDEX = {t: i for i, t in enumerate(INSTANCE_TYPES)}


def lut_width(type_tag: str) -> int:
    """Number of input pins of a LUT type tag such as ``LUT4``."""
    return int(type_tag[3:])


_PIN_TABLE = {t: tuple(f"i{k}" for k in range(lut_width(t))) + ("o",) for t in LUT_TYPES}
_PIN_TABLE["FF"] = ("d", "q", "ck", "sr")


def legal_pins(type_tag: str) -> tuple[str, ...]:
    return _PIN_TABLE[type_tag]


def is_output_pin(type_tag: str, pin: str) -> bool:
    """True for the single output-class pin: LUT ``o`` or FF ``q``."""
    return pin == ("q" if type_tag == "FF" else "o")


class DocumentError(ValueError):
    """Malformed text document; the message starts with the line, when known."""

    def __init__(self, msg: str, line: int | None = None):
        if line is not None:
            msg = f"line {line}: {msg}"
        super().__init__(msg)
        self.line = line


class DesignError(DocumentError):
    """Malformed design or label document; names the offending line or entity."""


def fmt_float(value: float) -> str:
    # 17 significant digits round-trips float64 exactly
    return format(value, ".17g")


@dataclass(frozen=True)
class Instance:
    name: str
    type: str
    x: float
    y: float


@dataclass(frozen=True)
class Net:
    name: str
    pins: tuple[tuple[str, str], ...]  # (instance name, pin name)


@dataclass
class PlacementDesign:
    layout_w: int
    layout_h: int
    instances: list[Instance] = field(default_factory=list)
    nets: list[Net] = field(default_factory=list)


MAX_BLE_INPUTS = 6  # distinct input nets two LUTs sharing a BLE may have between them


class NodeTable:
    """A design's per-node packing facts, read from its pins in one pass.

    Nodes are the instances in name order; a node's id is its position.
    Nets are numbered by their position in ``design.nets``; -1 means none.
    These facts state the BLE rule that the packing oracle and the
    congeneric edges share: two LUTs may share a BLE when the union of
    their ``lut_inputs`` holds at most MAX_BLE_INPUTS nets, two FFs when
    their ``ck`` and their ``sr`` are equal. An FF's ``d_driver`` is the
    LUT whose ``o`` shares a net with its ``d``: the pair the oracle
    places side by side and the correlation rule links.
    """

    def __init__(self, design: PlacementDesign):
        insts = sorted(design.instances, key=lambda s: s.name)
        n = len(insts)
        self.names = [s.name for s in insts]
        self.name_to_id = name_to_id = {nm: i for i, nm in enumerate(self.names)}
        self.xy = np.array([(s.x, s.y) for s in insts]).reshape(n, 2)
        self.type_index = np.array([TYPE_INDEX[s.type] for s in insts], dtype=np.int8)
        self.is_ff = self.type_index == TYPE_INDEX["FF"]
        is_ff = self.is_ff.tolist()
        ck, sr, d_driver = [-1] * n, [-1] * n, [-1] * n
        lut_inputs: list[set[int]] = [set() for _ in range(n)]
        self.net_members: list[list[int]] = []
        for k, net in enumerate(design.nets):
            members: set[int] = set()
            driver, d_sinks = -1, []
            for nm, pin in net.pins:
                i = name_to_id[nm]
                members.add(i)
                if not is_ff[i]:
                    if pin == "o":
                        driver = i
                    else:
                        lut_inputs[i].add(k)
                elif pin == "d":
                    d_sinks.append(i)
                elif pin == "ck":
                    ck[i] = k
                elif pin == "sr":
                    sr[i] = k
            if driver >= 0:
                for f in d_sinks:
                    d_driver[f] = driver
            self.net_members.append(sorted(members))
        self.ck = np.array(ck, dtype=np.int64)
        self.sr = np.array(sr, dtype=np.int64)
        self.d_driver = np.array(d_driver, dtype=np.int64)
        self.lut_inputs = [frozenset(s) for s in lut_inputs]

    @property
    def n(self) -> int:
        return len(self.names)


@dataclass
class LabelSet:
    """Per-instance packing outcome: 0 packed, 1 unpacked (the positive class)."""

    labels: dict[str, int]

    @property
    def minority_fraction(self) -> float:
        return sum(1 for v in self.labels.values() if v == 1) / len(self.labels)


def _strip_comment(line: str) -> str:
    cut = line.find("#")
    return line if cut < 0 else line[:cut]


def parse_design(text: str) -> PlacementDesign:
    """Parse and validate a design document; errors report the line number."""
    layout: tuple[int, int] | None = None
    instances: list[Instance] = []
    nets: list[Net] = []
    inst_by_name: dict[str, Instance] = {}
    net_names: set[str] = set()
    first_net: dict[tuple[str, str], str] = {}  # (instance, pin) -> the net it first appeared on
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = _strip_comment(raw).split()
        if not tokens:
            continue
        kind = tokens[0]
        if kind == "LAYOUT":
            if layout is not None:
                raise DesignError("duplicate LAYOUT line", lineno)
            if len(tokens) != 3:
                raise DesignError("LAYOUT expects '<w> <h>'", lineno)
            try:
                w, h = int(tokens[1]), int(tokens[2])
            except ValueError:
                raise DesignError(f"bad LAYOUT integers: {raw.strip()}", lineno) from None
            if w < 1 or h < 1:
                raise DesignError(f"layout extent must be >= 1, got {w} {h}", lineno)
            layout = (w, h)
        elif kind == "INSTANCE":
            if layout is None:
                raise DesignError("INSTANCE before LAYOUT", lineno)
            if len(tokens) != 5:
                raise DesignError("INSTANCE expects '<name> <type> <x> <y>'", lineno)
            name, type_tag = tokens[1], tokens[2]
            if type_tag not in TYPE_INDEX:
                raise DesignError(f"unknown type '{type_tag}'", lineno)
            if "." in name:
                raise DesignError(f"instance name must not contain '.': {name}", lineno)
            if name in inst_by_name:
                raise DesignError(f"duplicate instance name {name}", lineno)
            try:
                x, y = float(tokens[3]), float(tokens[4])
            except ValueError:
                raise DesignError(f"bad coordinate: {raw.strip()}", lineno) from None
            if not (0.0 <= x < layout[0] and 0.0 <= y < layout[1]):
                raise DesignError(f"coordinate out of extent for {name}: ({x}, {y})", lineno)
            inst = Instance(name, type_tag, x, y)
            inst_by_name[name] = inst
            instances.append(inst)
        elif kind == "NET":
            if len(tokens) < 3:
                raise DesignError("NET expects '<name> <pin_count> <inst.pin> ...'", lineno)
            name = tokens[1]
            if name in net_names:
                raise DesignError(f"duplicate net name {name}", lineno)
            try:
                count = int(tokens[2])
            except ValueError:
                raise DesignError(f"bad pin count: {tokens[2]}", lineno) from None
            pin_tokens = tokens[3:]
            if len(pin_tokens) != count:
                raise DesignError(
                    f"net {name} declares {count} pins but lists {len(pin_tokens)}", lineno
                )
            if count < 2:
                raise DesignError(f"net {name} has fewer than 2 pins", lineno)
            pins = []
            outputs = 0
            for tok in pin_tokens:
                if "." not in tok:
                    raise DesignError(f"bad pin reference '{tok}' (expected inst.pin)", lineno)
                inst_name, pin = tok.rsplit(".", 1)
                inst = inst_by_name.get(inst_name)
                if inst is None:
                    raise DesignError(f"net {name} references unknown instance {inst_name}", lineno)
                if pin not in legal_pins(inst.type):
                    raise DesignError(
                        f"pin illegal for type: {inst_name}.{pin} (type {inst.type})", lineno
                    )
                ref = (inst_name, pin)
                if ref in first_net:
                    raise DesignError(f"pin {tok} repeated: first on net {first_net[ref]}", lineno)
                first_net[ref] = name
                outputs += is_output_pin(inst.type, pin)
                pins.append(ref)
            if outputs > 1:
                raise DesignError(f"net {name} has more than one output-class pin", lineno)
            net_names.add(name)
            nets.append(Net(name, tuple(pins)))
        else:
            raise DesignError(f"unknown directive '{kind}'", lineno)
    if layout is None:
        raise DesignError("missing LAYOUT line")
    return PlacementDesign(layout[0], layout[1], instances, nets)


def write_design(design: PlacementDesign) -> str:
    """Serialize canonically: instances and nets sorted by name."""
    lines = [f"LAYOUT {design.layout_w} {design.layout_h}"]
    for inst in sorted(design.instances, key=lambda i: i.name):
        lines.append(f"INSTANCE {inst.name} {inst.type} {fmt_float(inst.x)} {fmt_float(inst.y)}")
    for net in sorted(design.nets, key=lambda n: n.name):
        pins = " ".join(f"{inst}.{pin}" for inst, pin in net.pins)
        lines.append(f"NET {net.name} {len(net.pins)} {pins}")
    return "\n".join(lines) + "\n"


def read_label_lines(text: str, known: set[str] | None = None) -> dict[str, int]:
    """Parse ``<instance> <0|1>`` lines into a dict, rejecting malformed
    lines, bad values, repeated instances and, when ``known`` is given,
    unknown instances, each with its line number. Coverage is the caller's
    business."""
    labels: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = _strip_comment(raw).split()
        if not tokens:
            continue
        if len(tokens) != 2:
            raise DesignError("label line expects '<instance> <0|1>'", lineno)
        name, value = tokens
        if known is not None and name not in known:
            raise DesignError(f"unknown instance {name}", lineno)
        if name in labels:
            raise DesignError(f"duplicate label for {name}", lineno)
        if value not in ("0", "1"):
            raise DesignError(f"label not in {{0,1}} for {name}: {value}", lineno)
        labels[name] = int(value)
    return labels


def parse_labels(text: str, design: PlacementDesign) -> LabelSet:
    """Parse a label document and check it covers the design exactly."""
    known = {inst.name for inst in design.instances}
    labels = read_label_lines(text, known)
    missing = sorted(known - labels.keys())
    if missing:
        raise DesignError(f"missing instance {missing[0]} ({len(missing)} uncovered)")
    return LabelSet(labels)


def write_labels(labels: LabelSet) -> str:
    lines = [f"{name} {value}" for name, value in sorted(labels.labels.items())]
    return "\n".join(lines) + "\n"
