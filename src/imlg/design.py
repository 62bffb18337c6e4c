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
byte-identical documents.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


class DesignError(ValueError):
    """Malformed design or label document; names the offending line or entity."""

    def __init__(self, msg: str, line: int | None = None):
        if line is not None:
            msg = f"line {line}: {msg}"
        super().__init__(msg)
        self.line = line


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


@dataclass
class LabelSet:
    """Per-instance packing outcome: 0 packed, 1 unpacked (the positive class)."""

    labels: dict[str, int]

    @property
    def minority_fraction(self) -> float:
        return sum(1 for v in self.labels.values() if v == 1) / len(self.labels)


def validate_design(design: PlacementDesign) -> None:
    """Check all structural invariants, raising DesignError naming the culprit."""
    if design.layout_w < 1 or design.layout_h < 1:
        raise DesignError(f"layout extent must be >= 1, got {design.layout_w} {design.layout_h}")
    seen: dict[str, Instance] = {}
    for inst in design.instances:
        if inst.type not in TYPE_INDEX:
            raise DesignError(f"unknown type '{inst.type}' for instance {inst.name}")
        if "." in inst.name:
            raise DesignError(f"instance name must not contain '.': {inst.name}")
        if inst.name in seen:
            raise DesignError(f"duplicate instance name {inst.name}")
        if not (0.0 <= inst.x < design.layout_w and 0.0 <= inst.y < design.layout_h):
            raise DesignError(
                f"coordinate out of extent for instance {inst.name}: ({inst.x}, {inst.y})"
            )
        seen[inst.name] = inst
    net_names: set[str] = set()
    for net in design.nets:
        if net.name in net_names:
            raise DesignError(f"duplicate net name {net.name}")
        net_names.add(net.name)
        if len(net.pins) < 2:
            raise DesignError(f"net {net.name} has fewer than 2 pins")
        outputs = 0
        for inst_name, pin in net.pins:
            inst = seen.get(inst_name)
            if inst is None:
                raise DesignError(f"net {net.name} references unknown instance {inst_name}")
            if pin not in legal_pins(inst.type):
                raise DesignError(
                    f"pin illegal for type: {inst_name}.{pin} (type {inst.type})"
                )
            outputs += is_output_pin(inst.type, pin)
        if outputs > 1:
            raise DesignError(f"net {net.name} has more than one output-class pin")


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
                outputs += is_output_pin(inst.type, pin)
                pins.append((inst_name, pin))
            if outputs > 1:
                raise DesignError(f"net {name} has more than one output-class pin", lineno)
            net_names.add(name)
            nets.append(Net(name, tuple(pins)))
        else:
            raise DesignError(f"unknown directive '{kind}'", lineno)
    if layout is None:
        raise DesignError("missing LAYOUT line")
    return PlacementDesign(layout[0], layout[1], instances, nets)


def _fmt(value: float) -> str:
    # 17 significant digits round-trips float64 exactly
    return format(value, ".17g")


def write_design(design: PlacementDesign) -> str:
    """Serialize canonically: instances and nets sorted by name."""
    lines = [f"LAYOUT {design.layout_w} {design.layout_h}"]
    for inst in sorted(design.instances, key=lambda i: i.name):
        lines.append(f"INSTANCE {inst.name} {inst.type} {_fmt(inst.x)} {_fmt(inst.y)}")
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
