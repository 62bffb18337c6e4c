import pytest

from imlg.design import (
    DesignError,
    Instance,
    LabelSet,
    Net,
    PlacementDesign,
    parse_design,
    parse_labels,
    write_design,
    write_labels,
)
from imlg.synth import GenConfig, generate_design

MINIMAL = """\
LAYOUT 4 4
INSTANCE l0 LUT4 0.5 0.5
INSTANCE f0 FF 1.0 0.5
NET n0 2 l0.o f0.d
"""


def test_parse_minimal_document():
    d = parse_design(MINIMAL)
    assert d.layout_w == 4 and d.layout_h == 4
    assert len(d.instances) == 2
    assert len(d.nets) == 1
    assert d.nets[0].pins == (("l0", "o"), ("f0", "d"))


def test_illegal_pin_for_type():
    bad = MINIMAL.replace("l0.o", "l0.i9")
    with pytest.raises(DesignError, match="pin illegal for type"):
        parse_design(bad)


def test_error_paths_name_line_or_entity():
    cases = [
        ("LAYOUT 4 4\nINSTANCE l0 LUT9 0 0\n", "unknown type"),
        ("LAYOUT 4 4\nINSTANCE a LUT2 0 0\nINSTANCE a LUT2 1 1\n", "duplicate instance"),
        ("LAYOUT 4 4\nINSTANCE a LUT2 5 0\n", "out of extent"),
        ("LAYOUT 4 4\nINSTANCE a LUT2 0 0\nNET n 1 a.o\n", "fewer than 2 pins"),
        ("LAYOUT 4 4\nNET n 2 a.o b.i0\n", "unknown instance"),
        ("INSTANCE a LUT2 0 0\n", "INSTANCE before LAYOUT"),
        ("LAYOUT 4 4\nINSTANCE a LUT2 0 0\nINSTANCE b FF 1 1\nNET n 2 a.o b.q\n",
         "more than one output-class pin"),
        ("LAYOUT 4 4\nGARBAGE x\n", "unknown directive"),
    ]
    for text, match in cases:
        with pytest.raises(DesignError, match=match):
            parse_design(text)


def test_syntax_error_reports_line_number():
    with pytest.raises(DesignError, match="line 3"):
        parse_design("LAYOUT 4 4\nINSTANCE a LUT2 0 0\nINSTANCE b LUT2 zz 0\n")


def test_comments_and_blank_lines_ignored():
    text = "# header\n\nLAYOUT 4 4  # extent\nINSTANCE l0 LUT2 0.25 3.5\n"
    d = parse_design(text)
    assert d.instances[0].x == 0.25


def test_roundtrip_on_seeded_designs():
    # write -> parse -> write must be the identity on the data model
    for seed in range(100):
        design = generate_design(GenConfig(n_instances=30, seed=seed, target_minority=0.1))
        text = write_design(design)
        again = parse_design(text)
        assert again == design
        assert write_design(again) == text


def test_canonical_form_is_idempotent():
    doc = "LAYOUT 4 4\nINSTANCE b FF 1 1\nINSTANCE a LUT2 0 0\nNET n0 2 a.o b.d\n"
    canonical = write_design(parse_design(doc))
    assert write_design(parse_design(canonical)) == canonical


def test_instance_order_does_not_affect_serialization():
    a = Instance("a", "LUT2", 0.0, 0.0)
    b = Instance("b", "FF", 1.0, 1.0)
    net = Net("n0", (("a", "o"), ("b", "d")))
    d1 = PlacementDesign(4, 4, [a, b], [net])
    d2 = PlacementDesign(4, 4, [b, a], [net])
    assert write_design(d1) == write_design(d2)


def test_empty_net_list_serializes_without_net_lines():
    d = PlacementDesign(2, 2, [Instance("a", "LUT2", 0.0, 0.0)], [])
    assert "NET" not in write_design(d)


def test_pin_on_two_nets_rejected():
    text = MINIMAL.replace("NET n0 2 l0.o f0.d\n", "NET a 2 l0.o f0.d\n\nNET c 2 f0.d f1.ck\n")
    text = text.replace("INSTANCE f0", "INSTANCE f1 FF 2.0 0.5\nINSTANCE f0")
    assert text.splitlines()[6] == "NET c 2 f0.d f1.ck"
    with pytest.raises(DesignError, match=r"^line 7: pin f0.d repeated: first on net a$"):
        parse_design(text)


def test_pin_twice_in_one_net_rejected():
    text = MINIMAL.replace("NET n0 2 l0.o f0.d", "NET a 3 l0.o f0.d f0.d")
    with pytest.raises(DesignError, match=r"^line 4: pin f0.d repeated: first on net a$"):
        parse_design(text)


def test_parse_labels_basic_and_minority_fraction():
    d = parse_design(MINIMAL)
    labels = parse_labels("l0 0\nf0 1\n", d)
    assert labels.labels == {"l0": 0, "f0": 1}
    assert labels.minority_fraction == 0.5


def test_parse_labels_missing_instance():
    d = parse_design(MINIMAL)
    with pytest.raises(DesignError, match="missing instance f0"):
        parse_labels("l0 0\n", d)


def test_parse_labels_unknown_and_bad_value():
    d = parse_design(MINIMAL)
    with pytest.raises(DesignError, match="unknown instance zz"):
        parse_labels("l0 0\nf0 1\nzz 0\n", d)
    with pytest.raises(DesignError, match="label not in"):
        parse_labels("l0 2\nf0 1\n", d)


def test_minority_fraction_table_scale():
    # 8087 unpacked among 105000 -> 7.70%
    labels = {f"i{k}": 1 if k < 8087 else 0 for k in range(105000)}
    assert round(LabelSet(labels).minority_fraction, 4) == 0.0770


def test_labels_roundtrip():
    d = parse_design(MINIMAL)
    labels = parse_labels("f0 1\nl0 0\n", d)
    assert parse_labels(write_labels(labels), d) == labels
