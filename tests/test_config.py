import json
import math

import pytest
from hypothesis import given, strategies as st

from fidreg.config import (
    format_float,
    format_kv,
    format_triple,
    kv_float,
    kv_int,
    kv_triple,
    parse_kv_text,
    require_keys,
    write_json,
)
from fidreg.bench import SceneSpec, generate_scene, run_benchmark, summarize
from fidreg.errors import ConfigError
from fidreg.icp import IcpConfig, icp_register
from fidreg.segmentation import SegmentationConfig
from fidreg.triangles import RegistrationConfig, TriangleTable, register


def test_parse_basic_with_comments_and_blanks():
    text = "# heading\n\na = 1\nb = two words\n  # indented comment\nc=3\n"
    assert parse_kv_text(text) == {"a": "1", "b": "two words", "c": "3"}


def test_parse_reports_line_numbers():
    with pytest.raises(ConfigError) as err:
        parse_kv_text("a = 1\nnot-a-pair\n")
    assert "line 2" in str(err.value)


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError) as err:
        parse_kv_text("a = 1\na = 2\n")
    assert "duplicate" in str(err.value)


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_format_float_round_trips(x):
    assert float(format_float(x)) == x


def test_format_float_is_repr_style():
    assert format_float(0.1) == "0.1"
    assert format_float(1e-17) == "1e-17"
    assert format_float(2) == "2.0"


def test_format_kv_and_reparse():
    pairs = {"alpha": "1.5", "beta": "x y z"}
    assert parse_kv_text(format_kv(pairs)) == pairs


def test_triple_round_trip():
    t = (1.5, -2.25, 1e-9)
    kv = parse_kv_text(f"p = {format_triple(t)}")
    assert kv_triple(kv, "p") == t


def test_kv_helpers_errors():
    kv = {"n": "3", "x": "1.5", "bad": "nope", "p": "1 2"}
    assert kv_int(kv, "n") == 3
    assert kv_float(kv, "x") == 1.5
    with pytest.raises(ConfigError):
        kv_int(kv, "x")
    with pytest.raises(ConfigError):
        kv_float(kv, "bad")
    with pytest.raises(ConfigError):
        kv_triple(kv, "p")


@pytest.mark.parametrize("value", ["1_000", "1_0.5", "\u0663", "\uff11", "1e1_0"])
def test_numbers_are_plain_ascii_without_grouping(value):
    kv = {"k": value, "p": f"1 {value} 2"}
    with pytest.raises(ConfigError, match="not an integer"):
        kv_int(kv, "k")
    with pytest.raises(ConfigError, match="not a number"):
        kv_float(kv, "k")
    with pytest.raises(ConfigError, match="not numeric"):
        kv_triple(kv, "p")
    with pytest.raises(ConfigError, match="'k'"):
        RegistrationConfig.from_text(f"k = {value}\n")


def test_require_keys():
    kv = {"a": "1", "b": "2"}
    require_keys(kv, required=("a",), known=("a", "b"))
    with pytest.raises(ConfigError) as err:
        require_keys(kv, required=("c",), known=("a", "b", "c"))
    assert "'c'" in str(err.value)
    with pytest.raises(ConfigError) as err:
        require_keys(kv, required=(), known=("a",))
    assert "'b'" in str(err.value)


def test_nan_not_finite_checked_here():
    # format_float must not mangle specials that callers intentionally emit
    assert format_float(float("nan")) == "nan"
    assert math.isinf(float(format_float(float("inf"))))


# The exact bytes of each text format: key order, float spelling and the
# transform words.  Round trips alone would not notice a change.
GOLDEN_TEXTS = [
    (
        RegistrationConfig(),
        "k = 4\nscale_tolerance_mm = 5.0\n",
    ),
    (
        RegistrationConfig(k=2, scale_tolerance_mm=0.1),
        "k = 2\nscale_tolerance_mm = 0.1\n",
    ),
    (IcpConfig(), "max_iterations = 100\nrmsd_delta_tolerance = 1e-06\n"),
    (
        IcpConfig(max_iterations=7, rmsd_delta_tolerance=1e-9),
        "max_iterations = 7\nrmsd_delta_tolerance = 1e-09\n",
    ),
    (
        SegmentationConfig(expected_mm3=27),
        "hu_min = 300.0\nconnectivity = 26\nexpected_mm3 = 27.0\ntolerance_fraction = 0.5\n",
    ),
    (
        SegmentationConfig(
            expected_mm3=4.5,
            hu_min=1200.5,
            connectivity=6,
            tolerance_fraction=0.25,
        ),
        "hu_min = 1200.5\nconnectivity = 6\nexpected_mm3 = 4.5\ntolerance_fraction = 0.25\n",
    ),
    (
        SceneSpec(n_markers=3),
        "n_markers = 3\nnoise_sigma_mm = 0.0\ndropout_count = 0\ndecoy_count = 0\nseed = 0\n"
        "placement_extent = 300.0 300.0 150.0\ntranslation_extent = 200.0 200.0 200.0\n"
        "true_transform = random\n",
    ),
    (
        SceneSpec(
            n_markers=12,
            noise_sigma_mm=0.1,
            dropout_count=1,
            decoy_count=2,
            seed=2**64 - 1,
            placement_extent=(1, 2.5, 1e-3),
            translation_extent=(10, 20, 30),
            true_transform="identity",
        ),
        "n_markers = 12\nnoise_sigma_mm = 0.1\ndropout_count = 1\ndecoy_count = 2\n"
        "seed = 18446744073709551615\nplacement_extent = 1.0 2.5 0.001\n"
        "translation_extent = 10.0 20.0 30.0\ntrue_transform = identity\n",
    ),
]


@pytest.mark.parametrize("obj, text", GOLDEN_TEXTS)
def test_to_text_golden_bytes(obj, text):
    assert obj.to_text() == text
    assert type(obj).from_text(text).to_text() == text


def _json_outputs():
    spec = SceneSpec(n_markers=6, noise_sigma_mm=1.0, dropout_count=1, decoy_count=2, seed=7)
    ct, device, _ = generate_scene(spec)
    table = TriangleTable()
    table.insert_marker(device.points)
    records = run_benchmark([spec, SceneSpec(n_markers=3, noise_sigma_mm=40.0, seed=8)],
                            trials_per_cell=3)
    return {
        "register": register(ct, table).to_json_dict(),
        "icp": icp_register(ct, device).to_json_dict(),
        "summary": {"cells": summarize(records)},
    }


@pytest.mark.parametrize("name", ["register", "icp", "summary"])
def test_write_json_bytes_are_json_dump_indented_by_two(name, tmp_path):
    data = _json_outputs()[name]
    write_json(data, tmp_path / "out.json")
    with open(tmp_path / "want.json", "w", encoding="ascii") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")
    assert (tmp_path / "out.json").read_bytes() == (tmp_path / "want.json").read_bytes()
