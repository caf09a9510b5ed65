import numpy as np
import pytest
from hypothesis import given, strategies as st

from fidreg.errors import FormatError
from fidreg.markers import CSV_HEADER, MarkerSet, read_marker_csv, write_marker_csv

finite = st.floats(
    allow_nan=False, allow_infinity=False, min_value=-1e6, max_value=1e6
)


@given(
    st.lists(st.tuples(finite, finite, finite), min_size=1, max_size=8),
    st.booleans(),
    st.sampled_from(["ct", "device"]),
)
def test_round_trip(tmp_path_factory, rows, with_ids, frame):
    path = tmp_path_factory.mktemp("mk") / "m.csv"
    pts = np.array(rows, dtype=np.float64).reshape(-1, 3)
    ids = tuple(range(100, 100 + len(rows))) if with_ids else None
    ms = MarkerSet(frame=frame, points=pts, ids=ids)
    write_marker_csv(ms, path)
    assert read_marker_csv(path) == ms


def test_header_only_file_is_an_error(tmp_path):
    # the frame rides on the data rows, so an empty file has no frame to carry
    path = tmp_path / "m.csv"
    path.write_text(CSV_HEADER + "\n")
    with pytest.raises(FormatError) as err:
        read_marker_csv(path)
    assert "no data rows" in str(err.value)


def test_written_floats_are_full_precision(tmp_path):
    pts = np.array([[0.1, 1 / 3, -2.5e-13]])
    path = tmp_path / "m.csv"
    write_marker_csv(MarkerSet(frame="ct", points=pts), path)
    line = path.read_text().splitlines()[1]
    assert line == "ct,,0.1,0.3333333333333333,-2.5e-13"


def test_header_is_exact(tmp_path):
    path = tmp_path / "m.csv"
    write_marker_csv(MarkerSet(frame="ct", points=np.zeros((1, 3))), path)
    assert path.read_text().splitlines()[0] == CSV_HEADER


def test_mixed_ids_round_trip(tmp_path):
    ms = MarkerSet(
        frame="device", points=np.zeros((3, 3)), ids=(4, None, 7)
    )
    path = tmp_path / "m.csv"
    write_marker_csv(ms, path)
    assert read_marker_csv(path).ids == (4, None, 7)


@pytest.mark.parametrize(
    "text, needle",
    [
        ("bogus header\nct,,0,0,0\n", "header"),
        (CSV_HEADER + "\nct,,0,0\n", "line 2"),
        (CSV_HEADER + "\nct,,a,0,0\n", "line 2"),
        (CSV_HEADER + "\nmoon,,0,0,0\n", "frame"),
        (CSV_HEADER + "\nct,,0,0,0\ndevice,,1,1,1\n", "line 3"),
        (CSV_HEADER + "\nct,x9,0,0,0\n", "line 2"),
        (CSV_HEADER + "\nct,,1,2,3\nct,,nan,0,0\n", "line 3: non-finite coordinate"),
        (CSV_HEADER + "\nct,,0,inf,0\n", "line 2: non-finite coordinate"),
        (CSV_HEADER + "\ndevice,,0,0,-1e999\n", "line 2: non-finite coordinate"),
        (CSV_HEADER + "\nct,,1,2,3\nct,,0,1e154,0\n", "line 3: coordinate beyond 1e+06 mm"),
        (CSV_HEADER + "\ndevice,,0,0,-1000000.5\n", "line 2: coordinate beyond 1e+06 mm"),
        (CSV_HEADER + "\nct,,1_0,0,0\n", "line 2: non-numeric coordinate"),
        (CSV_HEADER + "\nct,1_0,0,0,0\n", "line 2: bad id '1_0'"),
    ],
)
def test_read_errors(tmp_path, text, needle):
    path = tmp_path / "m.csv"
    path.write_text(text)
    with pytest.raises(FormatError) as err:
        read_marker_csv(path)
    assert needle in str(err.value)


def test_coordinates_up_to_the_bound_read(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text(CSV_HEADER + "\nct,,1e6,-1000000,0.5\n")
    assert read_marker_csv(path).points.tolist() == [[1e6, -1e6, 0.5]]


def test_frame_validation():
    with pytest.raises(ValueError):
        MarkerSet(frame="lab", points=np.zeros((1, 3)))


def test_points_must_be_finite():
    with pytest.raises(ValueError):
        MarkerSet(frame="ct", points=np.array([[np.nan, 0, 0]]))


def test_ids_length_checked():
    with pytest.raises(ValueError):
        MarkerSet(frame="ct", points=np.zeros((2, 3)), ids=(1,))


def test_equality_covers_frame_points_ids():
    a = MarkerSet(frame="ct", points=np.zeros((1, 3)), ids=(1,))
    assert a == MarkerSet(frame="ct", points=np.zeros((1, 3)), ids=(1,))
    assert a != MarkerSet(frame="device", points=np.zeros((1, 3)), ids=(1,))
    assert a != MarkerSet(frame="ct", points=np.ones((1, 3)), ids=(1,))
    assert a != MarkerSet(frame="ct", points=np.zeros((1, 3)), ids=(2,))


@pytest.mark.parametrize(
    "blob, needle",
    [
        (CSV_HEADER.encode() + b"\nct,,1\xe9,0,0\n", "line 2: byte 0xe9 is not ASCII"),
        (CSV_HEADER.encode() + b"\nct,,0,0,0\nct,,\xd9\xa3,0,0\n", "line 3: byte 0xd9"),
        (b"\xef\xbb\xbf" + CSV_HEADER.encode() + b"\n", "line 1: byte 0xef"),
    ],
)
def test_non_ascii_bytes_are_a_format_error(tmp_path, blob, needle):
    path = tmp_path / "m.csv"
    path.write_bytes(blob)
    with pytest.raises(FormatError) as err:
        read_marker_csv(path)
    assert needle in str(err.value)
