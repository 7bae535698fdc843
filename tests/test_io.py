import os
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polymot import io as pio
from polymot import rle
from polymot.errors import InvalidInputError, ParseError
from polymot.geometry import Point2, Polygon
from polymot.metrics import MetricsReport, flatten_frame
from polymot.rle import encode_rle
from polymot.simulator import IDENTITY_NOISE, build_scenario, generate, perturb
from polymot.tracker import (Detection, DetectionBlock, TrackerConfig,
                             emitted_instances, run_sequence)

from oracles import reference_format_detection, reference_parse_detections
from test_metrics import assert_same_frame, label_image
from test_simulator import assert_same_detections


def sample_detections(n_frames=6):
    sc = build_scenario("linear", 2, n_frames, 256, 160, 3)
    return perturb(sc, generate(sc), IDENTITY_NOISE, 4)


class TestDetectionFiles:
    def test_round_trip_within_format_precision(self, tmp_path):
        dets = sample_detections()
        path = str(tmp_path / "dets.txt")
        pio.write_detections(dets, path)
        parsed = pio.parse_detections(path)
        assert sorted(parsed) == [f for f, dd in enumerate(dets) if dd]
        for f, frame_dets in enumerate(dets):
            if not frame_dets:
                continue
            assert len(parsed[f]) == len(frame_dets)
            for a, b in zip(frame_dets, parsed[f]):
                assert b.frame == a.frame and b.class_id == a.class_id
                assert abs(b.center.x - a.center.x) <= 1e-4
                assert abs(b.center.y - a.center.y) <= 1e-4
                assert abs(b.score - a.score) <= 1e-4
                assert np.abs(b.polygon.vertices - a.polygon.vertices).max() <= 1e-4

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# just a comment\n\n")
        assert pio.parse_detections(str(path)) == {}

    def test_malformed_line_names_line_number(self, tmp_path):
        dets = sample_detections(n_frames=12)  # 24 record lines
        path = tmp_path / "dets.txt"
        pio.write_detections(dets, str(path))
        lines = path.read_text().splitlines()
        lines[16] = "0 0 bad line"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=r":17:"):
            pio.parse_detections(str(path))

    def test_decreasing_frames_rejected(self, tmp_path):
        dets = sample_detections()
        path = tmp_path / "dets.txt"
        pio.write_detections(dets, str(path))
        lines = path.read_text().splitlines()
        lines.append(lines[0])  # frame 0 after later frames
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError):
            pio.parse_detections(str(path))

    @pytest.mark.parametrize("field,column", [("center", 3), ("depth", 5),
                                              ("offset", 6)])
    def test_non_finite_field_rejected(self, tmp_path, field, column):
        d = sample_detections()[0][0]
        nan_value = {"center": Point2(float("nan"), d.center.y),
                     "depth": float("nan"),
                     "offset": (float("nan"), d.offset[1])}[field]
        with pytest.raises(InvalidInputError, match="finite"):
            replace(d, **{field: nan_value})
        path = tmp_path / "dets.txt"
        pio.write_detections(sample_detections(), str(path))
        lines = path.read_text().splitlines()
        parts = lines[3].split()
        parts[column] = "nan"
        lines[3] = " ".join(parts)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=r":4: .*finite"):
            pio.parse_detections(str(path))

    def test_vertex_count_inferred_and_fixed_per_file(self, tmp_path):
        path = tmp_path / "dets.txt"
        pio.write_detections(sample_detections(), str(path))
        lines = path.read_text().splitlines()
        lines[2] = " ".join(lines[2].split()[:-2])  # one vertex short
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=r":3: 31 vertices, earlier lines have 32"):
            pio.parse_detections(str(path))
        path.write_text("0 0 0.9 1 1 1 0 0 0 0 2 0 1 2 7\n")  # odd field count
        with pytest.raises(ParseError, match=r":1: expected 8 \+ 2V"):
            pio.parse_detections(str(path))
        path.write_text("0 0 0.9 1 1 1 0 0 0 0 2 2\n")  # two vertices
        with pytest.raises(ParseError, match=r":1: expected 8 \+ 2V"):
            pio.parse_detections(str(path))

    @given(n_vertices=st.sampled_from([3, 16, 32]),
           data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_round_trip_any_vertex_count(self, tmp_path_factory, n_vertices, data):
        coord = st.floats(0, 500, allow_nan=False)
        frames = []
        for frame in range(data.draw(st.integers(1, 3))):
            dets = []
            for _ in range(data.draw(st.integers(0, 3))):
                ring = np.array(data.draw(st.lists(
                    st.tuples(coord, coord), min_size=n_vertices,
                    max_size=n_vertices)), dtype=float)
                c = ring.mean(axis=0)
                dets.append(Detection(
                    frame=frame, class_id=data.draw(st.integers(0, 5)),
                    score=data.draw(st.floats(0, 1)), center=Point2(*c),
                    polygon=Polygon(ring), depth=data.draw(coord),
                    offset=(data.draw(st.floats(-9, 9)), data.draw(st.floats(-9, 9)))))
            frames.append(dets)
        path = str(tmp_path_factory.mktemp("dets") / "dets.txt")
        pio.write_detections(frames, path)
        parsed = pio.parse_detections(path)
        assert sorted(parsed) == [f for f, dets in enumerate(frames) if dets]
        for f, dets in parsed.items():
            for a, b in zip(frames[f], dets, strict=True):
                assert (b.frame, b.class_id) == (a.frame, a.class_id)
                assert len(b.polygon) == n_vertices
                got = [b.score, *b.center, b.depth, *b.offset]
                want = [a.score, *a.center, a.depth, *a.offset]
                assert np.allclose(got, want, rtol=0, atol=1e-4)
                assert np.abs(b.polygon.vertices - a.polygon.vertices).max() <= 1e-4

    def test_comments_stripped(self, tmp_path):
        dets = sample_detections()
        path = tmp_path / "dets.txt"
        pio.write_detections(dets, str(path))
        text = "# header\n" + path.read_text().replace("\n", " # tail\n", 1)
        path.write_text(text)
        assert pio.parse_detections(str(path))


# a well-formed 4-vertex line: a 10 px square centered on (15, 15)
GOOD = "{frame} 1 0.9 15 15 2 -1 0 10 10 20 10 20 20 10 20"

# one defect per message of a line-by-line parse, each as a function of the
# line's frame (the previous good line has frame 5)
DEFECTS = {
    "field count": "{frame} 1 0.9 15 15 2 -1 0 10 10 20 10 20 20 10",
    "vertex count": "{frame} 1 0.9 15 15 2 -1 0 10 10 20 10 20 20 10 20 15 5",
    "bad int": "{frame} x 0.9 15 15 2 -1 0 10 10 20 10 20 20 10 20",
    "bad float": "{frame} 1 0.9 15 1.5.1 2 -1 0 10 10 20 10 20 20 10 20",
    "decreasing frame": "1 1 0.9 15 15 2 -1 0 10 10 20 10 20 20 10 20",
    "non-finite field": "{frame} 1 0.9 15 15 2 nan 0 10 10 20 10 20 20 10 20",
    "non-finite vertex": "{frame} 1 0.9 15 15 2 -1 0 10 10 20 inf 20 20 10 20",
    "score range": "{frame} 1 1.25 15 15 2 -1 0 10 10 20 10 20 20 10 20",
    "off centroid": "{frame} 1 0.9 25 15 2 -1 0 10 10 20 10 20 20 10 20",
}
MESSAGES = {
    "field count": r"expected 8 \+ 2V fields with V >= 3 vertices, got 15",
    "vertex count": r"5 vertices, earlier lines have 4",
    "bad int": r"invalid literal for int\(\) with base 10: 'x'",
    "bad float": r"could not convert string to float: '1\.5\.1'",
    "decreasing frame": r"frame 1 after frame 5",
    "non-finite field": r"center \(15\.0, 15\.0\), depth 2\.0 and offset \(nan, 0\.0\) must be finite",
    "non-finite vertex": r"polygon vertices must be finite",
    "score range": r"score 1\.25 outside \[0, 1\]",
    "off centroid": r"center Point2\(x=25\.0, y=15\.0\) is 2\.00\+ px away from the polygon centroid",
}


def detection_lines(n_lines):
    """Good lines, about three per frame, from frame 5 on."""
    return [GOOD.format(frame=5 + k // 3) for k in range(n_lines)]


def random_detections(data, n_vertices):
    """Per-frame lists of valid Detections with awkward numbers: -0.0, tiny
    negatives that format as -0.0000, scores of exactly 0 and 1, and large
    magnitudes."""
    special = st.sampled_from([0.0, -0.0, -1e-5, 1e-5, 123456789.123456])
    coord = st.floats(-1e9, 1e9, allow_nan=False) | special
    number = st.floats(-1e15, 1e15, allow_nan=False) | special
    score = st.sampled_from([0.0, -0.0, 1.0]) | st.floats(0, 1)
    frames = []
    for frame in range(data.draw(st.integers(1, 4))):
        dets = []
        for _ in range(data.draw(st.integers(0, 4))):
            ring = np.array(data.draw(st.lists(st.tuples(coord, coord), min_size=n_vertices,
                                               max_size=n_vertices)), dtype=float)
            dets.append(Detection(
                frame=frame, class_id=data.draw(st.integers(0, 5)),
                score=data.draw(score), center=Point2(*ring.mean(axis=0)),
                polygon=Polygon(ring), depth=data.draw(number),
                offset=(data.draw(number), data.draw(number))))
        frames.append(dets)
    return frames


def assert_same_parse(path):
    """parse_detections equals the line-by-line oracle: the same ParseError
    message, or the same frames with every field equal bit for bit."""
    try:
        want = reference_parse_detections(path)
    except ParseError as exc:
        with pytest.raises(ParseError) as got:
            pio.parse_detections(path)
        assert str(got.value) == str(exc)
        return
    got = pio.parse_detections(path)
    assert list(got) == list(want)
    for frame in want:
        assert_same_detections(got[frame], want[frame])


class TestDetectionBlocks:
    @given(n_vertices=st.sampled_from([3, 16, 32]), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_text_and_parse_equal_the_per_line_oracles(self, tmp_path_factory,
                                                       n_vertices, data):
        frames = random_detections(data, n_vertices)
        want = "".join(reference_format_detection(d) + "\n" for dets in frames for d in dets)
        rows = [d for dets in frames for d in dets]
        # the same rows as one block of columns, not of Detections
        block = DetectionBlock(
            np.array([d.frame for d in rows], dtype=np.int64).reshape(-1),
            np.array([d.class_id for d in rows], dtype=np.int64).reshape(-1),
            np.array([d.score for d in rows]).reshape(-1),
            np.array([d.center for d in rows]).reshape(-1, 2),
            np.array([d.offset for d in rows]).reshape(-1, 2),
            np.array([d.depth for d in rows]).reshape(-1),
            np.array([d.polygon.vertices for d in rows]).reshape(-1, n_vertices, 2))
        directory = tmp_path_factory.mktemp("dets")
        for name, source in (("lists", frames), ("block", [block])):
            path = str(directory / f"{name}.txt")
            pio.write_detections(source, path)
            assert open(path).read() == want
            assert_same_parse(path)

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_any_defects_report_what_the_per_line_oracle_reports(
            self, tmp_path_factory, data):
        lines = detection_lines(data.draw(st.integers(1, 12)))
        for _ in range(data.draw(st.integers(0, 3))):
            k = data.draw(st.integers(0, len(lines) - 1))
            frame = 5 + k // 3
            lines[k] = DEFECTS[data.draw(st.sampled_from(sorted(DEFECTS)))].format(frame=frame)
        path = str(tmp_path_factory.mktemp("dets") / "dets.txt")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        with mock.patch.object(pio, "PARSE_BLOCK_LINES", data.draw(st.integers(1, 5))):
            assert_same_parse(path)

    @pytest.mark.parametrize("first", sorted(DEFECTS))
    def test_first_bad_line_in_file_order_wins(self, tmp_path, first):
        for second in DEFECTS:
            lines = detection_lines(6)
            lines[1] = DEFECTS[first].format(frame=5)
            lines[3] = DEFECTS[second].format(frame=6)
            path = tmp_path / "dets.txt"
            path.write_text("\n".join(lines) + "\n")
            with pytest.raises(ParseError, match=rf"dets\.txt:2: {MESSAGES[first]}$"):
                pio.parse_detections(str(path))
            assert_same_parse(str(path))

    def test_same_line_defects_keep_line_by_line_precedence(self, tmp_path):
        path = tmp_path / "dets.txt"
        cases = [  # line 2 text, expected message
            ("1 1 0.9 15 x 2 -1 0 10 10 20 10 20 20 10 20",  # frame order and float
             "could not convert string to float: 'x'"),
            ("1 1 0.9 15 15 nan -1 0 10 10 20 10 20 20 10 20",  # frame order and value
             "frame 1 after frame 5"),
            ("5 y 0.9 15 x 2 -1 0 10 10 20 10 20 20 10 20",  # int and float
             "invalid literal for int() with base 10: 'y'"),
            ("5 1 nan 15 15 inf -1 0 10 10 20 inf 20 20 10 20",  # vertex, score, field
             "polygon vertices must be finite"),
            ("5 1 nan 15 15 inf -1 0 10 10 20 10 20 20 10 20",  # score and field
             "score nan outside [0, 1]"),
        ]
        for line, message in cases:
            path.write_text(GOOD.format(frame=5) + "\n" + line + "\n")
            with pytest.raises(ParseError) as exc:
                pio.parse_detections(str(path))
            assert str(exc.value) == f"{path}:2: {message}"
            assert_same_parse(str(path))

    @pytest.mark.parametrize("block_lines", [4, None])
    def test_bad_line_in_a_later_block(self, tmp_path, monkeypatch, block_lines):
        if block_lines:
            monkeypatch.setattr(pio, "PARSE_BLOCK_LINES", block_lines)
        size = pio.PARSE_BLOCK_LINES
        lines = detection_lines(3 * size)
        lines[size + 2] = DEFECTS["score range"].format(frame=5 + (size + 2) // 3)
        lines[2 * size + 1] = DEFECTS["field count"].format(frame=5)
        path = tmp_path / "dets.txt"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=rf":{size + 3}: {MESSAGES['score range']}$"):
            pio.parse_detections(str(path))
        lines[size + 2] = GOOD.format(frame=5 + (size + 2) // 3)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=rf":{2 * size + 2}: {MESSAGES['field count']}$"):
            pio.parse_detections(str(path))

    def test_scores_of_exactly_zero_and_one_are_accepted(self, tmp_path):
        path = tmp_path / "dets.txt"
        path.write_text(GOOD.replace("0.9", "0").format(frame=0) + "\n"
                        + GOOD.replace("0.9", "1").format(frame=1) + "\n")
        frames = pio.parse_detections(str(path))
        assert [d.score for f in (0, 1) for d in frames[f]] == [0.0, 1.0]

    def test_rows_of_a_parsed_block_still_validate(self, tmp_path):
        path = tmp_path / "dets.txt"
        path.write_text(GOOD.format(frame=0) + "\n")
        d = pio.parse_detections(str(path))[0][0]
        with pytest.raises(InvalidInputError, match="must be finite"):
            replace(d, center=Point2(float("nan"), d.center.y))
        with pytest.raises(InvalidInputError, match="outside"):
            replace(d, score=1.5)
        assert replace(d, score=0.5).score == 0.5

    def test_frame_beyond_64_bits_is_a_parse_error(self, tmp_path):
        path = tmp_path / "dets.txt"
        path.write_text(GOOD.format(frame=2 ** 63) + "\n")
        with pytest.raises(ParseError, match=r":1: frame 9223372036854775808 and class 1 "
                                             r"must fit in 64 bits"):
            pio.parse_detections(str(path))

    def test_failed_write_leaves_the_old_file(self, tmp_path):
        path = tmp_path / "dets.txt"
        pio.write_detections(sample_detections(), str(path))
        before = path.read_text()
        ring = Polygon(np.array([[0, 0], [4, 0], [4, 4], [0, 4], [2, 5]], float))
        odd = Detection(frame=9, class_id=0, score=0.5, center=Point2(2.0, 2.6),
                        polygon=ring, depth=1.0, offset=(0.0, 0.0))
        frames = [*sample_detections(), [odd, sample_detections()[1][0]]]
        with pytest.raises(InvalidInputError, match="share a vertex count"):
            pio.write_detections(frames, str(path))
        assert path.read_text() == before
        assert os.listdir(tmp_path) == ["dets.txt"]


class TestResultFiles:
    def test_write_results_reparses(self, tmp_path):
        dets = sample_detections()
        tracks = run_sequence(dets, TrackerConfig())
        path = str(tmp_path / "results.txt")
        pio.write_results(tracks, 256, 160, path)
        frames, classes, dims = pio.parse_mask_records(path)
        assert dims == (160, 256)
        assert frames and classes
        emitted = emitted_instances(tracks)
        assert sorted(frames) == sorted(emitted)
        for f, frame in frames.items():
            # the file holds exactly the depth-ordered runs it was written from
            want = flatten_frame(
                [(tid, poly, depth) for tid, _, poly, depth in emitted[f]], 256, 160)
            assert_same_frame(frame, want)

    def test_track_id_zero_round_trips(self, tmp_path):
        square = Polygon(np.array([[2, 2], [6, 2], [6, 6], [2, 6]], float))
        other = Polygon(np.array([[4, 4], [12, 4], [12, 12], [4, 12]], float))
        path = str(tmp_path / "r.txt")
        pio.write_instance_records({0: [(0, 1, square, 1.0), (5, 2, other, 2.0)]},
                                   16, 16, path)
        frames, classes, _ = pio.parse_mask_records(path)
        label, ids = label_image(frames[0]), frames[0].ids
        assert ids == [0, 5] and classes == {0: 1, 5: 2}
        assert np.count_nonzero(label == 1) == 16
        assert np.count_nonzero(label == 2) == 64 - 4  # the nearer square hides 4

    def test_overlapping_records_name_the_line(self, tmp_path):
        a = np.zeros((8, 8), bool)
        a[1:5, 1:5] = True
        b = np.zeros((8, 8), bool)
        b[4:7, 4:7] = True  # shares pixel (4, 4) with a
        path = tmp_path / "r.txt"
        path.write_text(f"# header\n3 1 0 8 8 {encode_rle(a)}\n"
                        f"3 2 0 8 8 {encode_rle(b)}\n")
        with pytest.raises(ParseError, match=r"r\.txt:3: .*overlaps"):
            pio.parse_mask_records(str(path))

    def test_overlap_names_the_first_line_in_file_order(self, tmp_path):
        big = np.zeros((8, 8), bool)
        big[:, 1:7] = True
        late = np.zeros((8, 8), bool)
        late[5:7, 5] = True   # column 5: later in column-major order
        early = np.zeros((8, 8), bool)
        early[1:3, 2] = True  # column 2: earlier, but on a later line
        path = tmp_path / "r.txt"
        path.write_text(f"0 1 0 8 8 {encode_rle(big)}\n0 2 0 8 8 {encode_rle(late)}\n"
                        f"0 3 0 8 8 {encode_rle(early)}\n")
        with pytest.raises(ParseError, match=r"r\.txt:2: .*overlaps"):
            pio.parse_mask_records(str(path))

    def test_earliest_overlap_across_frames(self, tmp_path):
        a = np.zeros((8, 8), bool)
        a[2:4, 2:4] = True
        path = tmp_path / "r.txt"
        line = f"0 8 8 {encode_rle(a)}"
        path.write_text(f"5 1 {line}\n3 1 {line}\n3 2 {line}\n5 2 {line}\n")
        with pytest.raises(ParseError, match=r"r\.txt:3: .*overlaps"):
            pio.parse_mask_records(str(path))

    def test_overlap_reported_before_a_later_malformed_line(self, tmp_path):
        a = np.zeros((8, 8), bool)
        a[2:4, 2:4] = True
        path = tmp_path / "r.txt"
        path.write_text(f"0 1 0 8 8 {encode_rle(a)}\n0 2 0 8 8 {encode_rle(a)}\n"
                        f"1 1 0 8 8 bad!\n")
        with pytest.raises(ParseError, match=r"r\.txt:2: .*overlaps"):
            pio.parse_mask_records(str(path))
        path.write_text(f"0 1 0 8 8 {encode_rle(a)}\n1 1 0 8 8 bad!\n"
                        f"0 2 0 8 8 {encode_rle(a)}\n")
        with pytest.raises(ParseError, match=r"r\.txt:2: invalid run-length"):
            pio.parse_mask_records(str(path))

    @pytest.mark.parametrize("rle, message", [
        ("1é", "invalid run-length character 'é'"),
        ("1\x00", "invalid run-length character '\\\\x00'"),
        ("P", "truncated run-length string"),
        ("121M", "negative run length after delta decoding"),
        ("6", "run lengths cover 6 pixels, expected 64"),
        ("o" * 13 + "0", "run-length value out of range"),
    ])
    def test_bad_string_names_its_line(self, tmp_path, rle, message):
        a = np.zeros((8, 8), bool)
        a[2:4, 2:4] = True
        path = tmp_path / "r.txt"
        path.write_text(f"0 1 0 8 8 {encode_rle(a)}\n0 2 0 8 8 {rle}\n"
                        f"1 1 0 8 8 {encode_rle(a)}\n", encoding="utf-8")
        with pytest.raises(ParseError, match=rf"^.*r\.txt:2: {message}$"):
            pio.parse_mask_records(str(path))

    def test_first_error_in_file_order_wins(self, tmp_path):
        a = np.zeros((8, 8), bool)
        a[2:4, 2:4] = True
        good = f"0 8 8 {encode_rle(a)}"
        path = tmp_path / "r.txt"
        # a bad string on line 2 comes before a field-count error on line 4
        path.write_text(f"0 1 {good}\n0 2 0 8 8 P\n1 1 {good}\n1 2 0 8 8\n")
        with pytest.raises(ParseError, match=r"r\.txt:2: truncated"):
            pio.parse_mask_records(str(path))
        # and a field-count error on line 2 before a bad string on line 4
        path.write_text(f"0 1 {good}\n0 2 0 8 8\n1 1 {good}\n1 2 0 8 8 P\n")
        with pytest.raises(ParseError, match=r"r\.txt:2: expected 6 fields"):
            pio.parse_mask_records(str(path))
        # an overlap on line 2 comes before a bad string on line 3
        path.write_text(f"0 1 {good}\n0 2 {good}\n1 1 0 8 8 P\n")
        with pytest.raises(ParseError, match=r"r\.txt:2: .*overlaps"):
            pio.parse_mask_records(str(path))
        # a bad string on line 2 comes before an overlap on line 3
        path.write_text(f"0 1 {good}\n1 1 0 8 8 P\n0 2 {good}\n")
        with pytest.raises(ParseError, match=r"r\.txt:2: truncated"):
            pio.parse_mask_records(str(path))

    def test_records_in_blocks_read_the_same(self, tmp_path, monkeypatch):
        tracks = run_sequence(sample_detections(), TrackerConfig())
        path = tmp_path / "r.txt"
        pio.write_results(tracks, 256, 160, str(path))
        text = path.read_text()
        frames, classes, dims = pio.parse_mask_records(str(path))
        monkeypatch.setattr(pio, "ENCODE_BLOCK_RUNS", 1)  # a block per frame
        monkeypatch.setattr(rle, "DECODE_BLOCK_CHARS", 3)  # a block per string
        pio.write_results(tracks, 256, 160, str(path))
        assert path.read_text() == text
        again, _, _ = pio.parse_mask_records(str(path))
        assert sorted(again) == sorted(frames)
        for f in frames:
            assert_same_frame(again[f], frames[f])

    def test_records_in_any_id_order(self, tmp_path):
        a = np.zeros((8, 8), bool)
        a[1:3, 1:3] = True
        b = np.zeros((8, 8), bool)
        b[5:8, 0:2] = True
        path = tmp_path / "r.txt"
        path.write_text(f"0 9 0 8 8 {encode_rle(b)}\n0 4 0 8 8 {encode_rle(a)}\n")
        frames, _, _ = pio.parse_mask_records(str(path))
        label, ids = label_image(frames[0]), frames[0].ids
        assert ids == [4, 9]
        assert ((label == 1) == a).all() and ((label == 2) == b).all()

    def test_duplicate_id_in_frame_rejected(self, tmp_path):
        path = tmp_path / "r.txt"
        path.write_text("0 1 0 4 4 ?1\n0 1 0 4 4 ?1\n")
        with pytest.raises(ParseError, match="duplicate"):
            pio.parse_mask_records(str(path))

    def test_dimensions_beyond_pixel_indices_rejected(self, tmp_path):
        path = tmp_path / "r.txt"
        path.write_text("0 1 0 4000000000 4000000000 0\n")
        with pytest.raises(ParseError, match=r":1: dimensions .* too large"):
            pio.parse_mask_records(str(path))

    def test_dimension_change_rejected(self, tmp_path):
        path = tmp_path / "r.txt"
        path.write_text("0 1 0 4 4 ?1\n1 1 0 5 4 d0\n")
        with pytest.raises(ParseError, match="dimensions"):
            pio.parse_mask_records(str(path))


class TestPgm:
    def test_ascii_round_trip(self, tmp_path):
        arr = (np.arange(24).reshape(4, 6) * 10 % 256).astype(np.uint8)
        path = str(tmp_path / "img.pgm")
        pio.write_pgm(arr, path)
        back = pio.read_pgm(path)
        assert (back == arr).all()

    def test_bool_mask_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        mask = rng.random((9, 7)) < 0.5
        path = str(tmp_path / "mask.pgm")
        pio.write_pgm(mask, path)
        assert ((pio.read_pgm(path) > 0) == mask).all()

    def test_binary_p5(self, tmp_path):
        data = b"P5\n# comment\n3 2\n255\n" + bytes([0, 255, 7, 8, 0, 1])
        path = tmp_path / "b.pgm"
        path.write_bytes(data)
        arr = pio.read_pgm(str(path))
        assert arr.shape == (2, 3)
        assert arr[0, 1] == 255 and arr[1, 2] == 1

    def test_rejects_other_formats(self, tmp_path):
        path = tmp_path / "x.pgm"
        path.write_bytes(b"P6\n2 2\n255\n" + bytes(12))
        with pytest.raises(ParseError):
            pio.read_pgm(str(path))


class TestConfig:
    def test_defaults_without_file(self):
        cfg = pio.load_config(None)
        assert cfg.tracker.max_age == 32
        assert cfg.tracker.use_ukf is True
        assert cfg.noise.drop_prob == 0.4
        assert cfg.scenario is None

    def test_full_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "[scenario]\nkind = occlusion\nn_objects = 1\nn_frames = 40\n"
            "width = 288\nheight = 160\nseed = 9\n"
            "[tracker]\nmax_age = 16\nmatch_kappa = 1.5\nuse_ukf = false\n"
            "[ukf]\nq_accel = 0.01\n"
            "[noise]\ndrop_prob = 0.0\nfp_prob = 0.0\n")
        cfg = pio.load_config(str(path))
        assert cfg.scenario.kind == "occlusion" and cfg.scenario.seed == 9
        assert cfg.tracker.max_age == 16
        assert cfg.tracker.match_kappa == 1.5
        assert cfg.tracker.use_ukf is False
        assert cfg.tracker.ukf.q_accel == 0.01
        assert cfg.noise.drop_prob == 0.0
        assert (cfg.width, cfg.height) == (288, 160)

    def test_image_section_overrides_dims(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("[image]\nwidth = 640\nheight = 480\n")
        cfg = pio.load_config(str(path))
        assert (cfg.width, cfg.height) == (640, 480)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        for text in ("[tracker]\nmaximum_age = 10\n", "[ukf]\nalpha = 0.5\n"):
            path.write_text(text)
            with pytest.raises(InvalidInputError, match=text.split()[1]):
                pio.load_config(str(path))

    @pytest.mark.parametrize("section, key, value", [
        ("image", "width", "abc"),
        ("scenario", "width", "0"),
        ("tracker", "match_kappa", "nan"),
        ("ukf", "q_accel", "nan"),
        ("ukf", "p_vel0", "-5"),
        ("noise", "center_jitter_sigma", "-1"),
        ("noise", "center_jitter_sigma", "nan"),
    ])
    def test_bad_value_names_section_and_key(self, tmp_path, section, key, value):
        path = tmp_path / "run.cfg"
        path.write_text(f"[{section}]\n{key} = {value}\n")
        with pytest.raises(InvalidInputError, match=rf"\[{section}\].*{key}"):
            pio.load_config(str(path))

    def test_missing_file_is_os_error(self, tmp_path):
        with pytest.raises(OSError):
            pio.load_config(str(tmp_path / "nope.cfg"))


class TestReports:
    def test_write_and_parse_kv(self, tmp_path):
        report = MetricsReport.from_counts(tp=8, fp=2, fn=2, idsw=1, soft_tp=6.5)
        path = str(tmp_path / "report.txt")
        kv = str(tmp_path / "report.kv")
        pio.write_report(report, path, kv)
        parsed = pio.parse_report_kv(kv)
        assert parsed["tp"] == 8 and parsed["idsw"] == 1
        assert parsed["motsa"] == pytest.approx(report.motsa, abs=1e-6)
        text = open(path).read()
        assert "MOTSA" in text and "%" in text

    def test_atomic_write_replaces(self, tmp_path):
        path = str(tmp_path / "f.txt")
        pio.atomic_write_text(path, "one")
        pio.atomic_write_text(path, "two")
        assert open(path).read() == "two"
        assert [p for p in os.listdir(tmp_path)] == ["f.txt"]

    def test_atomic_writers_side_by_side(self, tmp_path):
        a, b = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
        with pio.atomic_writers(a, b) as (fa, fb):
            fa.write("one")
            fb.write("two")
            assert len(os.listdir(tmp_path)) == 2 and not os.path.exists(a)
        assert (open(a).read(), open(b).read()) == ("one", "two")
        with pytest.raises(RuntimeError):
            with pio.atomic_writers(a, b) as (fa, fb):
                fa.write("three")
                raise RuntimeError
        assert (open(a).read(), open(b).read()) == ("one", "two")
        assert sorted(os.listdir(tmp_path)) == ["a.txt", "b.txt"]
