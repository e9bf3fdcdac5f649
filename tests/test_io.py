import json

import pytest

from flatland import (
    TriFormatError,
    build_triangulation,
    format_tri,
    from_json,
    parse_tri,
    read_tri,
    to_json_dict,
    write_tri,
)
from tests.conftest import TETRAHEDRON, fam


def test_round_trip_text():
    t = fam("T(9,1,2)")
    n, faces = parse_tri(format_tri(t))
    assert build_triangulation(n, faces) == t


def test_round_trip_json():
    t = fam("B(3,4)")
    n, faces = from_json(json.dumps(to_json_dict(t)))
    assert build_triangulation(n, faces) == t


def test_comments_and_blank_lines_ignored():
    text = "# a comment\n\n4 4\n0 1 2\n# interior comment\n0 1 3\n0 2 3\n1 2 3\n"
    n, faces = parse_tri(text)
    assert (n, len(faces)) == (4, 4)


def test_file_round_trip(tmp_path):
    t = build_triangulation(*TETRAHEDRON)
    path = tmp_path / "tetra.tri"
    write_tri(t, path, comments=["tetrahedron"])
    assert read_tri(path) == (4, list(t.faces))
    assert path.read_text().startswith("# tetrahedron\n4 4\n")


def test_json_file_dispatch(tmp_path):
    t = fam("Q(5,2)")
    path = tmp_path / "q52.json"
    path.write_text(json.dumps(to_json_dict(t)))
    n, faces = read_tri(path)
    assert build_triangulation(n, faces) == t


class TestErrors:
    def test_bad_header_reports_line(self):
        with pytest.raises(TriFormatError, match="line 1"):
            parse_tri("x y\n")

    def test_bad_face_reports_line(self):
        with pytest.raises(TriFormatError, match="line 3"):
            parse_tri("# hi\n4 4\n0 1\n")

    def test_non_integer_face_vertex(self):
        with pytest.raises(TriFormatError, match="line 2: face vertices must be integers"):
            parse_tri("4 1\n0 1 x\n")

    @pytest.mark.parametrize("text,line", [
        ("4 4\n0 1 +2\n0 1 3\n0 2 3\n1 2 3\n", "line 2: face vertices"),
        ("4 0_4\n0 1 2\n0 1 3\n0 2 3\n1 2 3\n", "line 1: header values"),
        ("4 4\n0 1 2\n0 1 \u0663\n0 2 3\n1 2 3\n", "line 3: face vertices"),
        ("4 4\n0 1 2\n0 1 3\n0 2 3\n1 2 \uff13\n", "line 5: face vertices"),
    ])
    def test_only_the_written_integer_spelling(self, text, line):
        # The writer prints ASCII -?[0-9]+; int() would also read these.
        with pytest.raises(TriFormatError, match=f"{line} must be integers"):
            parse_tri(text)

    def test_negative_vertex_reaches_the_range_check(self):
        n, faces = parse_tri("4 1\n-1 0 1\n")
        assert faces == [(-1, 0, 1)]
        with pytest.raises(ValueError, match="out of range"):
            build_triangulation(n, faces)

    @pytest.mark.parametrize("text,line", [
        (f"{'9' * 4301} 4\n", 1),
        (f"4 1\n0 1 -{'9' * 4301}\n", 2),
    ])
    def test_overlong_tri_number(self, text, line):
        with pytest.raises(TriFormatError, match=f"line {line}: a number has more than 4300 digits"):
            parse_tri(text)

    def test_longest_readable_number(self):
        n, _ = parse_tri(f"{'9' * 4300} 0\n")
        assert n == 10**4300 - 1

    @pytest.mark.parametrize("text,line", [
        (f'{{"n": {"9" * 4301}, "faces": []}}', 1),
        (f'{{"n": 4,\n"faces": [[0, 1,\n-{"9" * 4301}]]}}', 3),
    ])
    def test_overlong_json_number(self, text, line):
        with pytest.raises(TriFormatError, match=f"line {line}: a number has more than 4300 digits"):
            from_json(text)

    def test_non_increasing_face(self):
        with pytest.raises(TriFormatError, match="strictly increasing"):
            parse_tri("4 1\n2 1 0\n")

    def test_face_count_mismatch(self):
        # The count is the header's promise, so the fault is at the header,
        # not past the last line.
        for text, line in (("4 4\n0 1 2\n0 1 3\n0 2 3\n", 1), ("# c\n4 4\n0 1 2\n0 1 3\n0 2 3", 2)):
            message = rf"^line {line}: header promised 4 faces, found 3$"
            with pytest.raises(TriFormatError, match=message):
                parse_tri(text)

    def test_missing_header(self):
        for text in ("# only comments\n", "# only comments", "", "\n\n"):
            with pytest.raises(TriFormatError, match=r"^missing header `n f`$"):
                parse_tri(text)

    def test_bad_json(self):
        with pytest.raises(TriFormatError):
            from_json("{not json")
        with pytest.raises(TriFormatError):
            from_json('{"n": 4}')
        with pytest.raises(TriFormatError, match="three vertices"):
            from_json('{"n": 4, "faces": [[0, 1]]}')

    def test_json_syntax_error_names_its_line(self):
        with pytest.raises(TriFormatError, match=r"^line 3: bad JSON: Expecting value \(column 1\)$"):
            from_json('{"n": 4,\n"faces": [[0, 1, 2],\n,[0, 1, 3]]}')

    @pytest.mark.parametrize("text,message", [
        ('{"n": 4,\n"faces": [[0, 1]]}', "face (0, 1) does not have three vertices"),
        ('{"n": 4,\n"faces": [[0, 1,\n"x"]]}', "bad JSON triangulation: 'x' is not an integer"),
    ])
    def test_fault_in_the_decoded_value_names_no_line(self, text, message):
        # The decoded value keeps no source positions, so no line is named.
        with pytest.raises(TriFormatError) as caught:
            from_json(text)
        assert str(caught.value) == message

    def test_infinite_json_number(self):
        with pytest.raises(TriFormatError, match="bad JSON"):
            from_json('{"n": 1e400, "faces": []}')
        with pytest.raises(TriFormatError, match="bad JSON"):
            from_json('{"n": 4, "faces": [[0, 1, 1e400]]}')

    @pytest.mark.parametrize("text,value", [
        ('{"n": 7.9, "faces": []}', "7.9"),
        ('{"n": "7", "faces": []}', "'7'"),
        ('{"n": true, "faces": []}', "True"),
        ('{"n": 7, "faces": [[0.5, 1, 3]]}', "0.5"),
        ('{"n": 7, "faces": [[0, "1", 3]]}', "'1'"),
        ('{"n": 7, "faces": [[0, 1, false]]}', "False"),
        ('{"n": 7, "faces": [[0, 1, 1e400]]}', "inf"),
    ])
    def test_json_non_integer_rejected(self, text, value):
        # The schema types n and the face entries as integers: nothing is
        # truncated or coerced.
        with pytest.raises(TriFormatError, match=f"bad JSON triangulation: {value} is not an integer"):
            from_json(text)

    def test_json_integral_float_accepted(self):
        # 7.0 is an integer to the schema (JSON Schema 2020-12).
        assert from_json('{"n": 7.0, "faces": [[0, 1.0, 2]]}') == (7, [(0, 1, 2)])

    def test_deeply_nested_json(self):
        with pytest.raises(TriFormatError, match="bad JSON"):
            from_json("[" * 100_000)
