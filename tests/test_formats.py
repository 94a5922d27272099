import pytest

from heilbronn.cli import run
from heilbronn.coding import BitString
from heilbronn.formats import (
    FormatError,
    load_grid,
    load_points,
    load_pointset,
    load_witness,
    save_grid,
    save_pointset,
    save_witness,
)
from heilbronn.geometry import GridArrangement
from heilbronn.montecarlo import sample_unit_square
from heilbronn.witnesses import decode_witness, encode_collinear_witness

# frozen bytes for the arrangement below (bit-exact golden file)
GOLDEN_GRID_POINTS = [(2, 3), (5, 6), (8, 9), (1, 12), (14, 2)]
GOLDEN_WITNESS_TEXT = "HW1 collinear K=16 n=5\n35:5bac8226c\n"


class TestPointsetFormat:
    def test_thousand_point_bit_exact_round_trip(self, tmp_path):
        ps = sample_unit_square(1000, seed=1, stream_id=0)
        path = tmp_path / "points.txt"
        save_pointset(ps, path)
        assert load_pointset(path) == ps

    def test_comments_and_blanks(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("# header\n\n0.25 0.5  # inline\n1 1\n")
        ps = load_pointset(path)
        assert [(p.x, p.y) for p in ps.points] == [(0.25, 0.5), (1.0, 1.0)]

    def test_malformed_line_names_lineno(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("0.1 0.2\n0.3\n")
        with pytest.raises(FormatError, match=":2:"):
            load_pointset(path)

    def test_out_of_range_coordinate(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("0.1 1.5\n")
        with pytest.raises(FormatError, match="unit square"):
            load_pointset(path)


class TestGridFormat:
    def test_round_trip(self, tmp_path):
        a = GridArrangement.from_points(1024, [(5, 9), (100, 3), (7, 7), (1000, 1000),
                                               (0, 0), (512, 256), (3, 900), (44, 44)])
        path = tmp_path / "g.txt"
        save_grid(a, path)
        assert load_grid(path) == a

    def test_header_example(self, tmp_path):
        path = tmp_path / "g.txt"
        rows = [(17 * i + 3, 40 * i + 1) for i in range(8)]
        path.write_text("grid 1024 8\n" + "\n".join(f"{x} {y}" for x, y in rows) + "\n")
        a = load_grid(path)
        assert (a.K, a.n) == (1024, 8)

    def test_duplicate_cell_is_data_error(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("grid 4 2\n1 1\n1 1\n")
        with pytest.raises(FormatError, match="duplicate"):
            load_grid(path)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("1 1\n2 2\n")
        with pytest.raises(FormatError, match="header"):
            load_grid(path)

    def test_count_mismatch(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("grid 4 3\n1 1\n2 2\n")
        with pytest.raises(FormatError, match="promises"):
            load_grid(path)

    def test_out_of_range_cell(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("grid 4 1\n4 0\n")
        with pytest.raises(FormatError, match="outside"):
            load_grid(path)


class TestEitherFormat:
    def test_grid_header_after_comments_makes_a_grid(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# saved grid\n\ngrid 4 2  # K n\n1 1\n3 0\n")
        assert load_points(path) == GridArrangement.from_points(4, [(1, 1), (3, 0)])

    def test_other_files_are_point_sets(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("# grid 4 2\n0.25 0.5\n1 1\n")
        assert [(p.x, p.y) for p in load_points(path).points] == [(0.25, 0.5), (1.0, 1.0)]

    def test_errors_match_the_single_format_loaders(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("grid 4 3\n1 1\n2 2\n")
        with pytest.raises(FormatError, match="promises"):
            load_points(path)
        path.write_text("0.1 0.2\n0.3\n")
        with pytest.raises(FormatError, match=":2:"):
            load_points(path)


class TestWitnessFormat:
    def test_golden_file_bit_exact(self, tmp_path):
        a = GridArrangement.from_points(16, GOLDEN_GRID_POINTS)
        rep = encode_collinear_witness(a)
        path = tmp_path / "w.hw1"
        save_witness(rep, 16, 5, path)
        assert path.read_text() == GOLDEN_WITNESS_TEXT
        kind, K, n, payload = load_witness(path)
        assert (kind, K, n) == ("collinear", 16, 5)
        assert decode_witness(kind, payload, K, n) == a

    def test_payload_round_trip(self, tmp_path):
        path = tmp_path / "w.hw1"
        path.write_text("HW1 rowline K=8 n=2\n5:a8\n")
        kind, K, n, payload = load_witness(path)
        assert (kind, K, n, payload) == ("rowline", 8, 2, BitString("10101"))

    def test_bad_header(self, tmp_path):
        path = tmp_path / "w.hw1"
        path.write_text("HW2 collinear K=4 n=3\n0:\n")
        with pytest.raises(FormatError, match="HW1"):
            load_witness(path)

    def test_unknown_kind(self, tmp_path):
        path = tmp_path / "w.hw1"
        path.write_text("HW1 sorcery K=4 n=3\n0:\n")
        with pytest.raises(FormatError, match="kind"):
            load_witness(path)

    @pytest.mark.parametrize("payload", ["+5:a8", "0_5:a8", "\u0665:a8", "5:\u0665\u0660"])
    def test_payload_text_is_plain_ascii(self, tmp_path, capsys, payload):
        path = tmp_path / "w.hw1"
        path.write_text(f"HW1 rowline K=8 n=2\n{payload}\n", encoding="utf-8")
        with pytest.raises(FormatError, match=":2:"):
            load_witness(path)
        argv = ["witness", "rowline", "decode", "--file", str(path), "--out", str(tmp_path / "g.txt")]
        assert run(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_bad_payload(self, tmp_path):
        path = tmp_path / "w.hw1"
        path.write_text("HW1 collinear K=4 n=3\n4:zz\n")
        with pytest.raises(FormatError, match=":2:"):
            load_witness(path)


WITNESS_DECODE = ["witness", "rowline", "decode", "--file", "{path}", "--out", "{out}"]


class TestFormatErrorsThroughCli:
    @pytest.mark.parametrize("argv, text, message", [
        (["min-triangle", "--file", "{path}"], "0.1 0.2\n0.3 abc\n",
         "{path}:2: non-numeric coordinate in '0.3 abc'"),
        (["rank", "--file", "{path}"], "# no data\n\n", "{path}: missing 'grid <K> <n>' header"),
        (["rank", "--file", "{path}"], "grid 4 x\n", "{path}:1: non-integer grid header"),
        (["rank", "--file", "{path}"], "grid 4 1\n1 2 3\n", "{path}:2: expected 'x y', got '1 2 3'"),
        (["rank", "--file", "{path}"], "grid 4 1\n1 y\n", "{path}:2: non-integer coordinate in '1 y'"),
        (["rank", "--file", "{path}"], "grid 4 2\n1 1\n1 1\n", "{path}: duplicate pebble at (1, 1)"),
        (["rank", "--file", "{path}"], "grid 4 1\n4 0\n", "{path}: pebble GridPoint(4, 0) outside [0, 3]^2"),
        (["rank", "--file", "{path}"], "grid 4 3\n1 1\n2 2\n", "{path}: header promises 3 pebbles, found 2"),
        (["min-triangle", "--file", "{path}"], "0.1 0.2\n0.1 1.5\n",
         "{path}:2: coordinate outside the unit square"),
        (WITNESS_DECODE, "HW1 rowline K=4 n=3\n", "{path}: witness file needs a header and a payload line"),
        (WITNESS_DECODE, "HW1 rowline K=4 m=3\n0:\n", "{path}:1: malformed K=/n= fields"),
        (WITNESS_DECODE, "HW1 rowline K=x n=3\n0:\n", "{path}:1: malformed K=/n= fields"),
    ], ids=["point", "no-data", "header", "row-fields", "coordinate", "duplicate", "outside-grid",
            "short-of-header", "outside-square", "one-line", "n-field", "K-value"])
    def test_exit_2_naming_the_file(self, tmp_path, capsys, argv, text, message):
        path, out = tmp_path / "in.txt", tmp_path / "out.txt"
        path.write_text(text)
        assert run([a.format(path=path, out=out) for a in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message.format(path=path)}\n"
        assert not out.exists()
