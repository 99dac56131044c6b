"""CLI golden tests: file round-trips, exit-code contract, stable JSON."""

import json

import pytest

from quadtour.cli import main
from quadtour.errors import MatrixParseError
from quadtour.generators import random_tournament, rotational, make_symbol
from quadtour.matrixio import (
    parse_pattern,
    parse_tournament,
    render_tournament,
    to_dot,
    to_json_adjacency,
    tournament_from_json,
)

from helpers import three_cycle


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def rot11_file(tmp_path):
    path = tmp_path / "rot11.txt"
    assert main(["gen", "rotational", "--n", "11", "--symbol", "1,3,4,5,9",
                 "--out", str(path)]) == 0
    return path


@pytest.fixture
def u5_file(tmp_path):
    path = tmp_path / "u5.txt"
    assert main(["gen", "un", "--n", "5", "--out", str(path)]) == 0
    return path


class TestGen:
    def test_rotational_body(self, rot11_file):
        lines = rot11_file.read_text().splitlines()
        assert lines[0] == "11"
        assert len(lines) == 12
        assert all(line.count("1") == 5 for line in lines[1:])

    def test_un_three_cycle(self, capsys):
        code, out, _ = run(capsys, ["gen", "un", "--n", "3"])
        assert code == 0
        assert out == "3\n010\n001\n100\n"

    def test_random_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        for path in (a, b):
            assert main(["gen", "random", "--n", "8", "--seed", "42",
                         "--out", str(path)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_bad_params_exit_2(self, capsys):
        code, _, err = run(capsys, ["gen", "rotational", "--n", "7", "--symbol", "1,2,6"])
        assert code == 2 and "error" in err


class TestMatrixRoundTrip:
    def test_library_round_trip(self):
        for seed in range(500):
            t = random_tournament(1 + seed % 12, seed)
            assert parse_tournament(render_tournament(t)) == t

    def test_cli_round_trip(self, tmp_path, capsys):
        src = tmp_path / "t.txt"
        t = random_tournament(9, 5)
        src.write_text(render_tournament(t))
        code, out, _ = run(capsys, ["export", str(src), "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert tournament_from_json(payload["result"]) == t


class TestParseInput:
    def test_utf8_bom_before_header_accepted(self):
        assert parse_tournament("\ufeff3\n010\n001\n100\n") == three_cycle()

    def test_cli_reads_file_with_bom(self, tmp_path, capsys):
        path = tmp_path / "bom.txt"
        path.write_bytes(b"\xef\xbb\xbf3\n010\n001\n100\n")
        code, out, _ = run(capsys, ["check", str(path)])
        assert (code, out) == (0, "quadrangular: True\n")

    @pytest.mark.parametrize("row", ["0_1", "0 1", " 01", "01 ", "+01", "0b1", "-01", "\ufeff01"])
    def test_body_row_outside_01_rejected(self, row):
        # int(line, 2) alone would accept several of these.
        with pytest.raises(MatrixParseError, match="body line 0"):
            parse_pattern(f"3\n{row}\n001\n100\n")

    def test_json_row_outside_01_rejected(self):
        with pytest.raises(MatrixParseError):
            tournament_from_json({"n": 4, "rows": ["0b11", "0010", "0001", "0000"]})


class TestExitCodes:
    def test_check_true_is_zero(self, rot11_file, capsys):
        code, _, _ = run(capsys, ["check", str(rot11_file), "--what", "quad"])
        assert code == 0

    def test_check_false_is_one(self, u5_file, capsys):
        code, _, _ = run(capsys, ["check", str(u5_file), "--what", "quad"])
        assert code == 1

    def test_parse_error_is_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("3\n010\n10\n000\n")
        code, _, err = run(capsys, ["check", str(bad)])
        assert code == 2 and "error" in err

    def test_not_a_tournament_is_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("2\n01\n10\n")  # double arc
        code, _, _ = run(capsys, ["check", str(bad)])
        assert code == 2

    def test_missing_file_is_two(self, capsys):
        code, _, _ = run(capsys, ["check", "/nonexistent/file.txt"])
        assert code == 2

    def test_search_first_not_found_is_one(self, capsys):
        code, _, _ = run(capsys, ["search", "--n", "9", "--first"])
        assert code == 1

    def test_search_first_found(self, capsys):
        code, out, _ = run(capsys, ["search", "--n", "11", "--first", "--json"])
        assert code == 0
        assert json.loads(out)["result"]["first"] == [1, 3, 4, 5, 9]

    def test_verify_oversized_is_two(self, capsys):
        code, _, _ = run(capsys, ["verify", "exhaustive", "--n-max", "9"])
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["gen", "random", "--n", "5", "--seed", "-1"],
        ["gen", "rotational", "--n", "7", "--symbol", "1,a"],
    ])
    def test_bad_generator_input_is_two(self, capsys, argv):
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("suite", ["exhaustive", "all"])
    @pytest.mark.parametrize("n_max", ["0", "-3"])
    def test_empty_sweep_is_two(self, capsys, suite, n_max):
        code, out, err = run(capsys, ["verify", suite, "--n-max", n_max])
        assert (code, out) == (2, "")
        assert err.startswith("error: ")

    @pytest.mark.parametrize("argv", [
        ["verify", "exhaustive", "--n-max", "3", "--threads", "2"],
        ["export", "t.txt", "--json"],
    ])
    def test_removed_options_are_usage_errors(self, argv):
        assert main(argv) == 2

    def test_usage_error_is_two(self, capsys):
        assert main(["check"]) == 2


class TestJsonReports:
    def test_byte_stable(self, u5_file, capsys):
        _, first, _ = run(capsys, ["check", str(u5_file), "--json"])
        _, second, _ = run(capsys, ["check", str(u5_file), "--json"])
        assert first == second

    def test_check_u5_golden(self, u5_file, capsys):
        _, out, _ = run(capsys, ["check", str(u5_file), "--json"])
        payload = json.loads(out)
        assert payload["schema_version"] == "1"
        assert payload["command"] == "check"
        assert payload["result"]["verdict"] is False
        assert payload["result"]["out"]["witness"] == {"u": 0, "v": 1, "common": [2]}

    def test_dom_number_qr7(self, tmp_path, capsys):
        path = tmp_path / "qr7.txt"
        assert main(["gen", "qr", "--p", "7", "--out", str(path)]) == 0
        _, out, _ = run(capsys, ["dom", str(path), "--what", "number", "--json"])
        payload = json.loads(out)
        assert payload["result"]["gamma"] == 3
        assert payload["result"]["pairs"] == []

    def test_dom_graph_u5(self, u5_file, capsys):
        _, out, _ = run(capsys, ["dom", str(u5_file), "--what", "graph", "--json"])
        edges = json.loads(out)["result"]["edges"]
        assert edges == [[0, 2], [0, 3], [1, 3], [1, 4], [2, 4]]

    def test_search_elapsed_outside_result(self, capsys):
        _, out, _ = run(capsys, ["search", "--n", "11", "--json"])
        payload = json.loads(out)
        assert "elapsed_ms" in payload and "elapsed_ms" not in payload["result"]
        assert payload["result"]["hits"][0] == [1, 3, 4, 5, 9]

    def test_search_family(self, capsys):
        code, out, _ = run(capsys, ["search", "--n", "15", "--family", "--json"])
        assert code == 0
        result = json.loads(out)["result"]
        assert result["symbol"] == [1, 3, 5, 6, 7, 11, 13]
        assert result["verified"] is True


class TestExport:
    def test_dot_golden(self, tmp_path, capsys):
        path = tmp_path / "c3.txt"
        path.write_text(render_tournament(three_cycle()))
        code, out, _ = run(capsys, ["export", str(path), "--format", "dot"])
        assert code == 0
        assert out == (
            "digraph tournament {\n"
            "  0;\n  1;\n  2;\n"
            "  0 -> 1;\n  1 -> 2;\n  2 -> 0;\n"
            "}\n"
        )

    def test_dot_library_matches(self):
        t = rotational(make_symbol(5, {1, 2}))
        dot = to_dot(t)
        assert dot.count("->") == 10

    def test_json_adjacency_shape(self):
        t = three_cycle()
        payload = to_json_adjacency(t)
        assert payload == {"n": 3, "rows": ["010", "001", "100"]}


class TestVerifyCommand:
    def test_exhaustive_small_all_pass(self, capsys):
        code, out, _ = run(capsys, ["verify", "exhaustive", "--n-max", "4", "--json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["result"]["failure"] is None
        assert payload["result"]["instances"] == 1 + 2 + 8 + 64

    def test_theorems_suite(self, capsys):
        code, out, _ = run(capsys, ["verify", "theorems", "--json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["result"]["passes"]["transmitter-receiver"] > 0
