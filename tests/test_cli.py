"""CLI golden tests: file round-trips, exit-code contract, stable JSON."""

import hashlib
import json
import os
import random
import re
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import quadtour
from quadtour import generators, matrixio, theorems
from quadtour.cli import main
from quadtour.core import Tournament, iter_bits
from quadtour.errors import MatrixParseError
from quadtour.generators import (
    make_symbol,
    quadratic_residue,
    random_tournament,
    rotational,
    u_n,
)
from quadtour.matrixio import (
    parse_pattern,
    parse_tournament,
    render_tournament,
    to_dot,
    to_json_adjacency,
)
from quadtour.symbols import family_symbol

from helpers import brute_competition_edges, three_cycle


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
def qr7_file(tmp_path):
    path = tmp_path / "qr7.txt"
    assert main(["gen", "qr", "--p", "7", "--out", str(path)]) == 0
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

    def test_symbol_member_with_leading_zeros(self, capsys):
        # 5,000 characters: more than int() converts, but the value is 1.
        want = run(capsys, ["gen", "rotational", "--n", "11", "--symbol", "1,3,4,5,9"])
        got = run(capsys, ["gen", "rotational", "--n", "11", "--symbol",
                           "0" * 4999 + "1,3,4,5,9"])
        assert got == want and want[0] == 0

    @pytest.mark.parametrize("first", [
        pytest.param(" +" + "0" * 4999 + "1 ", id="signed-spaced"),
        pytest.param("0_" * 4999 + "1", id="underscores"),
        pytest.param("\u0660" * 4999 + "\u0661", id="arabic-indic"),
    ])
    def test_symbol_member_in_int_grammar_with_leading_zeros(self, capsys, first):
        # Each form int() reads, 5,000 digits long, with the value 1.
        want = run(capsys, ["gen", "rotational", "--n", "11", "--symbol", "1,3,4,5,9"])
        got = run(capsys, ["gen", "rotational", "--n", "11", "--symbol", first + ",3,4,5,9"])
        assert got == want and want[0] == 0

    def test_json_alone_renders_no_matrix_text(self, capsys, monkeypatch):
        # The matrix text goes to --out or stdout; --json alone writes neither.
        monkeypatch.setattr(matrixio, "render_tournament", lambda t: pytest.fail("rendered"))
        assert run(capsys, ["gen", "qr", "--p", "7", "--json"])[0] == 0


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
        result = json.loads(out)["result"]
        assert parse_tournament("\n".join([str(result["n"])] + result["rows"]) + "\n") == t


class TestParseInput:
    def test_utf8_bom_before_header_accepted(self):
        assert parse_tournament("\ufeff3\n010\n001\n100\n") == three_cycle()

    def test_cli_reads_file_with_bom(self, tmp_path, capsys):
        path = tmp_path / "bom.txt"
        path.write_bytes(b"\xef\xbb\xbf3\n010\n001\n100\n")
        code, out, _ = run(capsys, ["check", str(path)])
        assert (code, out) == (0, "quadrangular: True\n")

    @pytest.mark.parametrize("text, message", [
        ("", "empty input"),
        ("x\n", "bad header line 'x'"),
        ("0\n", "bad vertex count 0"),
        ("3\n010\n001\n", "expected 3 body lines, got 2"),
        # int() refuses more than 4,300 digits; the digit count rules it out first.
        pytest.param("9" * 5000 + "\n", f"expected {'9' * 5000} body lines, got 0",
                     id="header-5000-digits"),
    ])
    def test_malformed_file_rejected(self, text, message):
        with pytest.raises(MatrixParseError, match=rf"^{re.escape(message)}$"):
            parse_pattern(text)

    @pytest.mark.parametrize("header", ["0003", "0" * 5000 + "3"], ids=["0003", "5000-zeros-3"])
    def test_header_with_leading_zeros_accepted(self, header):
        assert parse_pattern(f"{header}\n010\n001\n100\n") == parse_pattern("3\n010\n001\n100\n")

    @pytest.mark.parametrize("row", [
        "0_1", "0 1", " 01", "01 ", "+01", "0b1", "-01", "\ufeff01",
        "\u066101", "\uff1101",  # Arabic-Indic and full-width digit one
    ])
    def test_body_row_outside_01_rejected(self, row):
        # int(line, 2) alone would accept several of these.
        with pytest.raises(MatrixParseError, match="body line 0"):
            parse_pattern(f"3\n{row}\n001\n100\n")

    @pytest.mark.parametrize("n, replace, bad", [
        (300, {299: "0" * 299 + "_"}, 299),
        (300, {299: "0" * 299 + "\u0661"}, 299),  # Arabic-Indic digit one
        (300, {150: "1" * 149, 151: "0" * 301}, 150),
        (3, {0: "01", 1: "0011"}, 0),
        (3, {1: "00", 2: "1000"}, 1),
    ])
    def test_bad_body_row_named_past_row_0(self, n, replace, bad):
        # The body is checked in one pass; the message still names the first
        # bad line.  The last three cases have a short line followed by a
        # long one, n * n valid characters in all.
        lines = [("0" * (u + 1) + "1" * n)[:n] for u in range(n)]
        for r, line in replace.items():
            lines[r] = line
        with pytest.raises(MatrixParseError, match=rf"^body line {bad} must be {n} chars of 0/1$"):
            parse_pattern(f"{n}\n" + "\n".join(lines) + "\n")

    @pytest.mark.parametrize("t", [three_cycle(), quadratic_residue(103)], ids=["n3", "qr103"])
    def test_crlf_file_parses_like_lf(self, t):
        text = render_tournament(t)
        assert parse_pattern(text.replace("\n", "\r\n")) == parse_pattern(text)
        assert parse_tournament(text.replace("\n", "\r\n")) == parse_tournament(text) == t

    @pytest.mark.parametrize("header", [
        "+3", " 3 ", "3 ", "-3", "0x3", "3_0", "\u0663", "\uff13",  # Arabic-Indic and full-width three
        "\ufeff+3", "\ufeff\ufeff3",
    ])
    def test_header_outside_ascii_digits_rejected(self, header):
        # int() alone would accept several of these.
        with pytest.raises(MatrixParseError, match=rf"^bad header line {re.escape(repr(header))}$"):
            parse_pattern(f"{header}\n010\n001\n100\n")


class TestExitCodes:
    def test_check_true_is_zero(self, rot11_file, capsys):
        code, _, _ = run(capsys, ["check", str(rot11_file), "--what", "quad"])
        assert code == 0

    def test_check_false_is_one(self, u5_file, capsys):
        code, _, _ = run(capsys, ["check", str(u5_file), "--what", "quad"])
        assert code == 1

    @pytest.mark.parametrize("text", ["3\n010\n10\n000\n", "9" * 5000 + "\n"],
                             ids=["short-row", "header-5000-digits"])
    def test_parse_error_is_two(self, tmp_path, capsys, text):
        bad = tmp_path / "bad.txt"
        bad.write_text(text)
        code, _, err = run(capsys, ["check", str(bad)])
        assert code == 2 and err.startswith("error: ") and "Traceback" not in err

    def test_not_a_tournament_is_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("2\n01\n10\n")  # double arc
        code, _, _ = run(capsys, ["check", str(bad)])
        assert code == 2

    def test_missing_file_is_two(self, capsys):
        code, _, _ = run(capsys, ["check", "/nonexistent/file.txt"])
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["check", "{}"],
        ["check", "{}", "--what", "orth"],
        ["dom", "{}"],
        ["export", "{}"],
        ["gen", "augment", "--input", "{}", "--transmitter"],
    ])
    def test_non_utf8_file_is_two(self, tmp_path, capsys, argv):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"\xff\xfe\x00")
        code, out, err = run(capsys, [arg.format(path) for arg in argv])
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "not UTF-8" in err and "Traceback" not in err

    def test_search_first_not_found_is_one(self, capsys):
        code, _, _ = run(capsys, ["search", "--n", "9", "--first"])
        assert code == 1

    def test_search_all_not_found_is_one(self, capsys):
        assert run(capsys, ["search", "--n", "9", "--all"])[0] == 1
        code, out, _ = run(capsys, ["search", "--n", "9", "--all", "--json"])
        assert code == 1 and json.loads(out)["result"]["hit_count"] == 0

    def test_search_first_found(self, capsys):
        code, out, _ = run(capsys, ["search", "--n", "11", "--first", "--json"])
        assert code == 0
        assert json.loads(out)["result"] == {"first": [1, 3, 4, 5, 9], "examined": 9}

    def test_search_first_needs_n_above_three(self, capsys):
        code, out, err = run(capsys, ["search", "--n", "3", "--first"])
        assert (code, out, err) == (2, "", "error: criterion needs n > 3, got 3\n")

    def test_search_first_has_no_size_cap(self, capsys):
        # --all refuses n > 31; --first stops at its first hit
        code, out, _ = run(capsys, ["search", "--n", "33", "--first", "--json"])
        assert code == 0
        assert json.loads(out)["result"] == {
            "first": [*range(1, 15), 16, 18], "examined": 3}

    def test_verify_oversized_is_two(self, capsys):
        code, _, _ = run(capsys, ["verify", "exhaustive", "--n-max", "9"])
        assert code == 2

    @pytest.mark.parametrize("argv, fault", [
        pytest.param(["gen", "random", "--n", "5", "--seed", "-1"],
                     "seed must be", id="argv0"),
        pytest.param(["gen", "rotational", "--n", "7", "--symbol", "1,a"],
                     "must be integers", id="argv1"),
        # More digits than int() converts: a member out of range, not a non-integer.
        pytest.param(["gen", "rotational", "--n", "11", "--symbol", "9" * 5000],
                     "outside [1, 10]", id="symbol-5000-nines"),
        pytest.param(["gen", "rotational", "--n", "11", "--symbol=+" + "9" * 5000 + ",3,4,5,9"],
                     "outside [1, 10]", id="symbol-signed"),
        pytest.param(["gen", "rotational", "--n", "11", "--symbol", " " + "9" * 5000],
                     "outside [1, 10]", id="symbol-leading-space"),
        pytest.param(["gen", "rotational", "--n", "11", "--symbol=-" + "9_" * 5000 + "9"],
                     "outside [1, 10]", id="symbol-negative-underscores"),
        pytest.param(["gen", "rotational", "--n", "11", "--symbol", "\u0669" * 5000],
                     "outside [1, 10]", id="symbol-arabic-indic"),
        # Not integers at any length.
        pytest.param(["gen", "rotational", "--n", "11", "--symbol", "9__9" * 1250],
                     "must be integers", id="symbol-double-underscore"),
        pytest.param(["gen", "rotational", "--n", "11", "--symbol", "+-" + "9" * 5000],
                     "must be integers", id="symbol-two-signs"),
        pytest.param(["gen", "rotational", "--n", "11", "--symbol", "\x1c" + "9" * 5000],
                     "must be integers", id="symbol-file-separator"),
        pytest.param(["gen", "rotational", "--n", "11", "--symbol", "\u00b2,3,4,5,9"],
                     "must be integers", id="symbol-superscript"),
    ])
    def test_bad_generator_input_is_two(self, capsys, argv, fault):
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "Traceback" not in err
        assert fault in err

    @pytest.mark.parametrize("suite", ["exhaustive", "all"])
    @pytest.mark.parametrize("n_max", ["0", "-3"])
    def test_empty_sweep_is_two(self, capsys, suite, n_max):
        code, out, err = run(capsys, ["verify", suite, "--n-max", n_max])
        assert (code, out) == (2, "")
        assert err.startswith("error: ")

    @pytest.mark.parametrize("threads", ["0", "-4"])
    def test_bad_thread_count_is_two(self, capsys, threads):
        code, out, err = run(capsys, ["search", "--n", "11", "--threads", threads])
        assert (code, out) == (2, "")
        assert err.startswith("error: ")

    def test_environment_does_not_set_threads(self, capsys, monkeypatch):
        monkeypatch.delenv("QL_THREADS", raising=False)
        plain = run(capsys, ["search", "--n", "11"])
        monkeypatch.setenv("QL_THREADS", "x")
        assert plain[0] == 0
        assert run(capsys, ["search", "--n", "11"])[:2] == plain[:2]

    def test_out_of_memory_is_two(self, capsys, monkeypatch):
        def exhausted(n, seed):
            raise MemoryError

        monkeypatch.setattr(generators, "random_tournament", exhausted)
        code, out, err = run(capsys, ["gen", "random", "--n", "5", "--seed", "0"])
        assert (code, out, err) == (2, "", "error: out of memory\n")

    def test_out_of_memory_under_address_space_cap_is_two(self):
        # [0] * n alone needs 2.4 GB at this n; the cap is 1 GB.
        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        script = "import sys; from quadtour.cli import main; sys.exit(main(sys.argv[1:]))"
        src = str(Path(quadtour.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", script, "gen", "random", "--n", "300000000", "--seed", "0"],
            env={**os.environ, "PYTHONPATH": src}, preexec_fn=cap,
            capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", "error: out of memory\n")

    @pytest.mark.parametrize("argv", [
        ["verify", "exhaustive", "--n-max", "3", "--threads", "2"],
        ["export", "t.txt", "--json"],
    ])
    def test_removed_options_are_usage_errors(self, argv):
        assert main(argv) == 2

    def test_usage_error_is_two(self, capsys):
        assert main(["check"]) == 2


class TestJsonReports:
    def test_search_all_golden(self, capsys):
        # stdout of `search --n 23 --all`, text and JSON (less elapsed_ms)
        code, out, _ = run(capsys, ["search", "--n", "23", "--all"])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "ac6ecb9321221a33aa6147362780640f57e7e69e761f470142938843c7da2057")
        code, out, _ = run(capsys, ["search", "--n", "23", "--all", "--json"])
        out = re.sub(r', "elapsed_ms": [0-9.]+', "", out)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "b26e93ca7909cbeecfe699b80b15a5eaf8dab0301c9878a01c1a1d34909940c1")

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

    def test_dom_competition_past_the_row_gate(self, tmp_path, capsys):
        # Relabelled U_201: the out-sets of i and i + 100 are disjoint, so 201
        # pairs are no edge.  Past 200 rows the scan is screened, and the CLI
        # prints its edges in scan order, which must be lexicographic.
        t = u_n(201)
        perm = random.Random(201).sample(range(201), 201)
        rows = [0] * 201
        for u, row in enumerate(t.rows):
            rows[perm[u]] = sum(1 << perm[v] for v in iter_bits(row))
        t = Tournament(201, rows)
        want = sorted(brute_competition_edges(t))
        assert len(want) == 201 * 200 // 2 - 201
        path = tmp_path / "u201.txt"
        path.write_text(render_tournament(t))
        code, out, _ = run(capsys, ["dom", str(path), "--what", "competition", "--json"])
        assert code == 0
        assert json.loads(out)["result"] == {"n": 201, "edges": [list(e) for e in want]}
        code, out, _ = run(capsys, ["dom", str(path), "--what", "competition"])
        assert code == 0
        assert out.splitlines() == [f"competition: {len(want)} edges"] + [
            f"  {u} -- {v}" for u, v in want]

    def test_search_elapsed_outside_result(self, capsys):
        _, out, _ = run(capsys, ["search", "--n", "11", "--json"])
        payload = json.loads(out)
        assert "elapsed_ms" in payload and "elapsed_ms" not in payload["result"]
        assert payload["result"]["hits"][0] == [1, 3, 4, 5, 9]

    @pytest.mark.parametrize("what, result", [
        ("orth", {"verdict": False, "row_witness": [0, 1], "col_witness": [0, 1]}),
        ("out", {"verdict": False, "side": "out", "witness": {"u": 0, "v": 1, "common": [2]}}),
        ("in", {"verdict": False, "side": "in", "witness": {"u": 0, "v": 1, "common": [6]}}),
    ])
    def test_check_sides_qr7(self, qr7_file, capsys, what, result):
        code, out, _ = run(capsys, ["check", str(qr7_file), "--what", what, "--json"])
        assert (code, json.loads(out)["result"]) == (1, result)

    @pytest.mark.parametrize("what", ["orth", "out", "in"])
    def test_check_sides_rot11(self, rot11_file, capsys, what):
        code, out, _ = run(capsys, ["check", str(rot11_file), "--what", what, "--json"])
        result = json.loads(out)["result"]
        assert (code, result["verdict"]) == (0, True)
        assert all(value is None for key, value in result.items() if key.endswith("witness"))

    def test_gen_augment_json(self, qr7_file, capsys):
        code, out, _ = run(capsys, ["gen", "augment", "--input", str(qr7_file),
                                    "--transmitter", "--receiver", "--json"])
        assert code == 0
        assert json.loads(out)["result"] == {"n": 9, "rows": [
            "011010001", "001101001", "000110101", "100011001", "010001101",
            "101000101", "110100001", "111111101", "000000000"]}

    def test_gen_un_json(self, capsys):
        code, out, _ = run(capsys, ["gen", "un", "--n", "5", "--json"])
        assert code == 0
        assert json.loads(out)["result"] == {
            "n": 5, "rows": ["01100", "00110", "00011", "10001", "11000"]}

    def test_search_family(self, capsys):
        code, out, _ = run(capsys, ["search", "--n", "15", "--family", "--json"])
        assert code == 0
        result = json.loads(out)["result"]
        assert result["symbol"] == [1, 3, 5, 6, 7, 11, 13]
        assert result["verified"] is True

    # (exit code, sha256 of stdout) of every JSON mode no other golden pins;
    # the QR_7 checks fail, so their witnesses are pinned too.
    @pytest.mark.parametrize("argv, code, digest", [
        (["gen", "qr", "--p", "7", "--json"], 0,
         "5198451c89a61431dadf956f0984f2cd1f73ca8369a0aea7c89f686f9806c801"),
        (["gen", "rotational", "--n", "11", "--symbol", "1,3,4,5,9", "--json"], 0,
         "ca014f71f65a0b67b962053e6a893c98cb625a1c26ef6e7ebec2ead8529a4ae2"),
        (["export", "qr7.txt", "--format", "json"], 0,
         "2fd1bc82013d5b5675ab1286d5069873e3bde30ced576e7771adf9d1aba94032"),
        (["check", "qr7.txt", "--what", "quad", "--json"], 1,
         "bad656d06a4cdcbfa129d6cb8fcc98d9e9fb49365f2d1a0db909f5a66307a5a0"),
        (["check", "qr7.txt", "--what", "orth", "--json"], 1,
         "f3e85ed46151254e47fed196c721fe86b3dfb1e510b8cb4c51d390db2d8f35fc"),
        (["check", "qr7.txt", "--what", "out", "--json"], 1,
         "929e287db5d3c105d5be86b22c45c63fb9ac5717143e9c6f34dce61a875a2044"),
        (["check", "qr7.txt", "--what", "in", "--json"], 1,
         "860d311b47f7f4792e02c0033eabad0b997264cc4334d5a11756bf400f118c22"),
        (["dom", "qr7.txt", "--what", "competition", "--json"], 0,
         "8e7e1efc4151235e212cb11ceb04274997c797e8ac6a010afdbc8a4727bbb5b4"),
        (["search", "--n", "11", "--first", "--json"], 0,
         "8a16a09c3a4b89513ba3fb8b511a54b2f23fe3b17ea30930bf111fe5b0f72986"),
        (["search", "--n", "15", "--family", "--json"], 0,
         "e636f1251cf16f0b4ef913f9a06fe10ddc683aecfc0cb2aa3e56029965254a56"),
    ], ids=["gen-qr", "gen-rotational", "export", "check-quad", "check-orth",
            "check-out", "check-in", "dom-competition", "search-first", "search-family"])
    def test_stdout_golden(self, tmp_path, monkeypatch, capsys, argv, code, digest):
        monkeypatch.chdir(tmp_path)  # a relative path keeps "inputs" stable
        assert main(["gen", "qr", "--p", "7", "--out", "qr7.txt"]) == 0
        got, out, _ = run(capsys, argv)
        assert (got, hashlib.sha256(out.encode()).hexdigest()) == (code, digest)


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

    def test_dot_golden_relabelled_family_999(self, tmp_path, capsys):
        t = rotational(family_symbol(999))
        perm = random.Random(999).sample(range(999), 999)
        rows = [0] * 999
        for u, row in enumerate(t.rows):
            rows[perm[u]] = sum(1 << perm[v] for v in iter_bits(row))
        path = tmp_path / "family999.txt"
        path.write_text(render_tournament(Tournament(999, rows)))
        code, out, _ = run(capsys, ["export", str(path), "--format", "dot"])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "b28267b1d7f5f019a4bee58765108105d2b2cb87fc575d5d4a11ef02016e5c2b")

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
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "3ff3ce09f7fd36604845b90afa98c4586fcadbae9d58b7ce09a34f0f3d2ce103")
        payload = json.loads(out)
        assert payload["result"]["failure"] is None
        assert payload["result"]["instances"] == 1 + 2 + 8 + 64

    def test_theorems_suite(self, capsys):
        code, out, _ = run(capsys, ["verify", "theorems", "--json"])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "81897c673723f3e843b167d553f678a8a6480dd30230ffc64a202dd08379dcd4")
        payload = json.loads(out)
        assert payload["result"]["passes"]["transmitter-receiver"] > 0

    def _failed_sweep(self, capsys):
        code, out, _ = run(capsys, ["verify", "theorems", "--json"])
        result = json.loads(out)["result"]
        # QR_7, the first named instance, is regular and not quadrangular.
        assert result["failure"]["matrix"] == to_json_adjacency(quadratic_residue(7))
        assert result["instances"] == 49
        return code, result

    def test_classify_disagreement_is_reported(self, monkeypatch, capsys):
        classify = theorems.classify

        def negated(t, facts=None):
            trace = classify(t, facts)
            return theorems.ClassificationTrace(trace.rule, trace.conditions, not trace.verdict)

        monkeypatch.setattr(theorems, "classify", negated)
        code, result = self._failed_sweep(capsys)
        assert (code, result["failure"]["verifier"]) == (1, "classify")
        assert result["classify_agreements"] == 0
        assert set(result["passes"].values()) == {0}

    def test_regular_disagreement_is_reported(self, monkeypatch, capsys):
        monkeypatch.setattr(theorems, "verify_regular", lambda t, facts=None: False)
        code, result = self._failed_sweep(capsys)
        assert (code, result["failure"]["verifier"]) == (1, "regular")
        assert result["classify_agreements"] == 1
        assert result["passes"] == {name: int(name == "subtournament-degrees")
                                    for name in theorems.VERIFIERS}
