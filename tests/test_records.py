"""Tests for the library's result records: repr, equality, hashing, immutability."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import quadtour
from quadtour.core import strong_decomposition
from quadtour.domination import competition_graph, domination_number
from quadtour.generators import augment, make_symbol, quadratic_residue
from quadtour.orthogonality import adjacency_pattern, quadrangularity
from quadtour.symbols import search
from quadtour.theorems import classify

QR7 = quadratic_residue(7)


def records():
    """One of each record, built afresh on every call."""
    return {
        "StrongDecomposition": strong_decomposition(augment(QR7, True, False)),
        "SimpleGraph": competition_graph(QR7),
        "DominationInfo": domination_number(QR7),
        "Symbol": make_symbol(7, [1, 2, 4]),
        "BinaryPattern": adjacency_pattern(QR7),
        "QuadReport": quadrangularity(QR7, "out"),
        "SearchResult": search(11)._replace(elapsed=0.0),
        "ClassificationTrace": classify(QR7),
    }


@pytest.mark.parametrize("name, text", [
    ("Symbol", "Symbol(n=7, members=frozenset({1, 2, 4}))"),
    ("ClassificationTrace", "ClassificationTrace(rule='regular', conditions=(('gamma>=4', False), "
                            "('out-quadrangular', False)), verdict=False)"),
    ("QuadReport", "QuadReport(verdict=False, side='out', witness=Witness(u=0, v=1, common=(2,)))"),
    ("StrongDecomposition", "StrongDecomposition(components=((7,), (0, 1, 2, 3, 4, 5, 6)))"),
])
def test_repr_is_pinned(name, text):
    assert repr(records()[name]) == text


@pytest.mark.parametrize("name", sorted(records()))
def test_equal_records_are_equal_and_hash_equal(name):
    a, b = records()[name], records()[name]
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert type(a).__name__ == name


@pytest.mark.parametrize("name", sorted(records()))
def test_field_assignment_raises_attribute_error(name):
    record = records()[name]
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.extra = None


def test_cli_import_leaves_out_dataclasses():
    # Every quadtour command starts by importing quadtour.cli; dataclasses
    # (with inspect, ast, dis and tokenize) would add to each start-up.
    script = "import sys, quadtour.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    src = str(Path(quadtour.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr
