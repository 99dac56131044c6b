"""Property-based tests, drawn by hypothesis with a derandomized profile.

The row-pair scan, core._pairs_sharing(rows, c), is compared with brute
force on random 0/1 patterns of 201 to 300 rows, 1 to 400 columns wide and
sparse, about half or dense, so every drawn input is longer than the row
gate and walks the screen.
"""

import random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from test_kernels import _assert_kernel_matches_brute


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(seed=st.integers(0, 2**32 - 1), width=st.integers(1, 400),
       density=st.sampled_from((0.02, 0.5, 0.95)))
def test_screened_scan_matches_brute(seed, width, density):
    rng = random.Random(seed)
    rows = tuple(sum(1 << col for col in range(width) if rng.random() < density)
                 for _ in range(rng.randint(201, 300)))
    _assert_kernel_matches_brute(rows)
