"""The shared CSV field format: batched formatting and joining."""

from itertools import chain

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from harnack_forge import _csv

B = _csv.BATCH


def single_join(header, columns):
    """Every row built before one join: the text csv_text must reproduce."""
    return "\n".join(chain([",".join(header)], map(",".join, zip(*columns)), [""]))


@given(
    n_rows=st.sampled_from([0, 1, B - 1, B, B + 1, 2 * B + 1]),
    n_cols=st.integers(1, 3),
    # "" fields make empty rows when there is one column
    pool=st.lists(st.text(alphabet="ab.;-", max_size=3), min_size=1, max_size=6),
)
def test_batched_csv_text_equals_single_join(n_rows, n_cols, pool):
    header = [f"c{j}" for j in range(n_cols)]
    columns = [[pool[(i * (j + 1)) % len(pool)] for i in range(n_rows)]
               for j in range(n_cols)]
    expected = single_join(header, columns)
    # writers pass one-shot iterators; each column is read once
    assert _csv.csv_text(header, [iter(col) for col in columns]) == expected


def test_csv_text_keeps_rows_that_are_empty_strings():
    for n_rows in (1, B, B + 1, 2 * B + 1):
        text = _csv.csv_text(["a"], [[""] * n_rows])
        assert text == "a\n" + "\n" * n_rows


SPECIALS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, np.inf,
            -np.inf, np.nan, 1e308, 0.1, -2.5]


def test_floats_equals_repr_of_python_floats():
    rng = np.random.default_rng(3)
    for size in (0, 1, B - 1, B, B + 1, 2 * B + 1):
        a = np.concatenate([SPECIALS, rng.standard_normal(size) * 1e3])
        a = a.reshape(-1, 1) if size % 2 else a
        assert list(_csv.floats(a)) == list(map(repr, a.ravel().tolist()))


def test_floats_reads_its_input_when_called():
    a = np.arange(2 * B + 1, dtype=float)
    expected = list(map(repr, a.tolist()))
    texts = _csv.floats(a)
    a[:] = -1.0  # a change after the call does not reach the iterator
    assert list(texts) == expected

