"""The field format of every CSV artifact: a header of bare labels, then
one line per row, with floats as the repr of a Python float (the shortest
literal that reads back exactly; numpy scalars never reach repr).

Both functions work through batches of BATCH values or rows, so a writer
holds at most its finished text, the text's parts and one batch: building
a text of L characters peaks near 2 L, not the 4 L that formatting every
value and every row before one join would take.  Every CSV artifact but
final_field.csv is built this way; kinetic_pde.snapshot_csv builds that
one, in the same format, one x-row at a time, with the same peak.
verifier_cli._write then writes the text in slices of WRITE_SLICE
characters, so writing adds no copy of it.
"""

from itertools import chain, islice

import numpy as np

BATCH = 4096


def floats(values):
    """Iterator over the shortest round-trip literal of each value, row-major.

    The values are copied when floats is called, so a later change to
    them does not reach the iterator.
    """
    flat = np.array(values, dtype=float, order="C").ravel()
    return chain.from_iterable(
        map(repr, flat[i:i + BATCH].tolist()) for i in range(0, flat.size, BATCH)
    )


def csv_text(header, columns):
    """Header labels, then one row per zipped entry of the string columns."""
    parts = [",".join(header)]
    rows = map(",".join, zip(*columns))
    for first in rows:  # each part takes up to BATCH rows; a row may be ""
        parts.append("\n".join(chain([first], islice(rows, BATCH - 1))))
    parts.append("")
    return "\n".join(parts)
