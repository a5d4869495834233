"""The field format of every CSV artifact, and the one writer of every
artifact.  A CSV artifact is a header of bare labels, then one line per
row, with floats as the repr of a Python float (the shortest literal
that reads back exactly; numpy scalars never reach repr).

Both formatting functions work through batches of BATCH values or rows,
so a writer holds at most its finished text, the text's parts and one
batch: building a text of L characters peaks near 2 L, not the 4 L that
formatting every value and every row before one join would take.  Every
CSV artifact but final_field.csv is built this way;
kinetic_pde.snapshot_csv builds that one, in the same format, one x-row
at a time, with the same peak.

write_artifact is the only function that writes an artifact (CSV text,
report or snapshot) to disk.  It writes text in slices of WRITE_SLICE
characters, so writing adds no copy of it, and an array straight from
its buffer.  It unlinks whatever is at the path and then creates a new
file there, so it never truncates an existing file: an earlier file
still linked elsewhere keeps its bytes, and a symlink or read-only file
at the path is replaced, never written through.  On ext4 this also
spares a rerun the writeback that closing a truncated file starts
(auto_da_alloc).
"""

import os
from itertools import chain, islice

import numpy as np

BATCH = 4096
# write_artifact hands text to the encoder this many characters at a time,
# so writing holds one slice's encoding, not a second copy of the text.
WRITE_SLICE = 1 << 16


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


def write_artifact(path, data):
    """Write data, a str or a numpy array, to path as a new file.

    Whatever is at path is unlinked first, so no existing file is
    truncated or written through; the new file is created exclusively.
    A str is written as text in slices of WRITE_SLICE characters, an
    array as its raw bytes in C order.  Returns path.
    """
    try:
        os.unlink(path)
    except FileNotFoundError:
        pass
    if isinstance(data, np.ndarray):
        with open(path, "xb") as fh:
            data.tofile(fh)
    else:
        with open(path, "x") as fh:
            for start in range(0, len(data), WRITE_SLICE):
                fh.write(data[start:start + WRITE_SLICE])
    return path
