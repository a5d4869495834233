"""The field format of every CSV artifact: a header of bare labels, then
one line per row, with floats as the repr of a Python float (the shortest
literal that reads back exactly; numpy scalars never reach repr)."""

from itertools import chain

import numpy as np


def floats(values):
    """Iterator over the shortest round-trip literal of each value, row-major."""
    return map(repr, np.asarray(values, dtype=float).ravel().tolist())


def csv_text(header, columns):
    """Header labels, then one row per zipped entry of the string columns."""
    return "\n".join(chain([",".join(header)], map(",".join, zip(*columns)), [""]))
