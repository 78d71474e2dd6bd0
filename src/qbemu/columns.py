"""Programs as columns: one numpy array per field, not one object per element.

A lowered circuit, an instruction stream and a decoded byte stream are each
held as a :class:`Columns`: equal-length arrays (a struct of arrays) from
which a row object -- ``GateApplication``, ``Instruction`` or
``HostMessage`` -- is built only when one is asked for.
"""

from __future__ import annotations

import numpy as np


class Columns:
    """A sequence of rows stored as equal-length numpy columns.

    Columns are read as attributes (``program.instructions.opcode``).  Slicing
    gives a ``Columns``; an int index builds one row by passing the column
    values there, as Python scalars, to ``row``, and iteration builds every
    row.  ``==`` compares columns with another ``Columns`` and rows with a
    list or tuple.
    """

    def __init__(self, row, **cols: np.ndarray):
        self._row, self._cols = row, cols
        self.__dict__.update(cols)

    @classmethod
    def of(cls, row, fields: dict, columns) -> "Columns":
        """Columns named and typed by ``fields`` (name -> dtype) from one value
        sequence per field; an empty ``columns`` gives zero rows."""
        columns = list(columns) or [()] * len(fields)
        return cls(row, **{name: np.array(v, dtype=dtype) for (name, dtype), v in zip(fields.items(), columns)})

    def __len__(self) -> int:
        return len(next(iter(self._cols.values())))

    def __getitem__(self, key):
        if isinstance(key, slice):
            return Columns(self._row, **{name: col[key] for name, col in self._cols.items()})
        return self._row(*(col.item(key) for col in self._cols.values()))

    def __iter__(self):
        return map(self._row, *(col.tolist() for col in self._cols.values()))

    def __eq__(self, other) -> bool:
        if isinstance(other, Columns):
            mine, theirs = self._cols, other._cols
            return (
                self._row is other._row
                and mine.keys() == theirs.keys()
                and all(np.array_equal(col, theirs[name]) for name, col in mine.items())
            )
        if isinstance(other, (list, tuple)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        return f"Columns({list(self)!r})"
