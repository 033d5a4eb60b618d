"""Refusal tables: one row per refused call, every row held to the same checks.

A test module lists what nvmag must refuse in one table, keyed by test
class and then by the id of the test each entry runs as, ``test_name`` or
``test_name[case]``.  :func:`install` makes ids that differ only in a
bracketed case the cases of one parametrized test, and an entry that is a
list of rows one test that checks them in turn.  ``test_cli.py`` installs
its command-line table the same way, with its own check.

A library row, :class:`Refusal`, is a public callable, its arguments, the
exact exception class it must raise and the text its message must hold.
:func:`check_refusal` asserts of every row that

- the exception is of the row's class itself, not a subclass or a parent;
- its message is one line and holds each piece of the row's text once;
- the call emits no warning;
- every argument is as it was: an array by its dtype, shape, bytes and
  writeable flag, a list, tuple, dict or record by its contents;
- no file under the test's temporary directory is made or changed;
- the pair search (``bath._pairs_within``), the single-spin tables
  (``decoherence._single_tables``) and the pair eigensolve
  (``decoherence._pair_spectra``) are not called: every library refusal
  comes before that work.
"""

from __future__ import annotations

import warnings
from pathlib import Path

import numpy as np
import pytest

from nvmag import bath, decoherence

SPIED = ((bath, "_pairs_within"), (decoherence, "_single_tables"),
         (decoherence, "_pair_spectra"))


class Refusal:
    """``call(*args, **kwargs)`` raises exactly ``error`` with a message holding
    ``says`` (of a tuple, each piece), where ``{tmp}`` stands for the test's
    temporary directory.  ``build(tmp_path, small_sites)``, if given, returns
    the positional arguments; it runs before the checks begin."""

    def __init__(self, error: type, says: str | tuple, call, *args, build=None, **kwargs):
        self.error, self.says, self.call = error, says, call
        self.args, self.kwargs, self.build = args, kwargs, build


def tree(root: Path) -> dict:
    """Every path under ``root``: a file's bytes, None for a directory."""
    return {path: path.read_bytes() if path.is_file() else None for path in root.rglob("*")}


def state(value):
    """An array's dtype, shape, bytes and writeable flag, the state of each item
    of a list, tuple or dict and of each attribute of a record, and the repr of
    anything else (so NaN equals NaN)."""
    if isinstance(value, np.ndarray):
        return value.dtype, value.shape, value.tobytes(), value.flags.writeable
    if isinstance(value, (list, tuple)):
        return type(value), [state(item) for item in value]
    if isinstance(value, dict):
        return type(value), {key: state(item) for key, item in value.items()}
    if hasattr(value, "__dict__") and not callable(value):
        return type(value), state(vars(value))
    return type(value), repr(value)


def check_refusal(row: Refusal, request) -> None:
    tmp_path = request.getfixturevalue("tmp_path")
    args = row.build(tmp_path, request.getfixturevalue("small_sites")) if row.build else row.args
    before, files, calls = state((args, row.kwargs)), tree(tmp_path), []
    with pytest.MonkeyPatch.context() as patch, warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for module, name in SPIED:
            def spy(*a, real=getattr(module, name), **k):
                calls.append(real.__name__)
                return real(*a, **k)
            patch.setattr(module, name, spy)
        with pytest.raises(row.error) as refused:
            row.call(*args, **row.kwargs)
    assert type(refused.value) is row.error, repr(refused.value)
    message = str(refused.value)
    assert "\n" not in message, message
    for piece in (row.says,) if isinstance(row.says, str) else row.says:
        assert message.count(piece.replace("{tmp}", str(tmp_path))) == 1, message
    assert [str(w.message) for w in caught] == []
    assert state((args, row.kwargs)) == before
    assert tree(tmp_path) == files
    assert calls == []


def install(table: dict, check, where: dict) -> None:
    """Attach each class's entries of ``table`` to that class among ``where``
    (a test module's globals), each row run as ``check(row, request)``."""
    for cls, entries in table.items():
        tests: dict = {}
        for test_id, rows in entries.items():
            name, _, case = test_id.removesuffix("]").partition("[")
            tests.setdefault(name, {})[case] = rows if isinstance(rows, list) else [rows]
        for name, cases in tests.items():
            if list(cases) == [""]:
                def test(self, request, rows=cases[""]):
                    for row in rows:
                        check(row, request)
            else:
                @pytest.mark.parametrize("rows", list(cases.values()), ids=list(cases))
                def test(self, request, rows):
                    for row in rows:
                        check(row, request)
            assert name not in vars(where[cls]), f"{cls}::{name}"
            setattr(where[cls], name, test)
