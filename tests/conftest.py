"""Fixtures shared by the test modules."""

import pytest

from dimspec import report
from dimspec.feasibility import _GRID_RECORDS

# every per-process memo of the record path: the grid records of both
# schemes, and each format's texts of them and index from text to record
_MEMOS = (
    *_GRID_RECORDS.values(),
    report._CSV_TEXT,
    report._CSV_ROWS,
    report._JSON_TEXT,
    report._JSON_ROWS,
)


@pytest.fixture
def empty_memo():
    """The record memo and the writers' wire texts emptied for one test,
    and refilled as they were after it."""
    saved = [dict(memo) for memo in _MEMOS]
    for memo in _MEMOS:
        memo.clear()
    yield
    for memo, entries in zip(_MEMOS, saved):
        memo.clear()
        memo.update(entries)
