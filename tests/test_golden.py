"""The CLI's stdout against the committed digests in ``benchmarks/golden.json``.

The file maps each argv, joined by single spaces, to the sha256 of the
stdout it must print. Every argv is replayed in-process through ``run_cli``;
the file is only read.
"""

import hashlib
import json
from pathlib import Path

import pytest

from dimspec.cli import run_cli

GOLDEN_PATH = Path(__file__).resolve().parent.parent / "benchmarks" / "golden.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_stdout_matches_golden_digest(capsys, key):
    code = run_cli(key.split(" "))
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDEN[key]
