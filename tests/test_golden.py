"""CLI results pinned to a recorded file: the exact-arithmetic reports must
not move when the arithmetic underneath them changes.

``golden_cli.json`` holds the ``results`` of ``verify -d 3..10``, of
``interp -d 3..10`` and, as SHA-256 digests of their canonical JSON (the
reports are about 270 KB), of ``gen -d 3..10 --sign plus|minus``; every
one of those commands exits 0.  Re-record it only for an intended change of
output, by running this file as a script.
"""

import hashlib
import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from chebcurve.cli import main

GOLDEN = Path(__file__).with_name("golden_cli.json")

JOBS = (
    [("verify", str(d), ("verify", "-d", str(d))) for d in range(3, 11)]
    + [("interp", str(d), ("interp", "-d", str(d))) for d in range(3, 11)]
    + [
        ("gen", f"{d}-{sign}", ("gen", "-d", str(d), "--sign", sign))
        for d in range(3, 11)
        for sign in ("plus", "minus")
    ]
)


def _results(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        rc = main(list(argv))
    assert rc == 0
    results = json.loads(out.getvalue())["results"]
    if argv[0] == "gen":
        text = json.dumps(results, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()
    return results


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("command, key, argv", JOBS, ids=[" ".join(job[2]) for job in JOBS])
def test_results_match_the_recorded_file(golden, command, key, argv):
    assert _results(argv) == golden[command][key]


if __name__ == "__main__":
    record: dict = {}
    for command, key, argv in JOBS:
        record.setdefault(command, {})[key] = _results(argv)
    GOLDEN.write_text(json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n")
