"""Byte-level replay of recorded command-line runs.

tests/data/cli_golden.json lists argv vectors with the stdout, stderr and
exit code each one produced.  Every entry is replayed through ``main`` and
must match byte for byte.  After a deliberate output change, rewrite the
recorded outputs with ``PYTHONPATH=src python tests/test_cli_golden.py``
and review the diff.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import pytest

import hopfsurf
from hopfsurf.cli import main

CORPUS = Path(__file__).parent / "data" / "cli_golden.json"
# argparse wraps --help and usage text to the terminal width
ENV = {"COLUMNS": "80"}


def run_main(argv) -> dict:
    """Exit code, stdout and stderr of one call, plus the warnings it raised
    (kept apart from stderr, whose warning lines carry source paths)."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, ENV), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = main(list(argv))
        except SystemExit as exc:  # --help and usage errors
            code = exc.code
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
            "warnings": [f"{w.category.__name__}: {w.message}"
                         for w in caught]}


def run_fresh(argv) -> dict:
    """The same run in a new interpreter, so no parser state is shared."""
    src = str(Path(hopfsurf.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from hopfsurf.cli import main; "
         "sys.exit(main(sys.argv[1:]))", *argv],
        capture_output=True, text=True,
        env={**os.environ, **ENV, "PYTHONPATH": src})
    return {"code": proc.returncode, "stdout": proc.stdout,
            "stderr": proc.stderr, "warnings": []}


def _load():
    return json.loads(CORPUS.read_text())


@pytest.mark.parametrize("entry", _load(), ids=[
    f"{i:02d} {' '.join(e['argv'])[:50]}" for i, e in enumerate(_load())])
def test_replay_matches_recording(entry):
    # help and usage text is formatted by the standard library; the
    # recording matches argparse 3.10 to 3.12, and 3.13 rewraps usage lines
    if (sys.version_info >= (3, 13)
            and "usage: hopfsurf" in entry["stdout"] + entry["stderr"]):
        pytest.skip("argparse 3.13 wraps usage lines differently")
    got = run_main(entry["argv"])
    assert got == {k: entry[k] for k in got}


_ROBIN_BALL = ["robin", "--shape", "ball", "--radius", "1", "--n-walks",
               "256"]
_EXP = ["boundary-exp", "--a-re", "2", "--b-re", "3", "--domain",
        "level-band", "--k1", "0.5", "--k2", "2", "--n-walks", "256"]


@pytest.mark.parametrize("first, second", [
    (_EXP + ["--anchor", "1.2,0,1.2,0", "--anchor", "1.5,0,1.2,0"],
     _EXP + ["--anchor", "1.2,0,1.2,0"]),
    (_ROBIN_BALL + ["--center", "5", "0", "0", "0", "--pole", "5", "0",
                    "0.5", "0"],
     _ROBIN_BALL + ["--pole", "0", "0", "0.5", "0"]),
    (["fiber", "--a-re", "2", "--b-re", "-4", "--unit-field",
      "--z-prime-re", "1.5", "--format", "csv"],
     ["fiber", "--a-re", "2", "--b-re", "-4", "--unit-field",
      "--z-prime-re", "1.5"]),
], ids=["anchors", "robin-center", "fiber-format"])
def test_second_call_sees_no_state_from_first(first, second):
    assert run_main(first)["code"] == 0
    got = run_main(second)
    assert got["code"] == 0
    assert got == run_fresh(second)


if __name__ == "__main__":
    corpus = [{"argv": e["argv"], **run_main(e["argv"])} for e in _load()]
    CORPUS.write_text(json.dumps(corpus, indent=1) + "\n")
