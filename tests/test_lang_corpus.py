"""The program corpus: 320 programs from the seeded generator in
tests/lang_corpus.py (seed 30), with each one's exit code, stdout and
stderr as recorded at revision 52197a9, under the strict engine,
--engine stream and --naive-multiset. It is the reference for the
evaluator: a replay through run_cli, in process, must print the same
bytes. Regenerate it only for a change meant to alter what a program
prints, with

    PYTHONPATH=src python tests/lang_corpus.py > tests/data/lang_corpus.json
"""

import json
import os

from lang_corpus import MODES, run

_CORPUS = os.path.join(os.path.dirname(__file__), "data", "lang_corpus.json")


def test_the_corpus_replays_byte_for_byte():
    with open(_CORPUS) as f:
        rows = json.load(f)
    assert len(rows) >= 300
    for row in rows:
        text = row["program"]
        for mode, flags in MODES.items():
            assert run(flags + ["eval", text]) == row[mode], (mode, text)
