"""The golden decision corpus: every pinned digest of ``tests/golden.json``
is recomputed and must be equal. ``tests/write_golden.py`` says what each
digest covers and rewrites the file."""

import json

from write_golden import GOLDEN, corpus


def test_generated_texts_digests_and_decisions_match_the_golden_corpus():
    pinned = json.loads(GOLDEN.read_text(encoding="utf-8"))
    actual = corpus()
    assert sorted(actual) == sorted(pinned)
    moved = [(name, key) for name, pins in pinned.items() for key in pins if actual[name][key] != pins[key]]
    assert moved == []
