"""Byte identity of the CLI on the golden corpus (tests/golden)."""

from golden import corpus


def test_corpus_matches_recorded_digests(tmp_path):
    recorded = corpus.read_digests()
    assert list(recorded) == [corpus.line_key(argv) for argv in corpus.LINES]
    corpus.write_files(tmp_path)
    changed = [
        corpus.line_key(argv) for argv, digest in corpus.run_lines(tmp_path) if digest != recorded[corpus.line_key(argv)]
    ]
    assert changed == []
