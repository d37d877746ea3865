"""Record the digest of every golden corpus line into digests.txt.

Usage (from the root of a checkout): python3 tests/golden/record.py

Runs corpus.LINES in process, in a fresh temporary directory, on the
checkout's own src/, and rewrites digests.txt: one "<sha256>  <command
line>" per line, in corpus order.  The CLI promises byte-stable output, so
the lines whose digest changed are listed on stderr; a change that moves
any of them names each one in CHANGES.md.
"""

import os
import pathlib
import sys
import tempfile

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

import corpus  # noqa: E402


def main():
    old = corpus.read_digests() if corpus.DIGESTS_PATH.exists() else {}
    with tempfile.TemporaryDirectory() as directory:
        corpus.write_files(pathlib.Path(directory))
        new = {corpus.line_key(argv): digest for argv, digest in corpus.run_lines(directory)}
    for key, digest in new.items():
        if old.get(key, digest) != digest:
            print("changed: %s" % key, file=sys.stderr)
    with open(corpus.DIGESTS_PATH, "w", encoding="utf-8") as handle:
        handle.writelines("%s  %s\n" % (digest, key) for key, digest in new.items())
    print("%d lines recorded in %s" % (len(new), os.path.relpath(corpus.DIGESTS_PATH)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
