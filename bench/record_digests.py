"""Record the stdout digest of every fixed-input op into digests.json.

Usage (from the root of a checkout): python3 bench/record_digests.py

The CLI promises byte-stable output, so the digests are recorded once and
a change to any of them is a failed check, not a reason to record again.
Run this only to add digests for new fixed-input ops; it refuses to change
a digest that is already recorded.
"""

import hashlib
import json
import os
import sys
import time

import harness
from workloads import DIGESTS, DIGESTS_PATH, FIXED_OPS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    with harness.work_area(ROOT, "digests-") as work_dir:
        runner = harness.Runner(ROOT, work_dir, time.monotonic() + 3600)
        digests = dict(DIGESTS)
        for label, argv in FIXED_OPS.items():
            result = runner.run(argv)
            if result.returncode != 0:
                print("error: %s exited with %s" % (label, result.returncode), file=sys.stderr)
                return 1
            digest = hashlib.sha256(result.stdout).hexdigest()
            if digests.setdefault(label, digest) != digest:
                print("error: %s no longer matches its recorded digest" % label, file=sys.stderr)
                return 1
    with open(DIGESTS_PATH, "w", encoding="utf-8") as handle:
        json.dump(digests, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
