"""Rewrite golden/cli.json from the current program.

Run it only for a declared output change, from the repository root:

    PYTHONPATH=src python tests/golden/regen.py

then review the diff of tests/golden/cli.json before committing it.
"""

import json
import os
import sys
import tempfile
from pathlib import Path

TESTS = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(TESTS))

import test_golden  # noqa: E402


def main() -> None:
    os.environ["COLUMNS"] = test_golden.COLUMNS
    home = os.getcwd()
    entries = []
    for seed, argv in test_golden.corpus():
        with tempfile.TemporaryDirectory() as tmp:
            if seed is not None:
                test_golden.write_files(seed, Path(tmp))
            os.chdir(tmp)
            try:
                entries.append(test_golden.outcome(argv))
            finally:
                os.chdir(home)
    with open(test_golden.GOLDEN, "w") as fh:
        json.dump(entries, fh, indent=1, ensure_ascii=False)
        fh.write("\n")
    print(f"wrote {len(entries)} entries to {test_golden.GOLDEN}")


if __name__ == "__main__":
    main()
