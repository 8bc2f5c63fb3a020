"""Rewrite golden/cli.json, golden/sums.txt, golden/session.txt and
golden/parse.txt from the current program.

Run it only for a declared output change, from the repository root:

    PYTHONPATH=src python tests/golden/regen.py

then review the diff of those files before committing them.
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
    for seed, argv in test_golden.cli_corpus():
        with tempfile.TemporaryDirectory() as tmp:
            if seed is not None:
                test_golden.write_files(seed, Path(tmp))
            os.chdir(tmp)
            try:
                entries.append(test_golden.main_outcome(argv))
            finally:
                os.chdir(home)
    with open(test_golden.GOLDEN, "w") as fh:
        json.dump(entries, fh, indent=1, ensure_ascii=False)
        fh.write("\n")
    print(f"wrote {len(entries)} entries to {test_golden.GOLDEN}")
    for workload in ("sums", "session"):
        lines = [line for seed in test_golden.WORKER_SEEDS
                 for line in test_golden.worker_lines(workload, seed)]
        path = test_golden.worker_file(workload)
        path.write_text("".join(f"{line}\n" for line in lines))
        print(f"wrote {len(lines)} values to {path}")
    lines = test_golden.parse_lines()
    test_golden.PARSE_FILE.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
    print(f"wrote {len(lines)} parse outcomes to {test_golden.PARSE_FILE}")


if __name__ == "__main__":
    main()
