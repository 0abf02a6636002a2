"""One cold CLI start: import ``torelli.cli`` and answer one query per verb.

Usage: python3 cold.py <src dir> <queries.json>

Prints the seconds from just before the import to the end of the last
query, which is what a user pays on every ``torelli`` invocation beyond the
interpreter's own start.
"""

import time

t0 = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, sys.argv[1])
from torelli import cli  # noqa: E402

with open(sys.argv[2], encoding="utf-8") as fh:
    queries = json.load(fh)
for argv in queries:
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            cli.main(argv)
        except (SystemExit, Exception):  # a rejected query still costs its time
            pass
print(time.perf_counter() - t0)
