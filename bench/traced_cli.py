"""Run one oodkit command with the timing wrappers installed.

    python bench/traced_cli.py SPANS.json <oodkit arguments...>

Times `import oodkit.cli`, installs the wrappers from spans.py, runs the
command and writes {"import_s": ..., "spans": [...]} to SPANS.json. The
exit code is the command's.
"""

import json
import sys
from time import perf_counter

start = perf_counter()
import oodkit.cli  # noqa: E402

import_s = perf_counter() - start

import spans  # noqa: E402


def main(argv: list[str]) -> int:
    dump_path, command = argv[0], argv[1:]
    recorder = spans.Recorder()
    spans.install(recorder)
    try:
        return oodkit.cli.main(command)
    finally:
        with open(dump_path, "w") as fh:
            json.dump({"import_s": import_s, "spans": recorder.spans}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
