"""One set-up measurement, run in a fresh interpreter by run.py.

Times `import scenemon` plus everything `scenemon monitor` does before it
pulls its first scene line (object model load, property parsing), and
prints the CPU seconds of this (single) thread as one number.

Usage: python3 probe.py SRC_DIR MONITOR_ARGV_JSON
"""
import io
import json
import sys
import time


class FirstPull:
    """Stands in for stdin: records the first pull and ends the stream."""

    pulled_at = None

    def __iter__(self):
        return self

    def __next__(self):
        if self.pulled_at is None:
            self.pulled_at = time.thread_time()
        raise StopIteration


def main() -> int:
    src, argv = sys.argv[1], json.loads(sys.argv[2])
    sys.path.insert(0, src)
    stdin, stdout, stderr = FirstPull(), sys.stdout, sys.stderr
    start = time.thread_time()
    import scenemon.cli

    sys.stdin, sys.stdout, sys.stderr = stdin, io.StringIO(), io.StringIO()
    try:
        scenemon.cli.main(argv)
    finally:
        sys.stdin, sys.stdout, sys.stderr = sys.__stdin__, stdout, stderr
    if stdin.pulled_at is None:
        print("probe: the monitor never pulled a scene line", file=sys.stderr)
        return 1
    print(repr(stdin.pulled_at - start))
    return 0


if __name__ == "__main__":
    sys.exit(main())
