#!/usr/bin/env python3
"""Check that a tool rejects its input with exactly one fatal message.

Usage: check_fatal_once.py MESSAGE BINARY [ARG...]

Runs BINARY with the given arguments and fails unless it exits with
status 1, writes nothing to stdout, and prints MESSAGE to stderr
exactly once. A rejection raised on several worker threads at once
would print it more than once, racing concurrent exits.
"""

import subprocess
import sys


def main(argv):
    if len(argv) < 3:
        sys.stderr.write(__doc__)
        return 2
    message, binary = argv[1], argv[2]
    proc = subprocess.run([binary] + argv[3:], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE)
    stderr = proc.stderr.decode(errors="replace")
    failures = []
    if proc.returncode != 1:
        failures.append("exit status %d, want 1" % proc.returncode)
    if proc.stdout:
        failures.append("stdout not empty (%d bytes)" % len(proc.stdout))
    count = stderr.count(message)
    if count != 1:
        failures.append("message printed %d times, want once" % count)
    if not failures:
        return 0
    for failure in failures:
        sys.stderr.write("FAIL: %s\n" % failure)
    sys.stderr.write("stderr was:\n%s" % stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
