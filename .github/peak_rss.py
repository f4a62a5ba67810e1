"""Run one command and fail when its peak resident set reaches a bound.

    python .github/peak_rss.py [--status N] LIMIT_MB COMMAND...

The command runs as this script's only child, so ru_maxrss (KB on Linux)
of RUSAGE_CHILDREN is its own peak, not a maximum over earlier commands.
The peak is printed to stderr, so the command's output may be redirected.
The script fails when the peak is LIMIT_MB or more, or when the command
exits with a status other than N (0 by default).
"""

import argparse
import resource
import subprocess
import sys

parser = argparse.ArgumentParser()
parser.add_argument("--status", type=int, default=0)
parser.add_argument("limit_mb", type=float)
parser.add_argument("command", nargs=argparse.REMAINDER)
args = parser.parse_args()
status = subprocess.run(args.command).returncode
peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
what = " ".join(args.command)
print(f"peak RSS {peak:.0f} MB (limit {args.limit_mb:.0f} MB): {what}", file=sys.stderr)
if status != args.status:
    sys.exit(f"{what} exited with {status}, expected {args.status}")
if peak >= args.limit_mb:
    sys.exit(f"{what} peaked at {peak:.0f} MB, limit {args.limit_mb:.0f} MB")
