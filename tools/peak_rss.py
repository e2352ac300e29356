"""Peak resident memory of one hsrsched CLI command, in this process and in
the worker processes it started.

    PYTHONPATH=src python3 tools/peak_rss.py fig3 perfbench/configs/sweep.ini --seed 7 --out out/rss

The arguments are those of the ``hsrsched`` command.  Prints one JSON object:
``exit`` (the command's exit code), ``self_mib`` (``ru_maxrss`` of this
process) and ``children_mib`` (``ru_maxrss`` over its waited-for children,
which Linux reports as the largest single child, not a sum; 0 when the
command started none).
"""

import json
import resource
import sys

from hsrsched import cli


def main(argv) -> int:
    code = cli.main(argv)
    print(json.dumps({
        "exit": code,
        "self_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "children_mib": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
    }))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
