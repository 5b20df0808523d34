"""Run ``cpls.cli.main`` in this interpreter, optionally traced.

Usage: python3 table1_child.py [--spans FILE] <cpls arguments...>

With ``--spans`` the calls into ``cpls.cli`` and ``cpls.experiments`` are
traced and the spans written to FILE. The process pool's spawned workers
start from a fresh import, so nothing inside them is traced.
"""

import sys

from tracing import Tracer


def main(argv: list[str]) -> int:
    import cpls.cli

    if argv[:1] != ["--spans"]:
        return cpls.cli.main(argv)
    tracer = Tracer()
    with tracer.installed():
        code = cpls.cli.main(argv[2:])
    tracer.dump(argv[1])
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
