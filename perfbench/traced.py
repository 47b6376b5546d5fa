"""Run one gmsel command with every layer traced, then write its spans.

    python3 perfbench/traced.py SPANS.npz run --config cfg.yaml --jobs 1 --out out

Everything after the spans path is passed to ``gmsel.cli.main`` unchanged.
Trials only run in this process when the command is given ``--jobs 1``.
"""

import sys

from tracer import Tracer


def main(argv) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    import gmsel.cli

    tracer = Tracer()
    with tracer.installed():
        rc = gmsel.cli.main(cli_args)
    tracer.save(spans_path)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
