"""``repro serve`` with the benchmark's instruments in the daemon.

    python3 perfbench/serve_launcher.py --speed DIR serve --socket S --jobs 2
    python3 perfbench/serve_launcher.py --ledger DIR serve --socket S --jobs 2

``--speed`` runs every packet point through ``SlicedExecuteJob``, which
writes the point's wall and slowdown factor to ``DIR``.  ``--ledger``
installs the ledger shims: the daemon's pool workers fork with the shims
in place and write their ledgers to ``DIR`` after every job; the daemon
writes its own when the CLI returns (after a ``shutdown`` request).
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)


def main(argv) -> int:
    mode, path, cli = argv[0], argv[1], argv[2:]
    from repro.cli import main as cli_main

    if mode == "--speed":
        from repro.serve import server
        from workloads import sliced_points

        with sliced_points(path, server):
            return cli_main(cli)
    if mode != "--ledger":
        raise SystemExit(f"unknown mode {mode!r}")
    from ledger import Ledger, Shims

    ledger = Ledger(flush_dir=path)
    shims = Shims(ledger).install()
    try:
        return cli_main(cli)
    finally:
        shims.restore()
        ledger.dump()


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
