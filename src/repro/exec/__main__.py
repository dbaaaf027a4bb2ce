"""``python -m repro.exec xtier`` — cross-tier validation of the analytic
fidelity tier against the packet model (:mod:`repro.exec.xtier`).

Any other argument prints usage and exits 2.
"""

import sys
from typing import List, Optional

USAGE = "usage: python -m repro.exec xtier [xtier options]"


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] != "xtier":
        print(USAGE, file=sys.stderr)
        return 2
    from .xtier import main as xtier_main

    return xtier_main(argv[1:])


if __name__ == "__main__":
    raise SystemExit(main())
