"""``python -m orientgen``: the ``orientgen`` command line, without an
installed console script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
