"""``python -m weaktype``: the same command line as the ``weaktype`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
