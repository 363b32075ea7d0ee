"""``python -m percut``: the same command line as the ``percut`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
