"""``python -m fcpd``: the fcpd command line."""

import sys

from .cli_io import main

if __name__ == "__main__":
    sys.exit(main())
