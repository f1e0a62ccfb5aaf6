"""``python -m kneejerk``: the command-line front end of :mod:`kneejerk.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
