"""``python -m cssgauge``: the command-line front end in ``cli``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
