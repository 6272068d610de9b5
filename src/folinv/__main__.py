"""``python -m folinv``: the same command line as the ``folinv`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
