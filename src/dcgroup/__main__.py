"""`python -m dcgroup ...`: the dcgroup command line."""

import sys

from .cli import main

sys.exit(main())
