"""`python -m mlop ...` runs the `mlop` command line without an install."""

import sys

from .cli import main

sys.exit(main())
