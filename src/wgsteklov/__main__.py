"""`python -m wgsteklov`: the `wg-steklov` command line."""

import sys

from .harness import main

sys.exit(main())
