"""``python -m cornmaps``: the ``cornmaps`` command line."""

import sys

from .cli import main

sys.exit(main())
