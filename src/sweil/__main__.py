"""``python -m sweil``: the ``sweil`` command line."""

import sys

from .cli import main

sys.exit(main())
