"""``python -m matchedproj``: the ``matchedproj`` command line."""

import sys

from .cli import main

sys.exit(main())
