"""``python -m qutritsim``: the qutritsim command (cli.main)."""

import sys

from .cli import main

sys.exit(main())
