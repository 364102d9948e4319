"""``python -m symcrit`` runs the command-line pipeline (see ``cli``)."""

import sys

from .cli import main

sys.exit(main())
