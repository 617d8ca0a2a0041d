"""`python -m flcva`: the command-line front end, as the `flcva` command."""

import sys

from .cli import main

sys.exit(main())
