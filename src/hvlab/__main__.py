import sys

from .options import main

sys.exit(main())
