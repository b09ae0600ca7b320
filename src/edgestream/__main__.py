"""`python -m edgestream`: the edgestream command line."""
import sys

from .cli_metrics import main

if __name__ == "__main__":
    sys.exit(main())
