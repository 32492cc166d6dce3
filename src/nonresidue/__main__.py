"""`python -m nonresidue ...` runs the command line frontend."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
