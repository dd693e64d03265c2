"""`python -m omtl COMMAND ...` runs the command line, as the `omtl` script does."""

from .cli import main

if __name__ == "__main__":
    main()
