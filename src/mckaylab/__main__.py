"""`python -m mckaylab`: the same command line as the `mckaylab` script."""

from .cli import main

if __name__ == "__main__":
    main()
