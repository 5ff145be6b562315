"""``python -m graphpoly ...`` runs the command line, installed or not."""

if __name__ == "__main__":
    import sys

    from .cli import main

    sys.exit(main())
